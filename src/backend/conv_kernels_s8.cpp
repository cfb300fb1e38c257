#include "backend/conv_kernels_s8.hpp"

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <vector>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif
#ifdef _OPENMP
#include <omp.h>
#endif

#include "backend/perf_counters.hpp"
#include "backend/simd/kernel_table.hpp"
#include "tensor/arena.hpp"

namespace wa::backend {

void gemm_s8_s32(std::int64_t m, std::int64_t n, std::int64_t k, const std::int8_t* a,
                 const std::int8_t* b, std::int32_t* c) {
  simd::kernels().gemm_s8_s32(m, n, k, a, b, c);
}

namespace {

std::int8_t clamp_s8(float v) {
  return static_cast<std::int8_t>(std::min(127.F, std::max(-127.F, std::nearbyint(v))));
}

// Run a flat per-element kernel over [0, total) in parallel chunks. The
// dispatched kernels (quantize_f32_s8, requant_s32_s8) are elementwise, so
// chunking is free; the chunk size just amortizes dispatch overhead while
// leaving enough pieces for the OpenMP team.
template <typename Fn>
void parallel_flat(std::int64_t total, Fn&& fn) {
  constexpr std::int64_t kChunk = 1 << 14;
  const std::int64_t chunks = (total + kChunk - 1) / kChunk;
#pragma omp parallel for schedule(static) if (chunks >= 2)
  for (std::int64_t c = 0; c < chunks; ++c) {
    const std::int64_t begin = c * kChunk;
    fn(begin, std::min(kChunk, total - begin));
  }
}

/// Donate `reuse` (possibly the input's own storage — the caller guarantees
/// the input is no longer read) into the output buffer of `n` elements. When
/// the donated capacity covers n the buffer is reused outright; when the
/// output is larger the donation is released FIRST, so the dying input and
/// the fresh output never coexist (the planner's grow-donation: peak memory
/// sees max(in, out), not in + out). The kernels overwrite all n elements,
/// so donated and fresh buffers produce identical bytes.
std::vector<std::int8_t> take_output_storage(std::vector<std::int8_t>* reuse, std::int64_t n) {
  std::vector<std::int8_t> out;
  if (reuse != nullptr) {
    if (reuse->capacity() >= static_cast<std::size_t>(n)) {
      out = std::move(*reuse);
    } else {
      std::vector<std::int8_t>().swap(*reuse);  // free before the grow
    }
  }
  out.resize(static_cast<std::size_t>(n));
  return out;
}

}  // namespace

Im2rowWeightsS8 prepare_im2row_weights_s8(const QTensor& weights, std::int64_t groups) {
  if (weights.shape.empty()) throw std::invalid_argument("prepare_im2row_weights_s8: empty weights");
  const std::int64_t k_total = weights.shape[0];
  if (groups < 1 || k_total % groups != 0) {
    throw std::invalid_argument("prepare_im2row_weights_s8: groups must divide out channels");
  }
  count_weight_repack();
  Im2rowWeightsS8 w;
  w.groups = groups;
  w.out_channels = k_total / groups;                 // per-group K
  w.patch = weights.numel() / k_total;               // (C/g)*r*r — already per-group
  w.scale = weights.scale;
  // Each group's [patch, K/g] operand is contiguous; groups == 1 reproduces
  // the ungrouped [patch, K] repack byte for byte.
  w.wt.resize(static_cast<std::size_t>(groups * w.patch * w.out_channels));
  for (std::int64_t gi = 0; gi < groups; ++gi) {
    std::int8_t* dst = w.wt.data() + gi * w.patch * w.out_channels;
    for (std::int64_t k = 0; k < w.out_channels; ++k)
      for (std::int64_t p = 0; p < w.patch; ++p)
        dst[p * w.out_channels + k] =
            weights.data[static_cast<std::size_t>((gi * w.out_channels + k) * w.patch + p)];
  }
  return w;
}

QTensor im2row_conv_s8_prepared(const QTensor& input, const Im2rowWeightsS8& weights,
                                const ConvGeometry& g, float out_scale, const Tensor* bias,
                                std::vector<std::int8_t>* reuse_storage) {
  g.validate();
  const std::int64_t gs = g.groups;
  const std::int64_t cg = g.in_channels / gs;   // channels per group
  const std::int64_t kg = g.out_channels / gs;  // filters per group
  const std::int64_t patch = cg * g.kernel * g.kernel;
  if (weights.patch != patch || weights.out_channels != kg || weights.groups != gs) {
    throw std::invalid_argument("im2row_conv_s8: prepared weights do not match geometry");
  }
  const std::int64_t oh = g.out_height(), ow = g.out_width();
  const std::int64_t rows = g.batch * oh * ow;
  if (input.shape != Shape{g.batch, g.in_channels, g.height, g.width}) {
    throw std::invalid_argument("im2row_conv_s8: input shape " + to_string(input.shape) +
                                " does not match geometry");
  }

  ScratchArena& arena = ScratchArena::for_thread();
  ScratchArena::Scope frame(arena);

  // Lower patches directly in int8 (zero padding stays zero-level: symmetric
  // quantization has no zero-point offset). Each group gets its own [rows,
  // patch] matrix so the per-group GEMM below reads one contiguous operand;
  // groups == 1 is the classic single-matrix lowering unchanged.
  std::int8_t* lowered = arena.alloc<std::int8_t>(gs * rows * patch);
#pragma omp parallel for collapse(2) schedule(static)
  for (std::int64_t n = 0; n < g.batch; ++n) {
    for (std::int64_t i = 0; i < oh; ++i) {
      for (std::int64_t j = 0; j < ow; ++j) {
        for (std::int64_t gi = 0; gi < gs; ++gi) {
          std::int8_t* dst = lowered + gi * rows * patch + ((n * oh + i) * ow + j) * patch;
          for (std::int64_t c = gi * cg; c < (gi + 1) * cg; ++c) {
            for (std::int64_t fi = 0; fi < g.kernel; ++fi) {
              const std::int64_t ii = i * g.stride + fi - g.pad;
              for (std::int64_t fj = 0; fj < g.kernel; ++fj) {
                const std::int64_t jj = j * g.stride + fj - g.pad;
                *dst++ = (ii >= 0 && ii < g.height && jj >= 0 && jj < g.width)
                             ? input.data[static_cast<std::size_t>(
                                   ((n * g.in_channels + c) * g.height + ii) * g.width + jj)]
                             : std::int8_t{0};
              }
            }
          }
        }
      }
    }
  }

  // acc is [g][rows, K/g]; for groups == 1 that is the familiar [rows, K].
  std::int32_t* acc = arena.alloc<std::int32_t>(rows * g.out_channels);
  for (std::int64_t gi = 0; gi < gs; ++gi) {
    gemm_s8_s32(rows, kg, patch, lowered + gi * rows * patch,
                weights.wt.data() + gi * patch * kg, acc + gi * rows * kg);
  }

  // Requantize to int8 with a fixed-point multiplier. A bias, when present,
  // joins the accumulators as int32 levels at the accumulator scale
  // (Jacob et al. 2018: bias is quantized at s_in * s_w).
  const float acc_scale = input.scale * weights.scale;
  if (bias != nullptr && !bias->empty()) {
    if (bias->numel() != g.out_channels) {
      throw std::invalid_argument("im2row_conv_s8: bias/channel mismatch");
    }
    for (std::int64_t gi = 0; gi < gs; ++gi) {
      std::int32_t* gacc = acc + gi * rows * kg;
#pragma omp parallel for schedule(static)
      for (std::int64_t row = 0; row < rows; ++row) {
        std::int32_t* arow = gacc + row * kg;
        for (std::int64_t k = 0; k < kg; ++k) {
          arow[k] += static_cast<std::int32_t>(std::nearbyint(bias->at(gi * kg + k) / acc_scale));
        }
      }
    }
  }
  float oscale = out_scale;
  if (oscale <= 0.F) {
    std::int32_t amax = 0;
    for (std::int64_t i = 0; i < rows * g.out_channels; ++i) amax = std::max(amax, std::abs(acc[i]));
    oscale = std::max(acc_scale * static_cast<float>(amax), 1e-12F) / 127.F;
  }
  const auto mult = quant::quantize_multiplier(static_cast<double>(acc_scale) / oscale);

  // Requantize the accumulators flat (the dispatched fixed-point loop), then
  // transpose the int8 result per group [rows, K/g] -> [N, K, oh, ow]. Two
  // passes move a quarter of the bytes the old fused int32 transpose-requant
  // touched.
  const auto& kt = simd::kernels();
  std::int8_t* q8 = arena.alloc<std::int8_t>(rows * g.out_channels);
  parallel_flat(rows * g.out_channels, [&](std::int64_t begin, std::int64_t len) {
    kt.requant_s32_s8(acc + begin, q8 + begin, len, mult);
  });

  QTensor out;
  out.shape = Shape{g.batch, g.out_channels, oh, ow};
  out.scale = oscale;
  // The input was fully consumed by the patch lowering above, so a donated
  // buffer aliasing it is safe to take over here.
  out.data = take_output_storage(reuse_storage, rows * g.out_channels);
  for (std::int64_t gi = 0; gi < gs; ++gi) {
    const std::int8_t* gq8 = q8 + gi * rows * kg;
#pragma omp parallel for collapse(2) schedule(static)
    for (std::int64_t n = 0; n < g.batch; ++n) {
      for (std::int64_t i = 0; i < oh; ++i) {
        for (std::int64_t j = 0; j < ow; ++j) {
          const std::int8_t* src = gq8 + ((n * oh + i) * ow + j) * kg;
          for (std::int64_t k = 0; k < kg; ++k) {
            out.data[static_cast<std::size_t>(
                ((n * g.out_channels + gi * kg + k) * oh + i) * ow + j)] = src[k];
          }
        }
      }
    }
  }
  return out;
}

WinogradWeightsS8 prepare_winograd_weights_s8(const Tensor& weights_fp32,
                                              const wino::Transforms& tr, float scale,
                                              const std::vector<float>& tap_scales,
                                              std::int64_t groups, const Tensor* sparse_mask) {
  // U in FP32, then int8 — at one per-layer scale (the legacy training-time
  // Qx) or, when `tap_scales` is given, each tap's [K, C] slice at its own
  // scale (the per-tap Qx the F4/F6 QAT trains against). Grouped weights
  // arrive as [K, C/g, r, r]; the transform is per (k, c) plane, so the same
  // [t*t, K, C/g] layout falls out with no group-aware code.
  const Tensor u_f = winograd_transform_weights(weights_fp32, tr);  // [t*t, K, C/g]
  WinogradWeightsS8 w;
  w.out_channels = weights_fp32.size(0);
  w.in_channels = weights_fp32.size(1);
  if (groups < 1 || w.out_channels % groups != 0) {
    throw std::invalid_argument("prepare_winograd_weights_s8: groups must divide out channels");
  }
  w.groups = groups;
  w.tile = tr.tile;
  const std::int64_t t2 = w.tile * w.tile;
  // The int8 levels [t², K, C/g], kept only until they are blocked below.
  std::vector<std::int8_t> levels(static_cast<std::size_t>(u_f.numel()));
  if (!tap_scales.empty()) {
    if (static_cast<std::int64_t>(tap_scales.size()) != t2) {
      throw std::invalid_argument("prepare_winograd_weights_s8: " +
                                  std::to_string(tap_scales.size()) + " tap scales for a t*t of " +
                                  std::to_string(t2));
    }
    for (const float s : tap_scales) {
      if (s <= 0.F) {
        throw std::invalid_argument("prepare_winograd_weights_s8: tap scales must be positive");
      }
    }
    w.tap_scales = tap_scales;
    w.scale = tap_scales.front();  // representative for legacy predicates
    const std::int64_t kc = w.out_channels * w.in_channels;
    for (std::int64_t ab = 0; ab < t2; ++ab) {
      const float s = tap_scales[static_cast<std::size_t>(ab)];
      for (std::int64_t i = 0; i < kc; ++i) {
        levels[static_cast<std::size_t>(ab * kc + i)] = clamp_s8(u_f.at(ab * kc + i) / s);
      }
    }
  } else {
    w.scale = scale > 0.F ? scale : quant::scale_for(u_f.abs_max(), quant::QuantSpec{8});
    for (std::int64_t i = 0; i < u_f.numel(); ++i) {
      levels[static_cast<std::size_t>(i)] = clamp_s8(u_f.at(i) / w.scale);
    }
  }
  if (sparse_mask != nullptr && !sparse_mask->empty()) {
    // winograd_prune mask [groups, t*t, K/g, C/g]: zero the pruned U levels
    // (bit-identical to pruning before the transform quantized — Qx(0) == 0),
    // then flag taps whose whole slice died so the executors skip their GEMM.
    const std::int64_t kpg = w.out_channels / groups, c = w.in_channels;
    if (sparse_mask->dim() != 4 || sparse_mask->size(0) != groups ||
        sparse_mask->size(1) != t2 || sparse_mask->size(2) != kpg || sparse_mask->size(3) != c) {
      throw std::invalid_argument("prepare_winograd_weights_s8: sparse mask shape " +
                                  to_string(sparse_mask->shape()) + " does not match U");
    }
    for (std::int64_t gi = 0; gi < groups; ++gi) {
      for (std::int64_t ab = 0; ab < t2; ++ab) {
        for (std::int64_t k = 0; k < kpg; ++k) {
          for (std::int64_t ci = 0; ci < c; ++ci) {
            if (sparse_mask->at(((gi * t2 + ab) * kpg + k) * c + ci) == 0.F) {
              levels[static_cast<std::size_t>((ab * w.out_channels + gi * kpg + k) * c + ci)] = 0;
            }
          }
        }
      }
    }
    std::vector<std::uint8_t> mask(static_cast<std::size_t>(t2), 0);
    bool any = false;
    const std::int64_t kc = w.out_channels * c;
    for (std::int64_t ab = 0; ab < t2; ++ab) {
      bool dead = true;
      for (std::int64_t i = 0; i < kc && dead; ++i) {
        dead = levels[static_cast<std::size_t>(ab * kc + i)] == 0;
      }
      if (dead) {
        mask[static_cast<std::size_t>(ab)] = 1;
        any = true;
      }
    }
    if (any) w.tap_mask = std::move(mask);  // empty == dense, nothing to skip
  }
  // Block the levels into the offset-binary [t², K, Cpad] layout the fused
  // executor's k4 GEMM consumes. 128 is offset-binary zero, so pad channels
  // drop out of the GEMM exactly.
  const std::int64_t c = w.in_channels, cpad = w.padded_in_channels();
  w.u_blocked.assign(static_cast<std::size_t>(t2 * w.out_channels * cpad), std::uint8_t{128});
  for (std::int64_t abk = 0; abk < t2 * w.out_channels; ++abk) {
    for (std::int64_t ci = 0; ci < c; ++ci) {
      w.u_blocked[static_cast<std::size_t>(abk * cpad + ci)] = static_cast<std::uint8_t>(
          static_cast<std::int32_t>(levels[static_cast<std::size_t>(abk * c + ci)]) + 128);
    }
  }
  return w;
}

namespace {

std::atomic<bool> g_wino_blocked{true};
std::atomic<StridedPolicy> g_strided_policy{StridedPolicy::kAuto};

}  // namespace

bool winograd_blocked_enabled() { return g_wino_blocked.load(std::memory_order_relaxed); }
void set_winograd_blocked_enabled(bool on) {
  g_wino_blocked.store(on, std::memory_order_relaxed);
}

StridedPolicy strided_polyphase_policy() {
  return g_strided_policy.load(std::memory_order_relaxed);
}
void set_strided_polyphase_policy(StridedPolicy p) {
  g_strided_policy.store(p, std::memory_order_relaxed);
}

bool strided_polyphase_profitable(std::int64_t in_channels, std::int64_t out_channels) {
  const double c = static_cast<double>(in_channels);
  const double k = static_cast<double>(out_channels);
  // Per-output-pixel cost units (one int8 MAC ≈ 1). Polyphase: 2.25·C·K in
  // the F(2,2) phase-00 sub-conv (4 taps over a quarter-res plane scaled
  // back up) + 5·C·K rect GEMM + the fp32 scatter/join passes, whose
  // traffic is linear in C and K. Im2row: 9·C·K in one fused pass plus the
  // patch lowering. kJoinOverhead is calibrated so the model reproduces the
  // measured 0.60x at C=K=64 (bench/zoo_deploy); crossover lands at
  // C=K≈288.
  constexpr double kJoinOverhead = 256.0;
  const double poly = 7.25 * c * k + kJoinOverhead * (c + k);
  const double im2row = 9.0 * c * k + 9.0 * c;
  return poly < im2row;
}

namespace {

// The fused streaming executor: per (batch element, block of consecutive
// tiles), run input transform -> t² blocked GEMMs -> requant -> inverse
// transform + output quantization as one loop. The V and M intermediates for
// one block live in a ScratchArena slab sized to stay L1/L2-resident instead
// of the flat path's full arena tensors — the only traffic proportional to
// the whole tensor is the input read and the int8 output write.
//
// Bit-exactness with the flat path (the differential fuzzer's contract):
//   - every per-tile fp32 transform is tile-local, so splitting tiles into
//     blocks computes the identical floats;
//   - quantize/requant are elementwise with the same scales (all frozen here
//     — a dynamic scale needs a whole-tensor abs-max and forces flat);
//   - the Hadamard sums are int32-exact for any channel/summation order, and
//     pad channels are offset-binary 128 == level 0 (they drop out exactly);
//   - splitting a block across the team changes only which thread computes
//     an element, never the operations that produce it.
//
// Interleave four nt-long int8 rows into the k4 GEMM's native operand layout
// (dst[idx*4 + lane] = row_lane[idx]). A pure byte shuffle — any
// implementation produces identical bytes — so the SSE2 4x16 transpose needs
// no dispatch-table entry; baseline x86-64 always has it.
void interleave_k4(const std::int8_t* r0, const std::int8_t* r1, const std::int8_t* r2,
                   const std::int8_t* r3, std::int8_t* dst, std::int64_t nt) {
  std::int64_t idx = 0;
#if defined(__SSE2__)
  for (; idx + 16 <= nt; idx += 16) {
    const __m128i a = _mm_loadu_si128(reinterpret_cast<const __m128i*>(r0 + idx));
    const __m128i b = _mm_loadu_si128(reinterpret_cast<const __m128i*>(r1 + idx));
    const __m128i c = _mm_loadu_si128(reinterpret_cast<const __m128i*>(r2 + idx));
    const __m128i d = _mm_loadu_si128(reinterpret_cast<const __m128i*>(r3 + idx));
    const __m128i ab_lo = _mm_unpacklo_epi8(a, b);  // a0 b0 a1 b1 ..
    const __m128i ab_hi = _mm_unpackhi_epi8(a, b);
    const __m128i cd_lo = _mm_unpacklo_epi8(c, d);
    const __m128i cd_hi = _mm_unpackhi_epi8(c, d);
    std::int8_t* out = dst + idx * 4;
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out), _mm_unpacklo_epi16(ab_lo, cd_lo));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + 16), _mm_unpackhi_epi16(ab_lo, cd_lo));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + 32), _mm_unpacklo_epi16(ab_hi, cd_hi));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + 48), _mm_unpackhi_epi16(ab_hi, cd_hi));
  }
#endif
  for (; idx < nt; ++idx) {
    dst[idx * 4 + 0] = r0[idx];
    dst[idx * 4 + 1] = r1[idx];
    dst[idx * 4 + 2] = r2[idx];
    dst[idx * 4 + 3] = r3[idx];
  }
}

// Caller guarantees (winograd_conv_s8_prepared): geometry/scale validation
// passed, all of sv/sm/so frozen, u_blocked built.
QTensor winograd_conv_s8_blocked(const QTensor& input, const WinogradWeightsS8& weights,
                                 const ConvGeometry& g, const wino::Transforms& tr,
                                 const WinogradStageScales& scales, const Tensor* bias,
                                 std::vector<std::int8_t>* reuse_storage,
                                 WinoPhaseNs* phase_ns) {
  const std::int64_t oh = g.out_height(), ow = g.out_width();
  const std::int64_t t = tr.tile, m = tr.m, t2 = t * t;
  const std::int64_t th = (oh + m - 1) / m, tw = (ow + m - 1) / m;
  const std::int64_t tiles_pp = th * tw;  // tiles per plane
  const std::int64_t C = g.in_channels, K = g.out_channels;
  const std::int64_t gs = weights.groups;
  const std::int64_t cg = weights.in_channels;   // channels per group
  const std::int64_t kg = K / gs;                // filters per group
  const std::int64_t cpad = weights.padded_in_channels();  // pad4(C/g)
  const std::int64_t cq = cpad / kWinoChannelBlock;
  const std::uint8_t* tap_mask = weights.tap_mask.empty() ? nullptr : weights.tap_mask.data();

  const float su = weights.scale;
  const float sv = scales.input_transformed;
  const float sm = scales.hadamard;
  const float so = scales.output;
  // Scale arithmetic replayed exactly as the flat path computes it (float
  // product, double ratio) so the fixed-point multiplier is bit-identical.
  const float m_acc_scale = su * sv;
  const auto m_mult = quant::quantize_multiplier(static_cast<double>(m_acc_scale) / sm);
  const float in_scale = input.scale;
  const float v_inv = 1.F / sv;
  const float o_inv = 1.F / so;

  // Per-tap tables. The gather always consumes a t²-long M-scale array (splat
  // when per-tensor); the V quantize and requant switch to per-tap sweeps only
  // when some stage actually carries a tap vector, so legacy layers keep the
  // exact single-sweep call sequence (and bytes) they had before.
  const bool per_tap = !weights.tap_scales.empty() || !scales.input_transformed_taps.empty() ||
                       !scales.hadamard_taps.empty();
  std::vector<float> sm_taps = scales.hadamard_taps.empty()
                                   ? std::vector<float>(static_cast<std::size_t>(t2), sm)
                                   : scales.hadamard_taps;
  std::vector<float> v_inv_taps;
  std::vector<quant::FixedPointMultiplier> m_mults;
  if (per_tap) {
    const std::vector<float> su_taps =
        weights.tap_scales.empty() ? std::vector<float>(static_cast<std::size_t>(t2), su)
                                   : weights.tap_scales;
    const std::vector<float> sv_taps =
        scales.input_transformed_taps.empty()
            ? std::vector<float>(static_cast<std::size_t>(t2), sv)
            : scales.input_transformed_taps;
    v_inv_taps.resize(static_cast<std::size_t>(t2));
    m_mults.resize(static_cast<std::size_t>(t2));
    for (std::int64_t ab = 0; ab < t2; ++ab) {
      const auto i = static_cast<std::size_t>(ab);
      v_inv_taps[i] = 1.F / sv_taps[i];
      // Same float-product / double-ratio replay as the scalar multiplier.
      m_mults[i] = quant::quantize_multiplier(
          static_cast<double>(su_taps[i] * sv_taps[i]) / sm_taps[i]);
    }
  }

  const bool has_bias = bias != nullptr && !bias->empty();
  if (has_bias && bias->numel() != g.out_channels) {
    throw std::invalid_argument("winograd_conv_s8: bias/channel mismatch");
  }

  // Tile-block width: as many tiles as keep the slab (V fp32/int8/blocked +
  // M int32/int8) around the L2 budget, in multiples of the 16-column GEMM
  // width, capped so small shapes still form one block.
  constexpr std::int64_t kSlabBudget = std::int64_t{384} << 10;
  const std::int64_t per_tile = t2 * (4 + kWinoChannelBlock + gs * cpad + 5 * K);
  std::int64_t tb = kSlabBudget / std::max<std::int64_t>(per_tile, 1);
  tb = std::min<std::int64_t>(tb, 64);
  tb = (tb / 16) * 16;
  if (tb < 16) tb = 16;
  tb = std::min(tb, tiles_pp);

  const std::int64_t out_numel = g.batch * K * oh * ow;
  QTensor out;
  out.shape = Shape{g.batch, K, oh, ow};
  out.scale = so;

  ScratchArena& arena = ScratchArena::for_thread();
  ScratchArena::Scope frame(arena);
  // With a donated buffer (which may alias input.data) the output is staged
  // in the arena and the donation is consumed only after every input read —
  // the same "fully consume, then take over" contract as the flat path, so
  // the planner's donation accounting holds unchanged.
  std::int8_t* stage = nullptr;
  if (reuse_storage != nullptr) {
    stage = arena.alloc<std::int8_t>(out_numel);
  } else {
    out.data.resize(static_cast<std::size_t>(out_numel));
    stage = out.data.data();
  }

  const std::int64_t nblocks = (tiles_pp + tb - 1) / tb;
  const std::int8_t* in_base = input.data.data();
  const std::uint8_t* ub = weights.u_blocked.data();
  const auto& kt = simd::kernels();
  const bool timed = phase_ns != nullptr;

  // The block buffers every thread of the team shares, sized for the widest
  // block: v_blk is [t², gs, cq, nt, 4] (each conv group blocked on its own,
  // pad lanes at its channel tail, group-major per tap so every group GEMM
  // reads one contiguous [cq] run), m_acc and m_q are [t², K, nt]. v_blk is
  // double-buffered so a block's scatter never overwrites the V that a
  // slower thread's GEMM is still reading from the block before.
  std::int8_t* const v_bufs[2] = {arena.alloc<std::int8_t>(t2 * gs * cpad * tb),
                                  arena.alloc<std::int8_t>(t2 * gs * cpad * tb)};
  std::int32_t* m_acc = arena.alloc<std::int32_t>(t2 * K * tb);
  std::int8_t* m_q = arena.alloc<std::int8_t>(t2 * K * tb);

  // The blocks run in order, each split across the whole OpenMP team: the
  // scatter shares out (conv group, channel quad) pairs, and after its one
  // barrier each thread runs GEMM -> requant -> gather for its own slice of
  // output channels. One parallel region covers every block, so a block
  // costs one barrier, not a fork and a join. A layer with a single quad
  // pair and at most one 4-row filter block per group gives a second thread
  // nothing to do and runs unforked. A team of 1 issues the same kernel
  // calls, in the same order, as a single-threaded loop over the blocks.
  const bool splittable = gs * cq > 1 || gs * ((kg + 3) / 4) > 1;
#pragma omp parallel if (splittable)
  {
    std::int64_t team = 1, tid = 0;
#ifdef _OPENMP
    team = omp_get_num_threads();
    tid = omp_get_thread_num();
#endif
    // Per-phase timing, only for traced forwards (phase_ns non-null): each
    // thread's own CPU time, two clock reads per phase per block, added to
    // the shared counters once at the end.
    std::int64_t ns_scatter = 0, ns_gemm = 0, ns_requant = 0, ns_gather = 0;
    auto t_prev =
        timed ? std::chrono::steady_clock::now() : std::chrono::steady_clock::time_point{};
    const auto phase_mark = [&](std::int64_t& acc) {
      if (!timed) return;
      const auto t = std::chrono::steady_clock::now();
      acc += std::chrono::duration_cast<std::chrono::nanoseconds>(t - t_prev).count();
      t_prev = t;
    };
    ScratchArena& slab = ScratchArena::for_thread();
    ScratchArena::Scope thread_frame(slab);
    float* v_f = slab.alloc<float>(t2 * tb);
    std::int8_t* v_q4 = slab.alloc<std::int8_t>(kWinoChannelBlock * t2 * tb);

    // Output-channel slices, one per thread: ceil(kg / team) rows rounded up
    // to the GEMM's 4-row block, never crossing a conv group. Each thread
    // takes a contiguous run of slices, which is a contiguous run of channels
    // [k_lo, k_hi) whose M rows and output planes no other thread touches —
    // so requant and gather follow the GEMM with no second barrier.
    const std::int64_t rows = ((kg + team - 1) / team + 3) / 4 * 4;
    const std::int64_t per_group = (kg + rows - 1) / rows;
    const std::int64_t nslices = gs * per_group;
    const std::int64_t s_lo = nslices * tid / team, s_hi = nslices * (tid + 1) / team;
    const auto slice_begin = [&](std::int64_t s) {
      return (s / per_group) * kg + (s % per_group) * rows;
    };
    const auto slice_end = [&](std::int64_t s) {
      return std::min(slice_begin(s) + rows, (s / per_group + 1) * kg);
    };
    const std::int64_t k_lo = slice_begin(s_lo);
    const std::int64_t k_hi = s_lo < s_hi ? slice_end(s_hi - 1) : k_lo;

    for (std::int64_t n = 0; n < g.batch; ++n) {
      for (std::int64_t blk = 0; blk < nblocks; ++blk) {
        const std::int64_t tile0 = blk * tb;
        const std::int64_t nt = std::min(tb, tiles_pp - tile0);
        // Buffer b % 2 is rewritten by block b + 2's scatter only after
        // every thread has passed block b + 1's barrier, which it reaches
        // after its block-b GEMM.
        std::int8_t* v_blk = v_bufs[(n * nblocks + blk) % 2];

        // Input transform + V quantization + k4 interleave, one channel quad
        // at a time: a thread's V only ever holds 4 * t² * nt values. The
        // four planar lane rows are transposed into the GEMM layout together.
#pragma omp for schedule(static)
        for (std::int64_t pair = 0; pair < gs * cq; ++pair) {
          const std::int64_t gi = pair / cq, cb = pair % cq;
          for (std::int64_t lane = 0; lane < kWinoChannelBlock; ++lane) {
            const std::int64_t cl = cb * kWinoChannelBlock + lane;  // within the group
            std::int8_t* vrow = v_q4 + lane * t2 * nt;
            if (cl >= cg) {
              // Pad lane: level 0 everywhere. Its GEMM contribution cancels
              // for any value; zero keeps the bytes deterministic.
              std::memset(vrow, 0, static_cast<std::size_t>(t2 * nt));
              continue;
            }
            const std::int64_t c = gi * cg + cl;
            const std::int8_t* plane = in_base + (n * C + c) * g.height * g.width;
            kt.wino_scatter_block_f32(plane, g.height, g.width, g.pad, in_scale, tr.bt_mat.raw(),
                                      t, m, th, tw, tile0, nt, v_f, nt);
            if (per_tap) {
              // v_f is tap-major ([t², nt] for this lane): each tap's nt run
              // quantizes at its own scale, with the tap loop inside the
              // backend TU (nt is short — per-call dispatch would dominate).
              kt.quantize_f32_s8_taps(v_f, vrow, t2, nt, v_inv_taps.data());
            } else {
              kt.quantize_f32_s8(v_f, vrow, t2 * nt, v_inv);
            }
          }
          for (std::int64_t ab = 0; ab < t2; ++ab) {
            interleave_k4(v_q4 + ab * nt, v_q4 + t2 * nt + ab * nt, v_q4 + 2 * t2 * nt + ab * nt,
                          v_q4 + 3 * t2 * nt + ab * nt,
                          v_blk + ((ab * gs + gi) * cq + cb) * nt * 4, nt);
          }
        }
        // The barrier above (every V quad is in v_blk; every thread is done
        // with the previous block's M rows) counts as scatter.
        phase_mark(ns_scatter);

        // Hadamard: per tap, one GEMM per slice against the pre-blocked U
        // (group gi's filters are rows [gi*kg, gi*kg+kg) of the tap's U
        // slice). A pruned tap (sparse-U skip flag) zero-fills its M rows
        // instead — exactly what GEMM against the all-zero slice returns.
        for (std::int64_t ab = 0; ab < t2; ++ab) {
          if (tap_mask != nullptr && tap_mask[ab] != 0) {
            std::memset(m_acc + (ab * K + k_lo) * nt, 0,
                        static_cast<std::size_t>((k_hi - k_lo) * nt) * sizeof(std::int32_t));
            continue;
          }
          for (std::int64_t s = s_lo; s < s_hi; ++s) {
            const std::int64_t k0 = slice_begin(s);
            kt.gemm_u8s8_s32_k4(slice_end(s) - k0, nt, cpad, ub + (ab * K + k0) * cpad,
                                v_blk + (ab * gs + s / per_group) * cq * nt * 4,
                                m_acc + (ab * K + k0) * nt);
          }
        }
        phase_mark(ns_gemm);
        if (k_lo == 0 && k_hi == K) {
          // The whole block (a team of 1): m_acc is tap-major ([t², K, nt]),
          // so the requant is one sweep, or one K*nt block per tap.
          if (per_tap) {
            kt.requant_s32_s8_taps(m_acc, m_q, t2, K * nt, m_mults.data());
          } else {
            kt.requant_s32_s8(m_acc, m_q, t2 * K * nt, m_mult);
          }
        } else {
          for (std::int64_t ab = 0; ab < t2; ++ab) {
            kt.requant_s32_s8(m_acc + (ab * K + k_lo) * nt, m_q + (ab * K + k_lo) * nt,
                              (k_hi - k_lo) * nt,
                              per_tap ? m_mults[static_cast<std::size_t>(ab)] : m_mult);
          }
        }
        phase_mark(ns_requant);

        // Inverse transform with the output quantization fused in, straight
        // to the int8 plane (edge tiles clipped inside the kernel).
        for (std::int64_t k = k_lo; k < k_hi; ++k) {
          const float bv = has_bias ? bias->at(k) : 0.F;
          kt.wino_gather_q_s8(m_q + k * nt, K * nt, sm_taps.data(), tr.at_mat.raw(), t, m, th, tw,
                              tile0, nt, oh, ow, bv, o_inv, stage + (n * K + k) * oh * ow);
        }
        phase_mark(ns_gather);
      }
    }
    if (timed) {
      phase_ns->scatter.fetch_add(ns_scatter, std::memory_order_relaxed);
      phase_ns->gemm.fetch_add(ns_gemm, std::memory_order_relaxed);
      phase_ns->requant.fetch_add(ns_requant, std::memory_order_relaxed);
      phase_ns->gather.fetch_add(ns_gather, std::memory_order_relaxed);
    }
  }

  if (reuse_storage != nullptr) {
    // Every input byte has been read; take over (or free-then-grow) the
    // donated buffer exactly like the flat path, then land the staged bytes.
    out.data = take_output_storage(reuse_storage, out_numel);
    std::memcpy(out.data.data(), stage, static_cast<std::size_t>(out_numel));
  }
  return out;
}

/// Wall-clock marks at the flat sequence's stage boundaries: its stages run
/// whole-tensor one after another, so one mark per boundary reports the same
/// scatter/gemm/requant/gather split the blocked executor does. A null
/// accumulator (every untraced forward) never reads the clock.
class PhaseClock {
 public:
  explicit PhaseClock(WinoPhaseNs* acc) : acc_(acc) {
    if (acc_ != nullptr) prev_ = std::chrono::steady_clock::now();
  }
  void mark(std::atomic<std::int64_t> WinoPhaseNs::*phase) {
    if (acc_ == nullptr) return;
    const auto now = std::chrono::steady_clock::now();
    (acc_->*phase).fetch_add(
        std::chrono::duration_cast<std::chrono::nanoseconds>(now - prev_).count(),
        std::memory_order_relaxed);
    prev_ = now;
  }

 private:
  WinoPhaseNs* acc_;
  std::chrono::steady_clock::time_point prev_{};
};

/// The flat Winograd sequence up to an fp32 output, over the [N, C, H, W]
/// int8 levels `in` (at `in_scale`) convolved at the stride-1 geometry `g`:
/// scatter and V quantize, the t²·groups GEMMs, M requant, then the inverse
/// transform with the bias joined in fp32. Dynamic V and M scales derive
/// from their whole-tensor abs-max here; the output quantization is the
/// caller's. Returns [N, K, oh, ow] floats from `arena`, owned by the
/// caller's scope. The caller has validated geometry, weights, tap vectors
/// and bias.
float* winograd_flat_f32(const std::int8_t* in, float in_scale, const ConvGeometry& g,
                         const WinogradWeightsS8& weights, const wino::Transforms& tr,
                         const WinogradStageScales& scales, const Tensor* bias,
                         PhaseClock& clock, ScratchArena& arena) {
  const std::int64_t oh = g.out_height(), ow = g.out_width();
  const std::int64_t t = tr.tile, m = tr.m, t2 = t * t;
  const std::int64_t th = (oh + m - 1) / m, tw = (ow + m - 1) / m;
  const std::int64_t tiles = g.batch * th * tw;
  const std::int64_t C = g.in_channels, K = g.out_channels;
  const float su = weights.scale;
  const auto& kt = simd::kernels();

  // V: dequantize each input tile on the fly (levels * scale — no full fp32
  // copy of the activation), transform in FP32, requantize to int8. The
  // per-plane scatter (staged dequant + Bt d B + tile-major store) is a
  // dispatched kernel; lanes run across tiles on the SIMD backends.
  float* v_f = arena.alloc<float>(t2 * C * tiles);
#pragma omp parallel for schedule(static)
  for (std::int64_t nc = 0; nc < g.batch * C; ++nc) {
    const std::int64_t n = nc / C, c = nc % C;
    kt.wino_scatter_f32(in + nc * g.height * g.width, g.height, g.width, g.pad, in_scale,
                        tr.bt_mat.raw(), t, m, th, tw, v_f + c * tiles + n * th * tw, C * tiles);
  }
  float sv = scales.input_transformed;
  if (sv <= 0.F) {
    float amax = 0.F;
    for (std::int64_t i = 0; i < t2 * C * tiles; ++i) amax = std::max(amax, std::fabs(v_f[i]));
    sv = quant::scale_for(amax, quant::QuantSpec{8});
  }
  std::int8_t* v_q = arena.alloc<std::int8_t>(t2 * C * tiles);
  if (!scales.input_transformed_taps.empty()) {
    // v_f is [t², C, tiles]: each tap's C*tiles run quantizes at its own
    // scale. Elementwise, so any split is bit-identical to the blocked path.
    const std::int64_t per_tap_v = C * tiles;
#pragma omp parallel for schedule(static)
    for (std::int64_t ab = 0; ab < t2; ++ab) {
      kt.quantize_f32_s8(v_f + ab * per_tap_v, v_q + ab * per_tap_v, per_tap_v,
                         1.F / scales.input_transformed_taps[static_cast<std::size_t>(ab)]);
    }
  } else {
    const float v_inv = 1.F / sv;
    parallel_flat(t2 * C * tiles, [&](std::int64_t begin, std::int64_t len) {
      kt.quantize_f32_s8(v_f + begin, v_q + begin, len, v_inv);
    });
  }
  clock.mark(&WinoPhaseNs::scatter);

  // U: the one stored copy is the blocked executor's offset-binary
  // [t², K, Cpad]. Unblock it into the [t², K, C/g] int8 levels the GEMMs
  // below read: byte - 128, pad lanes dropped.
  const std::int64_t cg = weights.in_channels;  // channels per group
  const std::int64_t cpad = weights.padded_in_channels();
  std::int8_t* u = arena.alloc<std::int8_t>(t2 * K * cg);
#pragma omp parallel for schedule(static)
  for (std::int64_t abk = 0; abk < t2 * K; ++abk) {
    const std::uint8_t* src = weights.u_blocked.data() + abk * cpad;
    for (std::int64_t c = 0; c < cg; ++c) {
      u[abk * cg + c] = static_cast<std::int8_t>(static_cast<std::int32_t>(src[c]) - 128);
    }
  }

  // Hadamard stage: t² int8 GEMMs accumulating in int32 — one per conv group
  // (groups == 1 is the classic single GEMM per tap). Group gi consumes its
  // channel slice of V ([t², C, tiles] keeps group channels adjacent) against
  // its filter rows of U; a pruned tap (sparse-U) zero-fills instead.
  const std::int64_t gs = g.groups;
  const std::int64_t kg = K / gs;  // filters per group
  std::int32_t* m_acc = arena.alloc<std::int32_t>(t2 * K * tiles);
#pragma omp parallel for schedule(static)
  for (std::int64_t idx = 0; idx < t2 * gs; ++idx) {
    const std::int64_t xy = idx / gs, gi = idx % gs;
    if (!weights.tap_mask.empty() && weights.tap_mask[static_cast<std::size_t>(xy)] != 0) {
      if (gi == 0) {
        std::memset(m_acc + xy * K * tiles, 0,
                    static_cast<std::size_t>(K * tiles) * sizeof(std::int32_t));
      }
      continue;
    }
    gemm_s8_s32(kg, tiles, cg, u + (xy * K + gi * kg) * cg, v_q + xy * C * tiles + gi * cg * tiles,
                m_acc + (xy * K + gi * kg) * tiles);
  }
  clock.mark(&WinoPhaseNs::gemm);

  // M requantized to int8 (scale sm), then output transform in FP32.
  const float m_acc_scale = su * sv;
  float sm = scales.hadamard;
  if (sm <= 0.F) {
    std::int32_t amax = 0;
    for (std::int64_t i = 0; i < t2 * K * tiles; ++i) amax = std::max(amax, std::abs(m_acc[i]));
    sm = std::max(m_acc_scale * static_cast<float>(amax), 1e-12F) / 127.F;
  }
  const auto m_mult = quant::quantize_multiplier(static_cast<double>(m_acc_scale) / sm);

  // Per-tap tables: the gather always takes a t²-long M-scale array (splat
  // when per-tensor); the requant switches to a per-tap multiplier table only
  // when some stage carries a tap vector. Dynamic scales are always derived
  // per-tensor — tap vectors only ever arrive frozen from training.
  const bool per_tap = !weights.tap_scales.empty() || !scales.input_transformed_taps.empty() ||
                       !scales.hadamard_taps.empty();
  std::vector<float> sm_taps = scales.hadamard_taps.empty()
                                   ? std::vector<float>(static_cast<std::size_t>(t2), sm)
                                   : scales.hadamard_taps;

  // Requantize the whole Hadamard buffer flat to int8 levels (the gather then
  // streams a quarter of the bytes), and run the per-plane output transform
  // as a dispatched kernel.
  std::int8_t* m_q = arena.alloc<std::int8_t>(t2 * K * tiles);
  if (per_tap) {
    const std::vector<float> su_taps =
        weights.tap_scales.empty() ? std::vector<float>(static_cast<std::size_t>(t2), su)
                                   : weights.tap_scales;
    const std::vector<float> sv_taps =
        scales.input_transformed_taps.empty()
            ? std::vector<float>(static_cast<std::size_t>(t2), sv)
            : scales.input_transformed_taps;
    std::vector<quant::FixedPointMultiplier> m_mults(static_cast<std::size_t>(t2));
    for (std::int64_t ab = 0; ab < t2; ++ab) {
      const auto i = static_cast<std::size_t>(ab);
      m_mults[i] = quant::quantize_multiplier(
          static_cast<double>(su_taps[i] * sv_taps[i]) / sm_taps[i]);
    }
    // m_acc is [t², K, tiles]: one contiguous K*tiles block per table entry.
    const std::int64_t per_tap_m = K * tiles;
#pragma omp parallel for schedule(static)
    for (std::int64_t ab = 0; ab < t2; ++ab) {
      kt.requant_s32_s8(m_acc + ab * per_tap_m, m_q + ab * per_tap_m, per_tap_m,
                        m_mults[static_cast<std::size_t>(ab)]);
    }
  } else {
    parallel_flat(t2 * K * tiles, [&](std::int64_t begin, std::int64_t len) {
      kt.requant_s32_s8(m_acc + begin, m_q + begin, len, m_mult);
    });
  }
  clock.mark(&WinoPhaseNs::requant);

  float* out_f = arena.alloc<float>(g.batch * K * oh * ow);
  const bool has_bias = bias != nullptr && !bias->empty();
#pragma omp parallel for schedule(static)
  for (std::int64_t nk = 0; nk < g.batch * K; ++nk) {
    const std::int64_t n = nk / K, k = nk % K;
    // The output transform runs in FP32, so the bias joins there, before the
    // final requantization — same semantics as the training-time pipeline.
    const float bv = has_bias ? bias->at(k) : 0.F;
    kt.wino_gather_f32(m_q + k * tiles + n * th * tw, K * tiles, sm_taps.data(), tr.at_mat.raw(),
                       t, m, th, tw, oh, ow, bv, out_f + nk * oh * ow);
  }
  return out_f;
}

/// Quantize a conv's fp32 output to int8 at `scale`, derived from the
/// output's abs-max when not frozen, into the donated or a fresh buffer. The
/// caller has fully consumed its input by now, so a donated buffer aliasing
/// it is safe to take over.
QTensor quantize_output(const float* out_f, const Shape& shape, float scale,
                        std::vector<std::int8_t>* reuse_storage) {
  const std::int64_t n = numel(shape);
  if (scale <= 0.F) {
    float amax = 0.F;
    for (std::int64_t i = 0; i < n; ++i) amax = std::max(amax, std::fabs(out_f[i]));
    scale = quant::scale_for(amax, quant::QuantSpec{8});
  }
  QTensor out;
  out.shape = shape;
  out.scale = scale;
  out.data = take_output_storage(reuse_storage, n);
  const float inv = 1.F / scale;
  const auto& kt = simd::kernels();
  parallel_flat(n, [&](std::int64_t begin, std::int64_t len) {
    kt.quantize_f32_s8(out_f + begin, out.data.data() + begin, len, inv);
  });
  return out;
}

/// Whether a prepared U fits the conv it runs: channels, groups, tile, and
/// the blocked U's length, which both executors index unchecked.
bool u_matches(const WinogradWeightsS8& w, const ConvGeometry& g, std::int64_t tile) {
  return w.out_channels == g.out_channels && w.groups == g.groups &&
         w.in_channels * g.groups == g.in_channels && w.tile == tile &&
         static_cast<std::int64_t>(w.u_blocked.size()) ==
             tile * tile * w.out_channels * w.padded_in_channels();
}

}  // namespace

QTensor winograd_conv_s8_prepared(const QTensor& input, const WinogradWeightsS8& weights,
                                  const ConvGeometry& g, const wino::Transforms& tr,
                                  const WinogradStageScales& scales, const Tensor* bias,
                                  std::vector<std::int8_t>* reuse_storage,
                                  WinoPhaseNs* phase_ns) {
  g.validate();
  if (g.stride != 1) {
    throw std::invalid_argument(
        "winograd_conv_s8: stride must be 1 (strided layers take the polyphase path)");
  }
  if (g.kernel != tr.r) throw std::invalid_argument("winograd_conv_s8: kernel != transform r");
  if (!u_matches(weights, g, tr.tile)) {
    throw std::invalid_argument("winograd_conv_s8: prepared weights do not match geometry");
  }
  if (input.shape != Shape{g.batch, g.in_channels, g.height, g.width}) {
    throw std::invalid_argument("winograd_conv_s8: input shape " + to_string(input.shape) +
                                " does not match geometry");
  }
  const std::int64_t t2v = tr.tile * tr.tile;
  const auto check_taps = [&](const std::vector<float>& v, const char* stage) {
    if (v.empty()) return;
    if (static_cast<std::int64_t>(v.size()) != t2v) {
      throw std::invalid_argument("winograd_conv_s8: " + std::string(stage) + " carries " +
                                  std::to_string(v.size()) + " tap scales for a t*t of " +
                                  std::to_string(t2v));
    }
    for (const float s : v) {
      if (s <= 0.F) {
        throw std::invalid_argument("winograd_conv_s8: " + std::string(stage) +
                                    " tap scales must all be positive");
      }
    }
  };
  check_taps(scales.weights_transformed_taps, "weights_transformed");
  check_taps(scales.input_transformed_taps, "input_transformed");
  check_taps(scales.hadamard_taps, "hadamard");
  if (!scales.weights_transformed_taps.empty()) {
    if (scales.weights_transformed_taps != weights.tap_scales) {
      // The U levels were baked per tap at prepare time; a different frozen
      // tap vector here would silently disagree with them.
      throw std::invalid_argument(
          "winograd_conv_s8: per-tap weights_transformed scales do not match the prepared "
          "weights");
    }
  } else if (scales.weights_transformed > 0.F && scales.weights_transformed != weights.scale) {
    // The U levels were baked at prepare time; a different frozen scale here
    // would silently disagree with them.
    throw std::invalid_argument(
        "winograd_conv_s8: weights_transformed scale does not match the prepared weights");
  }
  // Frozen internal scales let the stages fuse (no whole-tensor abs-max
  // between them): take the streaming blocked executor. Any dynamic scale —
  // or the set_winograd_blocked_enabled(false) override — runs the flat path.
  if (scales.input_transformed > 0.F && scales.hadamard > 0.F && scales.output > 0.F &&
      winograd_blocked_enabled()) {
    return winograd_conv_s8_blocked(input, weights, g, tr, scales, bias, reuse_storage, phase_ns);
  }
  if (bias != nullptr && !bias->empty() && bias->numel() != g.out_channels) {
    throw std::invalid_argument("winograd_conv_s8: bias/channel mismatch");
  }
  ScratchArena& arena = ScratchArena::for_thread();
  ScratchArena::Scope frame(arena);
  PhaseClock clock(phase_ns);
  const float* out_f =
      winograd_flat_f32(input.data.data(), input.scale, g, weights, tr, scales, bias, clock, arena);
  const Shape out_shape{g.batch, g.out_channels, g.out_height(), g.out_width()};
  QTensor out = quantize_output(out_f, out_shape, scales.output, reuse_storage);
  clock.mark(&WinoPhaseNs::gather);
  return out;
}

namespace {

// The five 3x3 taps outside the even/even parity class, in the fixed lowering
// order the rect_wt pack and the patch lowering both follow.
constexpr std::int64_t kRectTaps[5][2] = {{0, 1}, {2, 1}, {1, 0}, {1, 2}, {1, 1}};

}  // namespace

StridedWinogradWeightsS8 prepare_strided_winograd_weights_s8(const Tensor& weights_fp32,
                                                             const wino::Transforms& tr,
                                                             float u00_scale, float rect_scale) {
  if (weights_fp32.dim() != 4 || weights_fp32.size(2) != 3 || weights_fp32.size(3) != 3) {
    throw std::invalid_argument("prepare_strided_winograd_weights_s8: weights must be [K, C, 3, 3]");
  }
  if (tr.r != 2) {
    throw std::invalid_argument(
        "prepare_strided_winograd_weights_s8: transforms must be F(m, 2) for the 2x2 phase");
  }
  StridedWinogradWeightsS8 w;
  const std::int64_t K = weights_fp32.size(0), C = weights_fp32.size(1);

  // Phase (0,0): the even/even 2x2 sub-filter g00[u,v] = g[2u, 2v], prepared
  // exactly like a dense F(m, 2) layer (transform + quantize + block).
  Tensor g00 = Tensor::zeros({K, C, 2, 2});
  for (std::int64_t k = 0; k < K; ++k) {
    for (std::int64_t c = 0; c < C; ++c) {
      for (std::int64_t u = 0; u < 2; ++u) {
        for (std::int64_t v = 0; v < 2; ++v) {
          g00.at(((k * C + c) * 2 + u) * 2 + v) = weights_fp32.at(((k * C + c) * 3 + 2 * u) * 3 + 2 * v);
        }
      }
    }
  }
  w.u00 = prepare_winograd_weights_s8(g00, tr, u00_scale);

  // Rect phases: the remaining five taps, packed [5*C, K] in lowering order
  // (channel-major, tap-minor) so the per-forward GEMM consumes them as one
  // im2row operand.
  float amax = 0.F;
  for (std::int64_t k = 0; k < K; ++k) {
    for (std::int64_t c = 0; c < C; ++c) {
      for (const auto& ab : kRectTaps) {
        amax = std::max(amax, std::fabs(weights_fp32.at(((k * C + c) * 3 + ab[0]) * 3 + ab[1])));
      }
    }
  }
  w.rect_scale = rect_scale > 0.F ? rect_scale : quant::scale_for(amax, quant::QuantSpec{8});
  count_weight_repack();
  w.rect_wt.resize(static_cast<std::size_t>(5 * C * K));
  for (std::int64_t c = 0; c < C; ++c) {
    for (std::int64_t tap = 0; tap < 5; ++tap) {
      for (std::int64_t k = 0; k < K; ++k) {
        const float v =
            weights_fp32.at(((k * C + c) * 3 + kRectTaps[tap][0]) * 3 + kRectTaps[tap][1]);
        w.rect_wt[static_cast<std::size_t>((c * 5 + tap) * K + k)] = clamp_s8(v / w.rect_scale);
      }
    }
  }
  return w;
}

QTensor strided_winograd_conv_s8_prepared(const QTensor& input,
                                          const StridedWinogradWeightsS8& weights,
                                          const ConvGeometry& g, const wino::Transforms& tr,
                                          const WinogradStageScales& scales, const Tensor* bias,
                                          std::vector<std::int8_t>* reuse_storage) {
  g.validate();
  if (g.stride != 2 || g.kernel != 3 || g.groups != 1) {
    throw std::invalid_argument("strided_winograd_conv_s8: requires stride 2, kernel 3, groups 1");
  }
  if (tr.r != 2 || weights.u00.tile != tr.tile) {
    throw std::invalid_argument("strided_winograd_conv_s8: transforms must match the 2x2 phase");
  }
  const std::int64_t oh = g.out_height(), ow = g.out_width();
  const std::int64_t C = g.in_channels, K = g.out_channels;
  // Even/even subplane of the PADDED input: e[u, v] = xp[2u, 2v], so the 3x3
  // stride-2 conv's (0,0)-parity taps become a stride-1 VALID 2x2 conv on e.
  // ceil((H + 2p) / 2) rows always yields exactly oh = (H + 2p - 3)/2 + 1
  // valid outputs (h00 - 1 == oh for every parity of H + 2p).
  ConvGeometry g00 = g;
  g00.height = (g.height + 2 * g.pad + 1) / 2;
  g00.width = (g.width + 2 * g.pad + 1) / 2;
  g00.kernel = 2;
  g00.pad = 0;
  g00.stride = 1;
  if (g00.out_height() != oh || g00.out_width() != ow) {
    throw std::logic_error("strided_winograd_conv_s8: polyphase geometry mismatch");
  }
  if (!u_matches(weights.u00, g00, tr.tile)) {
    throw std::invalid_argument("strided_winograd_conv_s8: prepared weights do not match geometry");
  }
  if (static_cast<std::int64_t>(weights.rect_wt.size()) != wa::numel({5 * C, K})) {
    throw std::invalid_argument(
        "strided_winograd_conv_s8: rect-phase weights must hold 5*C*K levels");
  }
  if (!scales.input_transformed_taps.empty() || !scales.hadamard_taps.empty() ||
      !scales.weights_transformed_taps.empty()) {
    throw std::invalid_argument("strided_winograd_conv_s8: per-tap scales are not supported");
  }
  if (scales.weights_transformed > 0.F && scales.weights_transformed != weights.u00.scale) {
    throw std::invalid_argument(
        "strided_winograd_conv_s8: weights_transformed scale does not match the prepared weights");
  }
  if (input.shape != Shape{g.batch, C, g.height, g.width}) {
    throw std::invalid_argument("strided_winograd_conv_s8: input shape " + to_string(input.shape) +
                                " does not match geometry");
  }
  if (bias != nullptr && !bias->empty() && bias->numel() != K) {
    throw std::invalid_argument("strided_winograd_conv_s8: bias/channel mismatch");
  }

  ScratchArena& arena = ScratchArena::for_thread();
  ScratchArena::Scope frame(arena);
  const std::int64_t h00 = g00.height, w00 = g00.width;
  std::int8_t* sub = arena.alloc<std::int8_t>(g.batch * C * h00 * w00);
#pragma omp parallel for schedule(static)
  for (std::int64_t nc = 0; nc < g.batch * C; ++nc) {
    const std::int8_t* plane = input.data.data() + nc * g.height * g.width;
    std::int8_t* dst = sub + nc * h00 * w00;
    for (std::int64_t u = 0; u < h00; ++u) {
      const std::int64_t ii = 2 * u - g.pad;
      for (std::int64_t v = 0; v < w00; ++v) {
        const std::int64_t jj = 2 * v - g.pad;
        dst[u * w00 + v] = (ii >= 0 && ii < g.height && jj >= 0 && jj < g.width)
                               ? plane[ii * g.width + jj]
                               : std::int8_t{0};
      }
    }
  }

  // Phase (0,0) runs the flat Winograd sequence on the subplanes (pad
  // already baked into e), stopped at fp32 so the rect-phase partials can
  // join before the single output quantize.
  PhaseClock untimed(nullptr);
  float* out_f =
      winograd_flat_f32(sub, input.scale, g00, weights.u00, tr, scales, bias, untimed, arena);

  // Rect phases: the five odd-parity taps lower to one [rows, 5*C] im2row
  // GEMM straight from the (strided) original input, whose int32 partials
  // join the fp32 plane before quantization.
  const std::int64_t rows = g.batch * oh * ow;
  const std::int64_t patch = 5 * C;
  std::int8_t* lowered = arena.alloc<std::int8_t>(rows * patch);
#pragma omp parallel for collapse(2) schedule(static)
  for (std::int64_t n = 0; n < g.batch; ++n) {
    for (std::int64_t i = 0; i < oh; ++i) {
      for (std::int64_t j = 0; j < ow; ++j) {
        std::int8_t* dst = lowered + ((n * oh + i) * ow + j) * patch;
        for (std::int64_t c = 0; c < C; ++c) {
          const std::int8_t* plane = input.data.data() + (n * C + c) * g.height * g.width;
          for (const auto& ab : kRectTaps) {
            const std::int64_t ii = 2 * i + ab[0] - g.pad;
            const std::int64_t jj = 2 * j + ab[1] - g.pad;
            *dst++ = (ii >= 0 && ii < g.height && jj >= 0 && jj < g.width)
                         ? plane[ii * g.width + jj]
                         : std::int8_t{0};
          }
        }
      }
    }
  }
  std::int32_t* racc = arena.alloc<std::int32_t>(rows * K);
  gemm_s8_s32(rows, K, patch, lowered, weights.rect_wt.data(), racc);

  const float rect_acc_scale = input.scale * weights.rect_scale;
#pragma omp parallel for collapse(2) schedule(static)
  for (std::int64_t n = 0; n < g.batch; ++n) {
    for (std::int64_t i = 0; i < oh; ++i) {
      for (std::int64_t j = 0; j < ow; ++j) {
        const std::int32_t* src = racc + ((n * oh + i) * ow + j) * K;
        for (std::int64_t k = 0; k < K; ++k) {
          out_f[((n * K + k) * oh + i) * ow + j] += static_cast<float>(src[k]) * rect_acc_scale;
        }
      }
    }
  }

  // Both the subplane build and the rect lowering have fully consumed the
  // input, so a donated buffer aliasing it is safe to take over.
  return quantize_output(out_f, Shape{g.batch, K, oh, ow}, scales.output, reuse_storage);
}

}  // namespace wa::backend
