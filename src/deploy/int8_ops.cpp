#include "deploy/int8_ops.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "backend/conv_kernels_s8.hpp"
#include "backend/perf_counters.hpp"
#include "backend/simd/kernel_table.hpp"
#include "quant/requant.hpp"

namespace wa::deploy {

using backend::QTensor;

namespace {

template <typename T>
std::int8_t sat8(T q) {
  return static_cast<std::int8_t>(q > 127 ? 127 : (q < -127 ? -127 : q));
}

}  // namespace

void apply_level_map_s8(const std::int8_t* src, std::int8_t* dst, std::int64_t n,
                        const LevelMapS8& map, bool relu) {
  const std::int8_t* at = map.data() + 128;
  if (relu) {
    for (std::int64_t i = 0; i < n; ++i) dst[i] = std::max<std::int8_t>(at[src[i]], 0);
  } else {
    for (std::int64_t i = 0; i < n; ++i) dst[i] = at[src[i]];
  }
}

LevelMapS8 requant_level_map(quant::FixedPointMultiplier mult, bool identity) {
  return make_level_map(
      [&](int x) { return sat8(identity ? x : quant::apply_multiplier(x, mult)); });
}

QTensor relu_s8(QTensor x) {
  for (auto& v : x.data) v = std::max<std::int8_t>(v, 0);
  return x;
}

QTensor max_pool_s8(const QTensor& x, std::int64_t kernel, std::int64_t stride) {
  if (x.shape.size() != 4) throw std::invalid_argument("max_pool_s8: expects [N,C,H,W]");
  if (kernel < 1 || stride < 1) throw std::invalid_argument("max_pool_s8: bad kernel/stride");
  const std::int64_t n = x.shape[0], c = x.shape[1], h = x.shape[2], w = x.shape[3];
  const std::int64_t oh = (h - kernel) / stride + 1;
  const std::int64_t ow = (w - kernel) / stride + 1;
  if (oh < 1 || ow < 1) throw std::invalid_argument("max_pool_s8: input smaller than kernel");

  QTensor out;
  out.shape = Shape{n, c, oh, ow};
  out.scale = x.scale;
  out.data.resize(static_cast<std::size_t>(n * c * oh * ow));
  for (std::int64_t ni = 0; ni < n; ++ni) {
    for (std::int64_t ci = 0; ci < c; ++ci) {
      const std::int8_t* plane = x.data.data() + (ni * c + ci) * h * w;
      std::int8_t* oplane = out.data.data() + (ni * c + ci) * oh * ow;
      for (std::int64_t i = 0; i < oh; ++i) {
        for (std::int64_t j = 0; j < ow; ++j) {
          std::int8_t best = std::numeric_limits<std::int8_t>::min();
          for (std::int64_t a = 0; a < kernel; ++a) {
            for (std::int64_t b = 0; b < kernel; ++b) {
              best = std::max(best, plane[(i * stride + a) * w + (j * stride + b)]);
            }
          }
          oplane[i * ow + j] = best;
        }
      }
    }
  }
  return out;
}

QTensor global_avg_pool_s8(const QTensor& x) {
  if (x.shape.size() != 4) throw std::invalid_argument("global_avg_pool_s8: expects [N,C,H,W]");
  const std::int64_t n = x.shape[0], c = x.shape[1], hw = x.shape[2] * x.shape[3];
  QTensor out;
  out.shape = Shape{n, c};
  out.scale = x.scale;
  out.data.resize(static_cast<std::size_t>(n * c));
  for (std::int64_t i = 0; i < n * c; ++i) {
    std::int32_t acc = 0;
    const std::int8_t* src = x.data.data() + i * hw;
    for (std::int64_t j = 0; j < hw; ++j) acc += src[j];
    out.data[static_cast<std::size_t>(i)] = static_cast<std::int8_t>(std::clamp<std::int32_t>(
        static_cast<std::int32_t>(
            std::nearbyint(static_cast<double>(acc) / static_cast<double>(hw))),
        -127, 127));
  }
  return out;
}

QTensor flatten_s8(QTensor x) {
  if (x.shape.empty()) throw std::invalid_argument("flatten_s8: scalar input");
  std::int64_t features = 1;
  for (std::size_t i = 1; i < x.shape.size(); ++i) features *= x.shape[i];
  x.shape = Shape{x.shape[0], features};
  return x;
}

LinearWeightsS8 prepare_linear_weights_s8(const QTensor& weights) {
  if (weights.shape.size() != 2) {
    throw std::invalid_argument("prepare_linear_weights_s8: expects 2-d [O, F] weights");
  }
  backend::count_weight_repack();
  LinearWeightsS8 w;
  w.out_features = weights.shape[0];
  w.in_features = weights.shape[1];
  w.scale = weights.scale;
  // Weights arrive [O, F]; transpose to [F, O] for the row-major GEMM.
  w.wt.resize(static_cast<std::size_t>(w.in_features * w.out_features));
  for (std::int64_t oo = 0; oo < w.out_features; ++oo)
    for (std::int64_t ff = 0; ff < w.in_features; ++ff)
      w.wt[static_cast<std::size_t>(ff * w.out_features + oo)] =
          weights.data[static_cast<std::size_t>(oo * w.in_features + ff)];
  return w;
}

QTensor linear_s8_prepared(const QTensor& x, const LinearWeightsS8& weights, const Tensor& bias,
                           float out_scale) {
  if (x.shape.size() != 2) throw std::invalid_argument("linear_s8_prepared: expects 2-d input");
  const std::int64_t n = x.shape[0], f = x.shape[1];
  const std::int64_t o = weights.out_features;
  if (weights.in_features != f) throw std::invalid_argument("linear_s8_prepared: feature mismatch");

  std::vector<std::int32_t> acc(static_cast<std::size_t>(n * o));
  backend::gemm_s8_s32(n, o, f, x.data.data(), weights.wt.data(), acc.data());

  const float acc_scale = x.scale * weights.scale;
  if (!bias.empty()) {
    if (bias.numel() != o) throw std::invalid_argument("linear_s8_prepared: bias/output mismatch");
    // One int32 bias level per output, at the accumulator scale.
    std::vector<std::int32_t> bias_q(static_cast<std::size_t>(o));
    for (std::int64_t oo = 0; oo < o; ++oo) {
      bias_q[static_cast<std::size_t>(oo)] =
          static_cast<std::int32_t>(std::nearbyint(bias.at(oo) / acc_scale));
    }
    for (std::int64_t ni = 0; ni < n; ++ni) {
      std::int32_t* row = acc.data() + ni * o;
      for (std::int64_t oo = 0; oo < o; ++oo) row[oo] += bias_q[static_cast<std::size_t>(oo)];
    }
  }

  float oscale = out_scale;
  if (oscale <= 0.F) {
    std::int32_t amax = 0;
    for (std::int32_t v : acc) amax = std::max(amax, std::abs(v));
    oscale = std::max(acc_scale * static_cast<float>(amax), 1e-12F) / 127.F;
  }
  const auto mult = quant::quantize_multiplier(static_cast<double>(acc_scale) / oscale);

  QTensor out;
  out.shape = Shape{n, o};
  out.scale = oscale;
  out.data.resize(static_cast<std::size_t>(n * o));
  // [N, O] accumulators and [N, O] output agree in layout, so the dispatched
  // fixed-point requantization loop runs over the whole buffer flat.
  backend::simd::kernels().requant_s32_s8(acc.data(), out.data.data(), n * o, mult);
  return out;
}

RequantRatio make_requant_ratio(float from_scale, float to_scale) {
  if (from_scale <= 0.F || to_scale <= 0.F) {
    throw std::invalid_argument("make_requant_ratio: scales must be positive");
  }
  RequantRatio r;
  const double ratio = static_cast<double>(from_scale) / static_cast<double>(to_scale);
  r.identity = std::fabs(ratio - 1.0) < 1e-9;
  if (!r.identity) {
    r.mult = quant::quantize_multiplier(ratio);
    r.levels = requant_level_map(r.mult, false);
  }
  return r;
}

namespace {

/// Shared join: `out` may alias `a` and/or `b` — each element is read before
/// its slot is written, so the aliased and fresh-buffer paths are
/// bit-identical. The dispatched kernel takes a null multiplier for the
/// exact ratio-1 identity.
void add_rows_s8(const std::int8_t* a, const std::int8_t* b, std::int8_t* out, std::size_t n,
                 const RequantRatio& a_ratio, const RequantRatio& b_ratio, bool relu) {
  backend::simd::kernels().residual_add_s8(a, b, out, static_cast<std::int64_t>(n),
                                           a_ratio.identity ? nullptr : &a_ratio.mult,
                                           b_ratio.identity ? nullptr : &b_ratio.mult, relu);
}

}  // namespace

QTensor add_s8(const QTensor& lhs, const QTensor& rhs, const RequantRatio& lhs_ratio,
               const RequantRatio& rhs_ratio, float out_scale, bool relu) {
  if (lhs.shape != rhs.shape) {
    throw std::invalid_argument("add_s8: branch shapes " + to_string(lhs.shape) + " vs " +
                                to_string(rhs.shape) + " do not match");
  }
  QTensor out;
  out.shape = lhs.shape;
  out.scale = out_scale;
  out.data.resize(lhs.data.size());
  add_rows_s8(lhs.data.data(), rhs.data.data(), out.data.data(), lhs.data.size(), lhs_ratio,
              rhs_ratio, relu);
  return out;
}

void add_s8_into(QTensor& dst, const QTensor& other, const RequantRatio& dst_ratio,
                 const RequantRatio& other_ratio, float out_scale, bool relu) {
  if (dst.shape != other.shape) {
    throw std::invalid_argument("add_s8_into: branch shapes " + to_string(dst.shape) + " vs " +
                                to_string(other.shape) + " do not match");
  }
  add_rows_s8(dst.data.data(), other.data.data(), dst.data.data(), dst.data.size(), dst_ratio,
              other_ratio, relu);
  dst.scale = out_scale;
}

QTensor concat_s8(const QTensor& lhs, const QTensor& rhs, const RequantRatio& lhs_ratio,
                  const RequantRatio& rhs_ratio, float out_scale, bool relu) {
  if (lhs.shape.size() != 4 || rhs.shape.size() != 4 || lhs.shape[0] != rhs.shape[0] ||
      lhs.shape[2] != rhs.shape[2] || lhs.shape[3] != rhs.shape[3]) {
    throw std::invalid_argument("concat_s8: branch shapes " + to_string(lhs.shape) + " vs " +
                                to_string(rhs.shape) + " cannot concatenate on channels");
  }
  const std::int64_t n = lhs.shape[0], c1 = lhs.shape[1], c2 = rhs.shape[1];
  const std::int64_t hw = lhs.shape[2] * lhs.shape[3];
  QTensor out;
  out.shape = Shape{n, c1 + c2, lhs.shape[2], lhs.shape[3]};
  out.scale = out_scale;
  out.data.resize(static_cast<std::size_t>(n * (c1 + c2) * hw));
  // Each branch lands level-aligned in its channel range through its
  // ratio's requant map (a + 0 with the zero ratio identity would change
  // the clamp path — reuse requant semantics directly instead).
#pragma omp parallel for schedule(static) if (n > 1)
  for (std::int64_t b = 0; b < n; ++b) {
    apply_level_map_s8(lhs.data.data() + b * c1 * hw, out.data.data() + b * (c1 + c2) * hw,
                       c1 * hw, lhs_ratio.levels, relu);
    apply_level_map_s8(rhs.data.data() + b * c2 * hw,
                       out.data.data() + (b * (c1 + c2) + c1) * hw, c2 * hw,
                       rhs_ratio.levels, relu);
  }
  return out;
}

QTensor rescale_s8(QTensor x, float target_scale) {
  if (target_scale <= 0.F || std::fabs(x.scale - target_scale) < 1e-12F) return x;
  const float ratio = x.scale / target_scale;
  const LevelMapS8 map = make_level_map([ratio](int v) {
    const float q = std::nearbyint(static_cast<float>(v) * ratio);
    return static_cast<std::int8_t>(std::min(127.F, std::max(-127.F, q)));
  });
  apply_level_map_s8(x.data.data(), x.data.data(), static_cast<std::int64_t>(x.data.size()),
                     map, false);
  x.scale = target_scale;
  return x;
}

void requant_s8_(QTensor& x, const RequantRatio& ratio, float out_scale) {
  apply_level_map_s8(x.data.data(), x.data.data(), static_cast<std::int64_t>(x.data.size()),
                     ratio.levels, false);
  x.scale = out_scale;
}

ChannelAffineS8 prepare_channel_affine_s8(const Tensor& scale, const Tensor& bias,
                                          float in_scale, float out_scale) {
  if (scale.numel() != bias.numel()) {
    throw std::invalid_argument("prepare_channel_affine_s8: scale/bias size mismatch");
  }
  if (in_scale <= 0.F || out_scale <= 0.F) {
    throw std::invalid_argument("prepare_channel_affine_s8: scales must be positive");
  }
  ChannelAffineS8 p;
  p.out_scale = out_scale;
  const std::int64_t c = scale.numel();
  p.m0.resize(static_cast<std::size_t>(c));
  p.exp.resize(static_cast<std::size_t>(c));
  p.bias_q.resize(static_cast<std::size_t>(c));
  for (std::int64_t k = 0; k < c; ++k) {
    const auto i = static_cast<std::size_t>(k);
    if (!std::isfinite(scale.at(k)) || !std::isfinite(bias.at(k))) {
      // A NaN scale would become m0 = 0 and a NaN bias llround(NaN); the
      // level maps would bake either into every level of the channel.
      throw std::invalid_argument("prepare_channel_affine_s8: channel " + std::to_string(k) +
                                  " has a non-finite scale or bias");
    }
    const double ratio = static_cast<double>(scale.at(k)) * in_scale / out_scale;
    const double mag = std::fabs(ratio);
    std::int64_t m = 0;
    int e = 0;
    if (mag >= 1e-30) {  // below that the channel collapsed — only the bias survives
      const auto fp = quant::quantize_multiplier(mag);
      m = fp.m0;              // mag = m * 2^-(31 + fp.shift)
      e = 31 + fp.shift;
      if (e < 0) {
        // Absurdly hot channel (ratio >= 2^31): any nonzero input saturates
        // the int8 output anyway, so pin the multiplier at the int32 rail.
        m = std::numeric_limits<std::int32_t>::max();
        e = 0;
      } else if (e > 46) {
        // Keep 2^exp (and the pre-scaled bias) comfortably inside int64.
        m = std::llround(std::ldexp(static_cast<double>(m), 46 - e));
        e = 46;
      }
    }
    p.m0[i] = static_cast<std::int32_t>(std::min<std::int64_t>(
        m, std::numeric_limits<std::int32_t>::max()));
    if (ratio < 0) p.m0[i] = -p.m0[i];
    p.exp[i] = static_cast<std::int8_t>(e);
    const double b = static_cast<double>(bias.at(k)) / out_scale * std::ldexp(1.0, e);
    p.bias_q[i] = std::llround(std::min(1e17, std::max(-1e17, b)));
  }
  fill_affine_levels(p);
  return p;
}

void fill_affine_levels(ChannelAffineS8& p) {
  p.levels.resize(p.m0.size());
  for (std::size_t k = 0; k < p.m0.size(); ++k) {
    const std::int64_t m = p.m0[k];
    const int e = p.exp[k];
    const std::int64_t bq = p.bias_q[k];
    const std::int64_t half = e == 0 ? 0 : std::int64_t{1} << (e - 1);
    p.levels[k] = make_level_map([&](int x) {
      const std::int64_t v = m * x + bq;
      // Round half away from zero, one single rounding for the whole affine.
      return sat8(e == 0 ? v : (v >= 0 ? v + half : v - half) / (std::int64_t{1} << e));
    });
  }
}

namespace {

/// Shared affine kernel: each (sample, channel) plane through its channel's
/// level map; `dst` may alias `src`.
void channel_affine_rows_s8(const std::int8_t* src, std::int8_t* dst, std::int64_t n,
                            std::int64_t c, std::int64_t hw, const ChannelAffineS8& p,
                            bool relu) {
#pragma omp parallel for collapse(2) schedule(static) if (n * c >= 16)
  for (std::int64_t ni = 0; ni < n; ++ni) {
    for (std::int64_t ci = 0; ci < c; ++ci) {
      const std::int64_t at = (ni * c + ci) * hw;
      apply_level_map_s8(src + at, dst + at, hw, p.levels[static_cast<std::size_t>(ci)], relu);
    }
  }
}

void check_affine_shapes(const QTensor& x, const ChannelAffineS8& p) {
  if (x.shape.size() != 4 && x.shape.size() != 2) {
    throw std::invalid_argument("channel_affine_s8: expects [N,C,H,W] or [N,C]");
  }
  if (x.shape[1] != static_cast<std::int64_t>(p.m0.size())) {
    throw std::invalid_argument("channel_affine_s8: input has " + std::to_string(x.shape[1]) +
                                " channels, affine has " + std::to_string(p.m0.size()));
  }
  if (p.levels.size() != p.m0.size()) {
    throw std::invalid_argument("channel_affine_s8: the affine's level maps were never filled");
  }
}

}  // namespace

QTensor channel_affine_s8(const QTensor& x, const ChannelAffineS8& p, bool relu) {
  check_affine_shapes(x, p);
  const std::int64_t hw = x.shape.size() == 4 ? x.shape[2] * x.shape[3] : 1;
  QTensor out;
  out.shape = x.shape;
  out.scale = p.out_scale;
  out.data.resize(x.data.size());
  channel_affine_rows_s8(x.data.data(), out.data.data(), x.shape[0], x.shape[1], hw, p, relu);
  return out;
}

void channel_affine_s8_(QTensor& x, const ChannelAffineS8& p, bool relu) {
  check_affine_shapes(x, p);
  const std::int64_t hw = x.shape.size() == 4 ? x.shape[2] * x.shape[3] : 1;
  channel_affine_rows_s8(x.data.data(), x.data.data(), x.shape[0], x.shape[1], hw, p, relu);
  x.scale = p.out_scale;
}

}  // namespace wa::deploy
