// AVX2 kernels for the multi-backend dispatch layer (kernel_table.hpp).
//
// Registered when the build targets x86 (CMake compiles this file with
// -mavx2 -mfma) and the CPU reports AVX2+FMA at runtime (kernel_table.cpp
// checks CPUID before ever calling into this table; the unsupported-ISA stub
// at the bottom keeps non-x86 builds linking).
//
// Bit-exactness with the scalar reference (scalar_kernels.cpp) is a hard
// contract, enforced per-kernel and end-to-end by tests/test_simd_backends:
//   - integer kernels (gemm_s8_s32, requant_s32_s8) accumulate in the same
//     width as the scalar code, so lane order is irrelevant;
//   - requant_s32_s8 re-derives gemmlowp's SaturatingRoundingDoublingHighMul
//     with 64-bit lane arithmetic (trunc-toward-zero division emulated with
//     a sign fix-up) and takes the scalar path for the rare shift regimes
//     (shift <= 0 or > 31) the vector code does not model;
//   - fp32 transform kernels replay the scalar per-element operation
//     sequence exactly — same multiply/add order, explicit mul+add (never
//     FMA), the same av == 0 skip as wino::smm_nn — with SIMD lanes running
//     across Winograd tiles. This file is compiled with -ffp-contract=off so
//     its scalar tail loops cannot be contracted either.
//   - gemm_f32_packed_nn is the one deliberate exception: its 32-column body
//     uses FMA for throughput, and fp32 GEMM consumers carry tolerances, not
//     bit checks. Its 8-column remainder uses mul + add and matches scalar.
#include "backend/simd/kernel_table.hpp"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "backend/simd/requant_common.hpp"
#include "tensor/arena.hpp"
#include "winograd/small_mat.hpp"

namespace wa::backend::simd {
namespace {

// ---- int8 GEMM --------------------------------------------------------------
//
// Register-blocked 4 (rows) x 16 (columns), two k steps per iteration: int8
// B rows are sign-extended to int16 and interleaved so one _mm256_madd_epi16
// accumulates a (k, k+1) pair for 8 columns. Accumulators stay in int32
// registers across the whole k loop, exactly like the scalar kernel's int32
// row accumulation, so results are identical.

void gemm_s8_s32_avx2(std::int64_t m, std::int64_t n, std::int64_t k, const std::int8_t* a,
                      const std::int8_t* b, std::int32_t* c) {
  const std::int64_t mblocks = (m + 3) / 4;
#pragma omp parallel for schedule(static) if (m >= 8)
  for (std::int64_t blk = 0; blk < mblocks; ++blk) {
    const std::int64_t i0 = blk * 4;
    const std::int64_t mr = std::min<std::int64_t>(4, m - i0);
    std::int64_t j0 = 0;
    for (; j0 + 16 <= n; j0 += 16) {
      __m256i acc_lo[4], acc_hi[4];
      for (int r = 0; r < 4; ++r) {
        acc_lo[r] = _mm256_setzero_si256();
        acc_hi[r] = _mm256_setzero_si256();
      }
      std::int64_t kk = 0;
      for (; kk + 2 <= k; kk += 2) {
        const __m256i b0 = _mm256_cvtepi8_epi16(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + kk * n + j0)));
        const __m256i b1 = _mm256_cvtepi8_epi16(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + (kk + 1) * n + j0)));
        const __m256i lo = _mm256_unpacklo_epi16(b0, b1);
        const __m256i hi = _mm256_unpackhi_epi16(b0, b1);
        for (std::int64_t r = 0; r < mr; ++r) {
          const std::int32_t a0 = a[(i0 + r) * k + kk];
          const std::int32_t a1 = a[(i0 + r) * k + kk + 1];
          const __m256i av = _mm256_set1_epi32((a1 << 16) | (a0 & 0xFFFF));
          acc_lo[r] = _mm256_add_epi32(acc_lo[r], _mm256_madd_epi16(av, lo));
          acc_hi[r] = _mm256_add_epi32(acc_hi[r], _mm256_madd_epi16(av, hi));
        }
      }
      if (kk < k) {  // odd-k tail: pair the last row with an implicit zero row
        const __m256i b0 = _mm256_cvtepi8_epi16(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + kk * n + j0)));
        const __m256i zero = _mm256_setzero_si256();
        const __m256i lo = _mm256_unpacklo_epi16(b0, zero);
        const __m256i hi = _mm256_unpackhi_epi16(b0, zero);
        for (std::int64_t r = 0; r < mr; ++r) {
          const std::int32_t a0 = a[(i0 + r) * k + kk];
          const __m256i av = _mm256_set1_epi32(a0 & 0xFFFF);
          acc_lo[r] = _mm256_add_epi32(acc_lo[r], _mm256_madd_epi16(av, lo));
          acc_hi[r] = _mm256_add_epi32(acc_hi[r], _mm256_madd_epi16(av, hi));
        }
      }
      // acc_lo holds columns {0..3, 8..11}, acc_hi {4..7, 12..15}; recombine.
      for (std::int64_t r = 0; r < mr; ++r) {
        std::int32_t* crow = c + (i0 + r) * n + j0;
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(crow),
                            _mm256_permute2x128_si256(acc_lo[r], acc_hi[r], 0x20));
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(crow + 8),
                            _mm256_permute2x128_si256(acc_lo[r], acc_hi[r], 0x31));
      }
    }
    // 4-column tail: the Winograd Hadamard GEMM runs with n = tile count,
    // which is 4 on the smallest Fig. 7 shapes — without this path those
    // GEMMs would be entirely scalar.
    for (; j0 + 4 <= n; j0 += 4) {
      __m128i acc4[4];
      for (int r = 0; r < 4; ++r) acc4[r] = _mm_setzero_si128();
      const auto load4 = [](const std::int8_t* p) {
        std::int32_t raw;
        std::memcpy(&raw, p, 4);
        return _mm_cvtepi8_epi16(_mm_cvtsi32_si128(raw));  // 4 int16 in the low half
      };
      std::int64_t kk = 0;
      for (; kk + 2 <= k; kk += 2) {
        const __m128i lo = _mm_unpacklo_epi16(load4(b + kk * n + j0), load4(b + (kk + 1) * n + j0));
        for (std::int64_t r = 0; r < mr; ++r) {
          const std::int32_t a0 = a[(i0 + r) * k + kk];
          const std::int32_t a1 = a[(i0 + r) * k + kk + 1];
          acc4[r] = _mm_add_epi32(acc4[r],
                                  _mm_madd_epi16(_mm_set1_epi32((a1 << 16) | (a0 & 0xFFFF)), lo));
        }
      }
      if (kk < k) {
        const __m128i lo = _mm_unpacklo_epi16(load4(b + kk * n + j0), _mm_setzero_si128());
        for (std::int64_t r = 0; r < mr; ++r) {
          const std::int32_t a0 = a[(i0 + r) * k + kk];
          acc4[r] = _mm_add_epi32(acc4[r], _mm_madd_epi16(_mm_set1_epi32(a0 & 0xFFFF), lo));
        }
      }
      for (std::int64_t r = 0; r < mr; ++r) {
        _mm_storeu_si128(reinterpret_cast<__m128i*>(c + (i0 + r) * n + j0), acc4[r]);
      }
    }
    if (j0 < n) {  // last 1-3 columns: scalar, identical to the reference kernel
      for (std::int64_t r = 0; r < mr; ++r) {
        std::int32_t* crow = c + (i0 + r) * n;
        for (std::int64_t j = j0; j < n; ++j) crow[j] = 0;
        for (std::int64_t kk = 0; kk < k; ++kk) {
          const std::int32_t av = a[(i0 + r) * k + kk];
          if (av == 0) continue;
          const std::int8_t* brow = b + kk * n;
          for (std::int64_t j = j0; j < n; ++j) crow[j] += av * static_cast<std::int32_t>(brow[j]);
        }
      }
    }
  }
}

// ---- fp32 GEMM micro-kernel -------------------------------------------------

void gemm_f32_packed_nn_avx2(std::int64_t mb, std::int64_t n, std::int64_t k, float alpha,
                             const float* a, std::int64_t lda, const float* b, std::int64_t ldb,
                             float beta, float* c, std::int64_t ldc) {
  for (std::int64_t i = 0; i < mb; ++i) {
    float* crow = c + i * ldc;
    if (beta == 0.F) {
      std::fill(crow, crow + n, 0.F);
    } else if (beta != 1.F) {
      for (std::int64_t j = 0; j < n; ++j) crow[j] *= beta;
    }
    const float* arow = a + i * lda;
    std::int64_t j0 = 0;
    for (; j0 + 32 <= n; j0 += 32) {
      __m256 c0 = _mm256_loadu_ps(crow + j0);
      __m256 c1 = _mm256_loadu_ps(crow + j0 + 8);
      __m256 c2 = _mm256_loadu_ps(crow + j0 + 16);
      __m256 c3 = _mm256_loadu_ps(crow + j0 + 24);
      for (std::int64_t kk = 0; kk < k; ++kk) {
        const float av = alpha * arow[kk];
        if (av == 0.F) continue;
        const __m256 avv = _mm256_set1_ps(av);
        const float* brow = b + kk * ldb + j0;
        c0 = _mm256_fmadd_ps(avv, _mm256_loadu_ps(brow), c0);
        c1 = _mm256_fmadd_ps(avv, _mm256_loadu_ps(brow + 8), c1);
        c2 = _mm256_fmadd_ps(avv, _mm256_loadu_ps(brow + 16), c2);
        c3 = _mm256_fmadd_ps(avv, _mm256_loadu_ps(brow + 24), c3);
      }
      _mm256_storeu_ps(crow + j0, c0);
      _mm256_storeu_ps(crow + j0 + 8, c1);
      _mm256_storeu_ps(crow + j0 + 16, c2);
      _mm256_storeu_ps(crow + j0 + 24, c3);
    }
    // 8-wide remainder with a separate multiply and add: each element still
    // adds its products in k order, so it is bit-identical to the scalar
    // tail below (and to the scalar table).
    for (; j0 + 8 <= n; j0 += 8) {
      __m256 c0 = _mm256_loadu_ps(crow + j0);
      for (std::int64_t kk = 0; kk < k; ++kk) {
        const float av = alpha * arow[kk];
        if (av == 0.F) continue;
        const __m256 prod = _mm256_mul_ps(_mm256_set1_ps(av), _mm256_loadu_ps(b + kk * ldb + j0));
        c0 = _mm256_add_ps(c0, prod);
      }
      _mm256_storeu_ps(crow + j0, c0);
    }
    if (j0 < n) {
      for (std::int64_t kk = 0; kk < k; ++kk) {
        const float av = alpha * arow[kk];
        if (av == 0.F) continue;
        const float* brow = b + kk * ldb;
        for (std::int64_t j = j0; j < n; ++j) crow[j] += av * brow[j];
      }
    }
  }
}

// ---- flat float -> int8 quantization ---------------------------------------

// 32-bit chunk order that undoes packs_epi32 + packs_epi16 lane interleave.
inline __m256i pack_s32x4_to_s8(__m256i q0, __m256i q1, __m256i q2, __m256i q3) {
  const __m256i perm = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
  const __m256i p01 = _mm256_packs_epi32(q0, q1);
  const __m256i p23 = _mm256_packs_epi32(q2, q3);
  return _mm256_permutevar8x32_epi32(_mm256_packs_epi16(p01, p23), perm);
}

void quantize_f32_s8_avx2(const float* src, std::int8_t* dst, std::int64_t n, float inv_scale) {
  const __m256 inv = _mm256_set1_ps(inv_scale);
  const __m256 lo = _mm256_set1_ps(-127.F);
  const __m256 hi = _mm256_set1_ps(127.F);
  std::int64_t i = 0;
  for (; i + 32 <= n; i += 32) {
    __m256i q[4];
    for (int v = 0; v < 4; ++v) {
      // Operand order matters on NaN: maxps/minps return the SECOND operand
      // on unordered, so putting the data first makes the clamp constants
      // win — a NaN input clamps to -127 exactly like the scalar reference's
      // std::max(-127.F, NaN) (which returns its first argument).
      const __m256 x = _mm256_min_ps(
          _mm256_max_ps(_mm256_mul_ps(_mm256_loadu_ps(src + i + 8 * v), inv), lo), hi);
      q[v] = _mm256_cvtps_epi32(x);  // MXCSR default: round to nearest even
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        pack_s32x4_to_s8(q[0], q[1], q[2], q[3]));
  }
  // Tail: the canonical scalar reference, so there is exactly one
  // implementation of the bit-exactness-critical loop.
  if (i < n) scalar_kernels().quantize_f32_s8(src + i, dst + i, n - i, inv_scale);
}

// ---- fixed-point requantization --------------------------------------------

void requant_s32_s8_avx2(const std::int32_t* acc, std::int8_t* dst, std::int64_t n,
                         quant::FixedPointMultiplier mult) {
  // Regime guard and rounding mask shared with the other backends
  // (requant_common.hpp); out-of-regime multipliers take the scalar
  // reference.
  if (!requant_vector_regime(mult)) {
    scalar_kernels().requant_s32_s8(acc, dst, n, mult);
    return;
  }
  const int s = mult.shift;
  const std::int32_t mask32 = requant_round_mask(s);
  const __m256i m0 = _mm256_set1_epi32(mult.m0);
  const __m256i pos_nudge = _mm256_set1_epi64x(std::int64_t{1} << 30);
  const __m256i neg_nudge = _mm256_set1_epi64x(1 - (std::int64_t{1} << 30));
  const __m256i trunc_fix = _mm256_set1_epi64x((std::int64_t{1} << 31) - 1);
  const __m256i maskv = _mm256_set1_epi32(mask32);
  const __m256i halfv = _mm256_set1_epi32(mask32 >> 1);
  const __m256i lo127 = _mm256_set1_epi32(-127);
  const __m256i hi127 = _mm256_set1_epi32(127);
  const __m256i zero = _mm256_setzero_si256();

  // (prod + nudge) / 2^31 with C++ trunc-toward-zero semantics: for negative
  // products add 2^31 - 1 first, then the logical 64-bit shift's low 32 bits
  // equal the arithmetic result (|high| < 2^31 always fits).
  const auto high31 = [&](__m256i prod) {
    const __m256i neg = _mm256_cmpgt_epi64(zero, prod);
    __m256i t = _mm256_add_epi64(prod, _mm256_blendv_epi8(pos_nudge, neg_nudge, neg));
    t = _mm256_add_epi64(t, _mm256_and_si256(neg, trunc_fix));
    return _mm256_srli_epi64(t, 31);
  };
  const auto apply8 = [&](__m256i av) {
    const __m256i pe = _mm256_mul_epi32(av, m0);                         // lanes 0,2,4,6
    const __m256i po = _mm256_mul_epi32(_mm256_srli_epi64(av, 32), m0);  // lanes 1,3,5,7
    const __m256i he = high31(pe);
    const __m256i ho = high31(po);
    const __m256i high = _mm256_blend_epi32(he, _mm256_slli_epi64(ho, 32), 0xAA);
    // Rounding right shift, gemmlowp semantics (round half away from zero).
    const __m256i rem = _mm256_and_si256(high, maskv);
    const __m256i thr = _mm256_add_epi32(halfv, _mm256_srli_epi32(high, 31));
    const __m256i shifted = _mm256_srai_epi32(high, s);
    const __m256i res = _mm256_sub_epi32(shifted, _mm256_cmpgt_epi32(rem, thr));
    return _mm256_min_epi32(hi127, _mm256_max_epi32(lo127, res));
  };

  std::int64_t i = 0;
  for (; i + 32 <= n; i += 32) {
    __m256i q[4];
    for (int v = 0; v < 4; ++v) {
      q[v] = apply8(_mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc + i + 8 * v)));
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        pack_s32x4_to_s8(q[0], q[1], q[2], q[3]));
  }
  if (i < n) scalar_kernels().requant_s32_s8(acc + i, dst + i, n - i, mult);
}

void quantize_f32_s8_taps_avx2(const float* src, std::int8_t* dst, std::int64_t taps,
                               std::int64_t per_tap, const float* inv_scales) {
  quantize_f32_s8_taps_with(quantize_f32_s8_avx2, src, dst, taps, per_tap, inv_scales);
}

void requant_s32_s8_taps_avx2(const std::int32_t* acc, std::int8_t* dst, std::int64_t taps,
                              std::int64_t per_tap, const quant::FixedPointMultiplier* mults) {
  requant_s32_s8_taps_with(requant_s32_s8_avx2, acc, dst, taps, per_tap, mults);
}

// ---- residual join ----------------------------------------------------------
//
// 32 int8 pairs per step as four 8-lane int32 vectors. Each branch is the
// identity or the requant high multiply above followed by a left shift for
// ratios >= 0.5 or the rounding right shift below that; join_vector_regime
// bounds both so the int32 sum is exact, and the relu and [-127, 127] clamp
// fold into one max/min pair before the pack.

void residual_add_s8_avx2(const std::int8_t* a, const std::int8_t* b, std::int8_t* out,
                          std::int64_t n, const quant::FixedPointMultiplier* a_mult,
                          const quant::FixedPointMultiplier* b_mult, bool relu) {
  if (!join_vector_regime(a_mult) || !join_vector_regime(b_mult)) {
    scalar_kernels().residual_add_s8(a, b, out, n, a_mult, b_mult, relu);
    return;
  }
  const __m256i zero = _mm256_setzero_si256();
  const __m256i pos_nudge = _mm256_set1_epi64x(std::int64_t{1} << 30);
  const __m256i neg_nudge = _mm256_set1_epi64x(1 - (std::int64_t{1} << 30));
  const __m256i trunc_fix = _mm256_set1_epi64x((std::int64_t{1} << 31) - 1);
  const auto high31 = [&](__m256i prod) {
    const __m256i neg = _mm256_cmpgt_epi64(zero, prod);
    __m256i t = _mm256_add_epi64(prod, _mm256_blendv_epi8(pos_nudge, neg_nudge, neg));
    t = _mm256_add_epi64(t, _mm256_and_si256(neg, trunc_fix));
    return _mm256_srli_epi64(t, 31);
  };
  // Each branch's multiplier is copied into the closure, so the loop below
  // keeps it in registers (the int8 stores could otherwise alias it).
  const auto make_branch = [&](const quant::FixedPointMultiplier* mult) {
    const bool identity = mult == nullptr;
    const int shift = identity ? 0 : mult->shift;
    const __m256i m0 = _mm256_set1_epi32(identity ? 0 : mult->m0);
    const std::int32_t mask32 = shift > 0 ? requant_round_mask(shift) : 0;
    const __m256i maskv = _mm256_set1_epi32(mask32);
    const __m256i halfv = _mm256_set1_epi32(mask32 >> 1);
    return [=](__m256i v) {
      if (identity) return v;
      const __m256i he = high31(_mm256_mul_epi32(v, m0));
      const __m256i ho = high31(_mm256_mul_epi32(_mm256_srli_epi64(v, 32), m0));
      const __m256i high = _mm256_blend_epi32(he, _mm256_slli_epi64(ho, 32), 0xAA);
      if (shift <= 0) return _mm256_slli_epi32(high, -shift);
      const __m256i rem = _mm256_and_si256(high, maskv);
      const __m256i thr = _mm256_add_epi32(halfv, _mm256_srli_epi32(high, 31));
      const __m256i shifted = _mm256_srai_epi32(high, shift);
      return _mm256_sub_epi32(shifted, _mm256_cmpgt_epi32(rem, thr));
    };
  };
  const auto branch_a = make_branch(a_mult);
  const auto branch_b = make_branch(b_mult);
  const __m256i lo = _mm256_set1_epi32(relu ? 0 : -127);
  const __m256i hi = _mm256_set1_epi32(127);
  std::int64_t i = 0;
  for (; i + 32 <= n; i += 32) {
    __m256i q[4];
    for (int v = 0; v < 4; ++v) {
      const __m256i va = _mm256_cvtepi8_epi32(
          _mm_loadl_epi64(reinterpret_cast<const __m128i*>(a + i + 8 * v)));
      const __m256i vb = _mm256_cvtepi8_epi32(
          _mm_loadl_epi64(reinterpret_cast<const __m128i*>(b + i + 8 * v)));
      const __m256i sum = _mm256_add_epi32(branch_a(va), branch_b(vb));
      q[v] = _mm256_min_epi32(hi, _mm256_max_epi32(lo, sum));
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                        pack_s32x4_to_s8(q[0], q[1], q[2], q[3]));
  }
  if (i < n) scalar_kernels().residual_add_s8(a + i, b + i, out + i, n - i, a_mult, b_mult, relu);
}

// ---- Winograd scatter (input transform) ------------------------------------
//
// SIMD lanes run across 8 consecutive tiles of one tile row; each lane
// replays the scalar smm_sandwich arithmetic element by element (mul+add
// only, same av == 0 skip in the first product), so results are bit-equal.
// The vector path handles t <= 8 (F2/F4/F6 for r=3, F4 for r=5); larger
// tiles take the scalar per-tile path.

constexpr std::int64_t kMaxVecTile = 8;

void wino_scatter_f32_avx2(const std::int8_t* plane, std::int64_t height, std::int64_t width,
                           std::int64_t pad, float in_scale, const float* bt, std::int64_t t,
                           std::int64_t m, std::int64_t th, std::int64_t tw, float* v_base,
                           std::int64_t ab_stride) {
  ScratchArena& arena = ScratchArena::for_thread();
  ScratchArena::Scope frame(arena);
  const std::int64_t fw = (tw - 1) * m + t;
  float* fbuf = arena.alloc<float>(t * fw);
  const __m256 scale = _mm256_set1_ps(in_scale);
  const __m256i vidx =
      _mm256_mullo_epi32(_mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
                         _mm256_set1_epi32(static_cast<int>(m)));
  float patch[wino::kSmallMatCap], tmp[wino::kSmallMatCap], out[wino::kSmallMatCap];
  __m256 X[kMaxVecTile * kMaxVecTile], TMP[kMaxVecTile * kMaxVecTile];

  for (std::int64_t ti = 0; ti < th; ++ti) {
    const std::int64_t i0 = ti * m - pad;
    // Stage the t input rows as dequantized floats with padding materialized.
    for (std::int64_t a = 0; a < t; ++a) {
      float* row = fbuf + a * fw;
      const std::int64_t ii = i0 + a;
      if (ii < 0 || ii >= height) {
        std::fill(row, row + fw, 0.F);
        continue;
      }
      const std::int8_t* src = plane + ii * width;
      const std::int64_t p0 = std::min(pad, fw);
      std::fill(row, row + p0, 0.F);
      const std::int64_t len = std::min(width, fw - p0);
      std::int64_t x = 0;
      for (; x + 8 <= len; x += 8) {
        const __m256i lv = _mm256_cvtepi8_epi32(
            _mm_loadl_epi64(reinterpret_cast<const __m128i*>(src + x)));
        _mm256_storeu_ps(row + p0 + x, _mm256_mul_ps(_mm256_cvtepi32_ps(lv), scale));
      }
      for (; x < len; ++x) row[p0 + x] = static_cast<float>(src[x]) * in_scale;
      std::fill(row + p0 + std::max<std::int64_t>(len, 0), row + fw, 0.F);
    }

    std::int64_t tj = 0;
    if (t <= kMaxVecTile) {
      for (; tj + 8 <= tw; tj += 8) {
        for (std::int64_t a = 0; a < t; ++a) {
          const float* base = fbuf + a * fw + tj * m;
          for (std::int64_t b = 0; b < t; ++b) {
            X[a * t + b] = _mm256_i32gather_ps(base + b, vidx, 4);
          }
        }
        for (std::int64_t i = 0; i < t; ++i) {  // TMP = Bt * X (smm_nn: skip zeros)
          for (std::int64_t j = 0; j < t; ++j) {
            __m256 acc = _mm256_setzero_ps();
            for (std::int64_t kk = 0; kk < t; ++kk) {
              const float av = bt[i * t + kk];
              if (av == 0.F) continue;
              acc = _mm256_add_ps(acc, _mm256_mul_ps(_mm256_set1_ps(av), X[kk * t + j]));
            }
            TMP[i * t + j] = acc;
          }
        }
        float* dst = v_base + ti * tw + tj;
        for (std::int64_t i = 0; i < t; ++i) {  // V = TMP * Bt^T (smm_nt: no skip)
          for (std::int64_t j = 0; j < t; ++j) {
            __m256 acc = _mm256_setzero_ps();
            for (std::int64_t kk = 0; kk < t; ++kk) {
              acc = _mm256_add_ps(acc, _mm256_mul_ps(TMP[i * t + kk], _mm256_set1_ps(bt[j * t + kk])));
            }
            _mm256_storeu_ps(dst + (i * t + j) * ab_stride, acc);
          }
        }
      }
    }
    for (; tj < tw; ++tj) {  // remaining tiles: scalar reference path
      for (std::int64_t a = 0; a < t; ++a) {
        for (std::int64_t b = 0; b < t; ++b) patch[a * t + b] = fbuf[a * fw + tj * m + b];
      }
      wino::smm_sandwich(bt, static_cast<int>(t), static_cast<int>(t), patch, tmp, out);
      float* dst = v_base + ti * tw + tj;
      for (std::int64_t ab = 0; ab < t * t; ++ab) dst[ab * ab_stride] = out[ab];
    }
  }
}

// ---- Winograd gather (output transform) ------------------------------------

// Interleave 2 lane-vectors (a, b) into 16 contiguous floats a0 b0 a1 b1 ...
inline void store_interleave2(float* dst, __m256 a, __m256 b) {
  const __m256 lo = _mm256_unpacklo_ps(a, b);
  const __m256 hi = _mm256_unpackhi_ps(a, b);
  _mm256_storeu_ps(dst, _mm256_permute2f128_ps(lo, hi, 0x20));
  _mm256_storeu_ps(dst + 8, _mm256_permute2f128_ps(lo, hi, 0x31));
}

// Interleave 4 lane-vectors into 32 contiguous floats a0 b0 c0 d0 a1 ...
inline void store_interleave4(float* dst, __m256 a, __m256 b, __m256 c, __m256 d) {
  const __m256 t0 = _mm256_unpacklo_ps(a, b);
  const __m256 t1 = _mm256_unpackhi_ps(a, b);
  const __m256 t2 = _mm256_unpacklo_ps(c, d);
  const __m256 t3 = _mm256_unpackhi_ps(c, d);
  const __m256 u0 = _mm256_shuffle_ps(t0, t2, 0x44);
  const __m256 u1 = _mm256_shuffle_ps(t0, t2, 0xEE);
  const __m256 u2 = _mm256_shuffle_ps(t1, t3, 0x44);
  const __m256 u3 = _mm256_shuffle_ps(t1, t3, 0xEE);
  _mm256_storeu_ps(dst, _mm256_permute2f128_ps(u0, u1, 0x20));
  _mm256_storeu_ps(dst + 8, _mm256_permute2f128_ps(u2, u3, 0x20));
  _mm256_storeu_ps(dst + 16, _mm256_permute2f128_ps(u0, u1, 0x31));
  _mm256_storeu_ps(dst + 24, _mm256_permute2f128_ps(u2, u3, 0x31));
}

// 128-bit variants of the two interleaves, for the 4-tile groups below.
inline void store_interleave2_128(float* dst, __m128 a, __m128 b) {
  _mm_storeu_ps(dst, _mm_unpacklo_ps(a, b));
  _mm_storeu_ps(dst + 4, _mm_unpackhi_ps(a, b));
}

inline void store_interleave4_128(float* dst, __m128 a, __m128 b, __m128 c, __m128 d) {
  const __m128 t0 = _mm_unpacklo_ps(a, b);
  const __m128 t1 = _mm_unpacklo_ps(c, d);
  const __m128 t2 = _mm_unpackhi_ps(a, b);
  const __m128 t3 = _mm_unpackhi_ps(c, d);
  _mm_storeu_ps(dst, _mm_movelh_ps(t0, t1));
  _mm_storeu_ps(dst + 4, _mm_movehl_ps(t1, t0));
  _mm_storeu_ps(dst + 8, _mm_movelh_ps(t2, t3));
  _mm_storeu_ps(dst + 12, _mm_movehl_ps(t3, t2));
}

void wino_gather_f32_avx2(const std::int8_t* m_base, std::int64_t ab_stride, const float* sm,
                          const float* at, std::int64_t t, std::int64_t m, std::int64_t th,
                          std::int64_t tw, std::int64_t oh, std::int64_t ow, float bias,
                          float* oplane) {
  const __m256 bv = _mm256_set1_ps(bias);
  float mtile[wino::kSmallMatCap], tmp[wino::kSmallMatCap], y[wino::kSmallMatCap];
  __m256 M[kMaxVecTile * kMaxVecTile], TMP[kMaxVecTile * kMaxVecTile], Y[kMaxVecTile];
  const bool vec_ok = t <= kMaxVecTile && (m == 2 || m == 4);

  for (std::int64_t ti = 0; ti < th; ++ti) {
    const bool rows_full = ti * m + m <= oh;
    std::int64_t tj = 0;
    if (vec_ok && rows_full) {
      for (; tj + 8 <= tw && (tj + 8) * m <= ow; tj += 8) {
        const std::int8_t* src = m_base + ti * tw + tj;
        for (std::int64_t ab = 0; ab < t * t; ++ab) {
          const __m256i lv = _mm256_cvtepi8_epi32(
              _mm_loadl_epi64(reinterpret_cast<const __m128i*>(src + ab * ab_stride)));
          M[ab] = _mm256_mul_ps(_mm256_cvtepi32_ps(lv), _mm256_set1_ps(sm[ab]));
        }
        for (std::int64_t i = 0; i < m; ++i) {  // TMP = At * M (smm_nn: skip zeros)
          for (std::int64_t j = 0; j < t; ++j) {
            __m256 acc = _mm256_setzero_ps();
            for (std::int64_t kk = 0; kk < t; ++kk) {
              const float av = at[i * t + kk];
              if (av == 0.F) continue;
              acc = _mm256_add_ps(acc, _mm256_mul_ps(_mm256_set1_ps(av), M[kk * t + j]));
            }
            TMP[i * t + j] = acc;
          }
        }
        for (std::int64_t a = 0; a < m; ++a) {
          for (std::int64_t b = 0; b < m; ++b) {  // Y = TMP * At^T (smm_nt: no skip)
            __m256 acc = _mm256_setzero_ps();
            for (std::int64_t kk = 0; kk < t; ++kk) {
              acc = _mm256_add_ps(acc, _mm256_mul_ps(TMP[a * t + kk], _mm256_set1_ps(at[b * t + kk])));
            }
            Y[b] = _mm256_add_ps(acc, bv);
          }
          float* orow = oplane + (ti * m + a) * ow + tj * m;
          if (m == 2) {
            store_interleave2(orow, Y[0], Y[1]);
          } else {
            store_interleave4(orow, Y[0], Y[1], Y[2], Y[3]);
          }
        }
      }
    }
    for (; tj < tw; ++tj) {  // edge tiles: scalar reference path
      const std::int8_t* src = m_base + ti * tw + tj;
      for (std::int64_t ab = 0; ab < t * t; ++ab) {
        mtile[ab] = static_cast<float>(src[ab * ab_stride]) * sm[ab];
      }
      wino::smm_sandwich(at, static_cast<int>(m), static_cast<int>(t), mtile, tmp, y);
      for (std::int64_t a = 0; a < m && ti * m + a < oh; ++a) {
        for (std::int64_t b = 0; b < m && tj * m + b < ow; ++b) {
          oplane[(ti * m + a) * ow + tj * m + b] = y[a * m + b] + bias;
        }
      }
    }
  }
}

// ---- Blocked-layout kernels (streaming tile-block Winograd path) -----------

// Blocked scatter: the flat AVX2 scatter's vector groups, restricted to the
// tile range [tile0, tile0+ntiles). Rows are staged per tile-row segment with
// the same per-element dequant expression; after the 8-tile groups a 4-tile
// 128-bit group picks up narrow tile rows (out=8 F2 and out=16 F4 grids run
// at tw <= 4, which the flat kernel leaves entirely scalar). Leftover tiles
// take the scalar reference kernel so the bit-exactness-critical path has
// exactly one scalar implementation.
void wino_scatter_block_f32_avx2(const std::int8_t* plane, std::int64_t height,
                                 std::int64_t width, std::int64_t pad, float in_scale,
                                 const float* bt, std::int64_t t, std::int64_t m, std::int64_t th,
                                 std::int64_t tw, std::int64_t tile0, std::int64_t ntiles,
                                 float* v_block, std::int64_t block_stride) {
  ScratchArena& arena = ScratchArena::for_thread();
  ScratchArena::Scope frame(arena);
  float* fbuf = arena.alloc<float>(t * ((tw - 1) * m + t));
  const __m256 scale = _mm256_set1_ps(in_scale);
  const __m256i vidx = _mm256_mullo_epi32(_mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
                                          _mm256_set1_epi32(static_cast<int>(m)));
  const __m128i vidx4 = _mm_mullo_epi32(_mm_setr_epi32(0, 1, 2, 3),
                                        _mm_set1_epi32(static_cast<int>(m)));
  __m256 X[kMaxVecTile * kMaxVecTile], TMP[kMaxVecTile * kMaxVecTile];
  __m128 X4[kMaxVecTile * kMaxVecTile], TMP4[kMaxVecTile * kMaxVecTile];

  std::int64_t tile = tile0;
  const std::int64_t tend = tile0 + ntiles;
  while (tile < tend) {
    const std::int64_t ti = tile / tw;
    const std::int64_t tjb = tile % tw;
    const std::int64_t tje = std::min(tw, tjb + (tend - tile));
    std::int64_t tj = tjb;
    if (t <= kMaxVecTile && tjb + 4 <= tje) {
      const std::int64_t seg = (tje - 1 - tjb) * m + t;
      const std::int64_t i0 = ti * m - pad;
      const std::int64_t x0 = tjb * m;  // fbuf column 0 is input column x0 - pad
      for (std::int64_t a = 0; a < t; ++a) {
        float* row = fbuf + a * seg;
        const std::int64_t ii = i0 + a;
        if (ii < 0 || ii >= height) {
          std::fill(row, row + seg, 0.F);
          continue;
        }
        const std::int8_t* src = plane + ii * width;
        const std::int64_t p0 = std::min(std::max<std::int64_t>(pad - x0, 0), seg);
        std::fill(row, row + p0, 0.F);
        const std::int64_t j0 = x0 + p0 - pad;  // first in-bounds input column
        const std::int64_t len = std::min(width - j0, seg - p0);
        std::int64_t x = 0;
        for (; x + 8 <= len; x += 8) {
          const __m256i lv = _mm256_cvtepi8_epi32(
              _mm_loadl_epi64(reinterpret_cast<const __m128i*>(src + j0 + x)));
          _mm256_storeu_ps(row + p0 + x, _mm256_mul_ps(_mm256_cvtepi32_ps(lv), scale));
        }
        for (; x < len; ++x) row[p0 + x] = static_cast<float>(src[j0 + x]) * in_scale;
        std::fill(row + p0 + std::max<std::int64_t>(len, 0), row + seg, 0.F);
      }
      for (; tj + 8 <= tje; tj += 8) {
        for (std::int64_t a = 0; a < t; ++a) {
          const float* base = fbuf + a * seg + (tj - tjb) * m;
          for (std::int64_t b = 0; b < t; ++b) {
            X[a * t + b] = _mm256_i32gather_ps(base + b, vidx, 4);
          }
        }
        for (std::int64_t i = 0; i < t; ++i) {  // TMP = Bt * X (smm_nn: skip zeros)
          for (std::int64_t j = 0; j < t; ++j) {
            __m256 acc = _mm256_setzero_ps();
            for (std::int64_t kk = 0; kk < t; ++kk) {
              const float av = bt[i * t + kk];
              if (av == 0.F) continue;
              acc = _mm256_add_ps(acc, _mm256_mul_ps(_mm256_set1_ps(av), X[kk * t + j]));
            }
            TMP[i * t + j] = acc;
          }
        }
        float* dst = v_block + (ti * tw + tj - tile0);
        for (std::int64_t i = 0; i < t; ++i) {  // V = TMP * Bt^T (smm_nt: no skip)
          for (std::int64_t j = 0; j < t; ++j) {
            __m256 acc = _mm256_setzero_ps();
            for (std::int64_t kk = 0; kk < t; ++kk) {
              acc = _mm256_add_ps(acc,
                                  _mm256_mul_ps(TMP[i * t + kk], _mm256_set1_ps(bt[j * t + kk])));
            }
            _mm256_storeu_ps(dst + (i * t + j) * block_stride, acc);
          }
        }
      }
      for (; tj + 4 <= tje; tj += 4) {  // narrow rows: 4 tiles in 128-bit lanes
        for (std::int64_t a = 0; a < t; ++a) {
          const float* base = fbuf + a * seg + (tj - tjb) * m;
          for (std::int64_t b = 0; b < t; ++b) {
            X4[a * t + b] = _mm_i32gather_ps(base + b, vidx4, 4);
          }
        }
        for (std::int64_t i = 0; i < t; ++i) {
          for (std::int64_t j = 0; j < t; ++j) {
            __m128 acc = _mm_setzero_ps();
            for (std::int64_t kk = 0; kk < t; ++kk) {
              const float av = bt[i * t + kk];
              if (av == 0.F) continue;
              acc = _mm_add_ps(acc, _mm_mul_ps(_mm_set1_ps(av), X4[kk * t + j]));
            }
            TMP4[i * t + j] = acc;
          }
        }
        float* dst = v_block + (ti * tw + tj - tile0);
        for (std::int64_t i = 0; i < t; ++i) {
          for (std::int64_t j = 0; j < t; ++j) {
            __m128 acc = _mm_setzero_ps();
            for (std::int64_t kk = 0; kk < t; ++kk) {
              acc = _mm_add_ps(acc, _mm_mul_ps(TMP4[i * t + kk], _mm_set1_ps(bt[j * t + kk])));
            }
            _mm_storeu_ps(dst + (i * t + j) * block_stride, acc);
          }
        }
      }
    }
    if (tj < tje) {  // remaining tiles of this row: scalar reference path
      scalar_kernels().wino_scatter_block_f32(plane, height, width, pad, in_scale, bt, t, m, th,
                                              tw, ti * tw + tj, tje - tj,
                                              v_block + (ti * tw + tj - tile0), block_stride);
    }
    tile += tje - tjb;
  }
}

// Blocked offset-binary GEMM. One madd accumulates a column's (k, k+1) or
// (k+2, k+3) partial pair; pairs stay split across the k loop (col j lives in
// int32 lanes 2j and 2j+1) and are combined once at the end. The offset is
// removed with a per-column sum: c = sum(a*b) - 128*colsum, exactly
// sum((a-128)*b) in int32.
void gemm_u8s8_s32_k4_avx2(std::int64_t m, std::int64_t n, std::int64_t kpad,
                           const std::uint8_t* a, const std::int8_t* b, std::int32_t* c) {
  ScratchArena& arena = ScratchArena::for_thread();
  ScratchArena::Scope frame(arena);
  const std::int64_t kq = kpad / 4;
  std::int32_t* colsum = arena.alloc<std::int32_t>(n);
  const __m256i perm = _mm256_setr_epi32(0, 1, 4, 5, 2, 3, 6, 7);
  {
    // Vector colsum pass: madd against an all-1s vector sums each column's
    // k-pairs, reusing the exact lane layout (and final hadd+permute fixup)
    // of the accumulator loop below.
    const __m256i ones16 = _mm256_set1_epi16(1);
    std::int64_t j0 = 0;
    for (; j0 + 8 <= n; j0 += 8) {
      __m256i cs_lo = _mm256_setzero_si256();
      __m256i cs_hi = _mm256_setzero_si256();
      for (std::int64_t q = 0; q < kq; ++q) {
        const __m256i braw =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + (q * n + j0) * 4));
        cs_lo = _mm256_add_epi32(
            cs_lo, _mm256_madd_epi16(ones16, _mm256_cvtepi8_epi16(_mm256_castsi256_si128(braw))));
        cs_hi = _mm256_add_epi32(
            cs_hi,
            _mm256_madd_epi16(ones16, _mm256_cvtepi8_epi16(_mm256_extracti128_si256(braw, 1))));
      }
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(colsum + j0),
                          _mm256_permutevar8x32_epi32(_mm256_hadd_epi32(cs_lo, cs_hi), perm));
    }
    for (; j0 + 4 <= n; j0 += 4) {
      __m256i cs = _mm256_setzero_si256();
      for (std::int64_t q = 0; q < kq; ++q) {
        const __m256i b03 = _mm256_cvtepi8_epi16(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + (q * n + j0) * 4)));
        cs = _mm256_add_epi32(cs, _mm256_madd_epi16(ones16, b03));
      }
      _mm_storeu_si128(
          reinterpret_cast<__m128i*>(colsum + j0),
          _mm_hadd_epi32(_mm256_castsi256_si128(cs), _mm256_extracti128_si256(cs, 1)));
    }
    for (; j0 < n; ++j0) {
      std::int32_t cs = 0;
      for (std::int64_t q = 0; q < kq; ++q) {
        const std::int8_t* bq = b + (q * n + j0) * 4;
        cs += static_cast<std::int32_t>(bq[0]) + static_cast<std::int32_t>(bq[1]) +
              static_cast<std::int32_t>(bq[2]) + static_cast<std::int32_t>(bq[3]);
      }
      colsum[j0] = cs;
    }
  }
  for (std::int64_t i = 0; i < m; ++i) {
    const std::uint8_t* arow = a + i * kpad;
    std::int32_t* crow = c + i * n;
    std::int64_t j0 = 0;
    for (; j0 + 8 <= n; j0 += 8) {
      __m256i acc_lo = _mm256_setzero_si256();  // cols j0..j0+3, as lane pairs
      __m256i acc_hi = _mm256_setzero_si256();  // cols j0+4..j0+7
      for (std::int64_t q = 0; q < kq; ++q) {
        const __m256i braw = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(b + (q * n + j0) * 4));
        const __m256i b01 = _mm256_cvtepi8_epi16(_mm256_castsi256_si128(braw));
        const __m256i b23 = _mm256_cvtepi8_epi16(_mm256_extracti128_si256(braw, 1));
        const std::uint8_t* aq = arow + q * 4;
        const long long quad = static_cast<long long>(aq[0]) |
                               (static_cast<long long>(aq[1]) << 16) |
                               (static_cast<long long>(aq[2]) << 32) |
                               (static_cast<long long>(aq[3]) << 48);
        const __m256i av = _mm256_set1_epi64x(quad);
        acc_lo = _mm256_add_epi32(acc_lo, _mm256_madd_epi16(av, b01));
        acc_hi = _mm256_add_epi32(acc_hi, _mm256_madd_epi16(av, b23));
      }
      // hadd yields [c0 c1 c4 c5 | c2 c3 c6 c7]; permute back to order.
      const __m256i sums =
          _mm256_permutevar8x32_epi32(_mm256_hadd_epi32(acc_lo, acc_hi), perm);
      const __m256i cs =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(colsum + j0));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(crow + j0),
                          _mm256_sub_epi32(sums, _mm256_slli_epi32(cs, 7)));
    }
    // 4-column tail: the same madd-pair scheme on one 128-bit load. The
    // smallest Fig. 7 planes run whole tap GEMMs at n = 4, so this step is
    // what keeps them off the scalar loop below.
    for (; j0 + 4 <= n; j0 += 4) {
      __m256i acc = _mm256_setzero_si256();  // col j in int32 lanes 2j, 2j+1
      for (std::int64_t q = 0; q < kq; ++q) {
        const __m256i b03 = _mm256_cvtepi8_epi16(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + (q * n + j0) * 4)));
        const std::uint8_t* aq = arow + q * 4;
        const long long quad = static_cast<long long>(aq[0]) |
                               (static_cast<long long>(aq[1]) << 16) |
                               (static_cast<long long>(aq[2]) << 32) |
                               (static_cast<long long>(aq[3]) << 48);
        acc = _mm256_add_epi32(_mm256_madd_epi16(_mm256_set1_epi64x(quad), b03), acc);
      }
      const __m128i sums =
          _mm_hadd_epi32(_mm256_castsi256_si128(acc), _mm256_extracti128_si256(acc, 1));
      const __m128i cs = _mm_loadu_si128(reinterpret_cast<const __m128i*>(colsum + j0));
      _mm_storeu_si128(reinterpret_cast<__m128i*>(crow + j0),
                       _mm_sub_epi32(sums, _mm_slli_epi32(cs, 7)));
    }
    for (; j0 < n; ++j0) {  // last 1-3 columns: scalar, identical integer sums
      std::int32_t acc = 0;
      for (std::int64_t q = 0; q < kq; ++q) {
        const std::int8_t* bq = b + (q * n + j0) * 4;
        for (std::int64_t r = 0; r < 4; ++r) {
          acc += (static_cast<std::int32_t>(arow[q * 4 + r]) - 128) *
                 static_cast<std::int32_t>(bq[r]);
        }
      }
      crow[j0] = acc;
    }
  }
}

// Blocked gather with the output quantization fused in: the flat AVX2
// gather's vector transform produces Y + bias for 8 tiles, which is staged
// contiguously (the same interleave the flat kernel stores to the plane) and
// pushed through quantize_f32_s8 — elementwise and bit-exact across
// backends, so fused and flat bytes agree. A 4-tile 128-bit group follows
// the 8-tile groups for narrow tile rows (tw <= 4 grids the flat kernel
// leaves scalar); edge/partial tiles take the scalar reference kernel.
void wino_gather_q_s8_avx2(const std::int8_t* m_block, std::int64_t block_stride, const float* sm,
                           const float* at, std::int64_t t, std::int64_t m, std::int64_t th,
                           std::int64_t tw, std::int64_t tile0, std::int64_t ntiles,
                           std::int64_t oh, std::int64_t ow, float bias, float o_inv,
                           std::int8_t* oplane) {
  const __m256 bv = _mm256_set1_ps(bias);
  const __m128 bv4 = _mm_set1_ps(bias);
  __m256 M[kMaxVecTile * kMaxVecTile], TMP[kMaxVecTile * kMaxVecTile], Y[kMaxVecTile];
  __m128 M4[kMaxVecTile * kMaxVecTile], TMP4[kMaxVecTile * kMaxVecTile], Y4[kMaxVecTile];
  float frows[4 * 32];      // m rows x 8 tiles x m cols, m <= 4
  std::int8_t qrows[4 * 32];
  const bool vec_ok = t <= kMaxVecTile && (m == 2 || m == 4);

  std::int64_t tile = tile0;
  const std::int64_t tend = tile0 + ntiles;
  while (tile < tend) {
    const std::int64_t ti = tile / tw;
    const std::int64_t tjb = tile % tw;
    const std::int64_t tje = std::min(tw, tjb + (tend - tile));
    std::int64_t tj = tjb;
    if (vec_ok && ti * m + m <= oh) {
      for (; tj + 8 <= tje && (tj + 8) * m <= ow; tj += 8) {
        const std::int8_t* src = m_block + (ti * tw + tj - tile0);
        for (std::int64_t ab = 0; ab < t * t; ++ab) {
          const __m256i lv = _mm256_cvtepi8_epi32(
              _mm_loadl_epi64(reinterpret_cast<const __m128i*>(src + ab * block_stride)));
          M[ab] = _mm256_mul_ps(_mm256_cvtepi32_ps(lv), _mm256_set1_ps(sm[ab]));
        }
        for (std::int64_t i = 0; i < m; ++i) {  // TMP = At * M (smm_nn: skip zeros)
          for (std::int64_t j = 0; j < t; ++j) {
            __m256 acc = _mm256_setzero_ps();
            for (std::int64_t kk = 0; kk < t; ++kk) {
              const float av = at[i * t + kk];
              if (av == 0.F) continue;
              acc = _mm256_add_ps(acc, _mm256_mul_ps(_mm256_set1_ps(av), M[kk * t + j]));
            }
            TMP[i * t + j] = acc;
          }
        }
        for (std::int64_t a = 0; a < m; ++a) {
          for (std::int64_t b = 0; b < m; ++b) {  // Y = TMP * At^T (smm_nt: no skip)
            __m256 acc = _mm256_setzero_ps();
            for (std::int64_t kk = 0; kk < t; ++kk) {
              acc = _mm256_add_ps(acc,
                                  _mm256_mul_ps(TMP[a * t + kk], _mm256_set1_ps(at[b * t + kk])));
            }
            Y[b] = _mm256_add_ps(acc, bv);
          }
          if (m == 2) {
            store_interleave2(frows + a * 16, Y[0], Y[1]);
          } else {
            store_interleave4(frows + a * 32, Y[0], Y[1], Y[2], Y[3]);
          }
        }
        quantize_f32_s8_avx2(frows, qrows, m * 8 * m, o_inv);
        for (std::int64_t a = 0; a < m; ++a) {
          std::memcpy(oplane + (ti * m + a) * ow + tj * m, qrows + a * 8 * m,
                      static_cast<std::size_t>(8 * m));
        }
      }
      for (; tj + 4 <= tje && (tj + 4) * m <= ow; tj += 4) {  // 4-tile group
        const std::int8_t* src = m_block + (ti * tw + tj - tile0);
        for (std::int64_t ab = 0; ab < t * t; ++ab) {
          std::int32_t raw;  // 4-byte load: loadl would read past the block
          std::memcpy(&raw, src + ab * block_stride, 4);
          const __m128i lv = _mm_cvtepi8_epi32(_mm_cvtsi32_si128(raw));
          M4[ab] = _mm_mul_ps(_mm_cvtepi32_ps(lv), _mm_set1_ps(sm[ab]));
        }
        for (std::int64_t i = 0; i < m; ++i) {
          for (std::int64_t j = 0; j < t; ++j) {
            __m128 acc = _mm_setzero_ps();
            for (std::int64_t kk = 0; kk < t; ++kk) {
              const float av = at[i * t + kk];
              if (av == 0.F) continue;
              acc = _mm_add_ps(acc, _mm_mul_ps(_mm_set1_ps(av), M4[kk * t + j]));
            }
            TMP4[i * t + j] = acc;
          }
        }
        for (std::int64_t a = 0; a < m; ++a) {
          for (std::int64_t b = 0; b < m; ++b) {
            __m128 acc = _mm_setzero_ps();
            for (std::int64_t kk = 0; kk < t; ++kk) {
              acc = _mm_add_ps(acc, _mm_mul_ps(TMP4[a * t + kk], _mm_set1_ps(at[b * t + kk])));
            }
            Y4[b] = _mm_add_ps(acc, bv4);
          }
          if (m == 2) {
            store_interleave2_128(frows + a * 8, Y4[0], Y4[1]);
          } else {
            store_interleave4_128(frows + a * 16, Y4[0], Y4[1], Y4[2], Y4[3]);
          }
        }
        quantize_f32_s8_avx2(frows, qrows, m * 4 * m, o_inv);
        for (std::int64_t a = 0; a < m; ++a) {
          std::memcpy(oplane + (ti * m + a) * ow + tj * m, qrows + a * 4 * m,
                      static_cast<std::size_t>(4 * m));
        }
      }
    }
    if (tj < tje) {  // edge/partial tiles: scalar reference path
      scalar_kernels().wino_gather_q_s8(m_block + (ti * tw + tj - tile0), block_stride, sm, at, t,
                                        m, th, tw, ti * tw + tj, tje - tj, oh, ow, bias, o_inv,
                                        oplane);
    }
    tile += tje - tjb;
  }
}

}  // namespace

const KernelTable* avx2_kernel_table() {
  static const KernelTable table = [] {
    KernelTable t;
    t.name = "avx2";
    t.gemm_s8_s32 = gemm_s8_s32_avx2;
    t.gemm_f32_packed_nn = gemm_f32_packed_nn_avx2;
    t.quantize_f32_s8 = quantize_f32_s8_avx2;
    t.quantize_f32_s8_taps = quantize_f32_s8_taps_avx2;
    t.requant_s32_s8 = requant_s32_s8_avx2;
    t.requant_s32_s8_taps = requant_s32_s8_taps_avx2;
    t.residual_add_s8 = residual_add_s8_avx2;
    t.wino_scatter_f32 = wino_scatter_f32_avx2;
    t.wino_gather_f32 = wino_gather_f32_avx2;
    t.wino_scatter_block_f32 = wino_scatter_block_f32_avx2;
    t.gemm_u8s8_s32_k4 = gemm_u8s8_s32_k4_avx2;
    t.wino_gather_q_s8 = wino_gather_q_s8_avx2;
    return t;
  }();
  return &table;
}

}  // namespace wa::backend::simd

#else  // !(__AVX2__ && __FMA__): not an x86 build (or the compiler lacks -mavx2)

namespace wa::backend::simd {
const KernelTable* avx2_kernel_table() { return nullptr; }
}  // namespace wa::backend::simd

#endif
