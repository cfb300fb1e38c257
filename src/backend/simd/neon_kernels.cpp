// NEON kernels for the multi-backend dispatch layer (kernel_table.hpp).
//
// Compiled in only on AArch64 (the #else stub keeps every other architecture
// linking). The int8 GEMM uses the SDOT (vdotq_s32) path when the build
// enables the dot-product extension (__ARM_FEATURE_DOT_PRODUCT — configure
// with -DWA_NEON_DOTPROD=ON, which adds -march=armv8.2-a+dotprod; the
// Cortex-A75/A55 class cores the paper's latency model targets support it);
// otherwise it falls back to widening multiply-accumulates (vmlal_s16),
// which every ARMv8-A core executes.
//
// The Winograd transform kernels are left null here: the registry fills them
// from the scalar reference per-kernel, so this backend accelerates the
// integer hot path (GEMM + requantization + quantization) and inherits
// bit-exact scalar transforms. The blocked-executor entries
// (wino_scatter_q4_s8 / gemm_u8s8_s32_k4 / wino_gather_q_s8) are null for
// the same reason — the fused path still runs on NEON hosts, just with
// scalar transforms and a scalar k4 GEMM; a UDOT (vdotq_u32 on the
// offset-binary u8 side) port of gemm_u8s8_s32_k4 is the natural next
// NEON-specific win. This table cannot be exercised on the x86 CI
// runners; tests/test_simd_backends validates it on any AArch64 host that
// builds it, against the same conformance suite as AVX2.
#include "backend/simd/kernel_table.hpp"

#if defined(__aarch64__)

#include <arm_neon.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "backend/simd/requant_common.hpp"

namespace wa::backend::simd {
namespace {

#if defined(__ARM_FEATURE_DOT_PRODUCT)

// SDOT path: interleave four consecutive int8 B rows so each 32-bit lane
// holds the (k..k+3) column group one vdotq_s32 reduces. Accumulation is
// int32, same as the scalar kernel, so results are identical.
void gemm_rows_dotprod(std::int64_t i, std::int64_t n, std::int64_t k, const std::int8_t* a,
                       const std::int8_t* b, std::int32_t* c) {
  std::int32_t* crow = c + i * n;
  for (std::int64_t j = 0; j < n; ++j) crow[j] = 0;
  std::int64_t kk = 0;
  for (; kk + 4 <= k; kk += 4) {
    std::int32_t quad;
    std::memcpy(&quad, a + i * k + kk, 4);  // a[kk..kk+3] as one 32-bit group
    const int8x16_t av = vreinterpretq_s8_s32(vdupq_n_s32(quad));
    const std::int8_t* r0 = b + kk * n;
    const std::int8_t* r1 = r0 + n;
    const std::int8_t* r2 = r1 + n;
    const std::int8_t* r3 = r2 + n;
    std::int64_t j = 0;
    for (; j + 4 <= n; j += 4) {
      // Transpose the 4x4 int8 block [rows kk..kk+3, cols j..j+3] so lane g
      // holds column j+g's (k..k+3) group, then let SDOT do the reduction
      // (the grouping stores are cheap next to the 16 MACs one vdotq folds).
      std::int8_t groups[16];
      for (int g = 0; g < 4; ++g) {
        groups[4 * g + 0] = r0[j + g];
        groups[4 * g + 1] = r1[j + g];
        groups[4 * g + 2] = r2[j + g];
        groups[4 * g + 3] = r3[j + g];
      }
      const int32x4_t prev = vld1q_s32(crow + j);
      vst1q_s32(crow + j, vdotq_s32(prev, av, vld1q_s8(groups)));
    }
    for (; j < n; ++j) {
      std::int32_t acc = crow[j];
      acc += static_cast<std::int32_t>(a[i * k + kk]) * r0[j];
      acc += static_cast<std::int32_t>(a[i * k + kk + 1]) * r1[j];
      acc += static_cast<std::int32_t>(a[i * k + kk + 2]) * r2[j];
      acc += static_cast<std::int32_t>(a[i * k + kk + 3]) * r3[j];
      crow[j] = acc;
    }
  }
  for (; kk < k; ++kk) {  // k tail
    const std::int32_t av = a[i * k + kk];
    if (av == 0) continue;
    const std::int8_t* brow = b + kk * n;
    for (std::int64_t j = 0; j < n; ++j) crow[j] += av * static_cast<std::int32_t>(brow[j]);
  }
}

#endif  // __ARM_FEATURE_DOT_PRODUCT

// Widening multiply-accumulate path: per k, broadcast a[i,k] and vmlal over
// 8 int8 B columns widened to int16.
void gemm_rows_mlal(std::int64_t i, std::int64_t n, std::int64_t k, const std::int8_t* a,
                    const std::int8_t* b, std::int32_t* c) {
  std::int32_t* crow = c + i * n;
  for (std::int64_t j = 0; j < n; ++j) crow[j] = 0;
  for (std::int64_t kk = 0; kk < k; ++kk) {
    const std::int16_t av = a[i * k + kk];
    if (av == 0) continue;
    const std::int8_t* brow = b + kk * n;
    std::int64_t j = 0;
    for (; j + 8 <= n; j += 8) {
      const int16x8_t bw = vmovl_s8(vld1_s8(brow + j));
      int32x4_t lo = vld1q_s32(crow + j);
      int32x4_t hi = vld1q_s32(crow + j + 4);
      lo = vmlal_n_s16(lo, vget_low_s16(bw), av);
      hi = vmlal_n_s16(hi, vget_high_s16(bw), av);
      vst1q_s32(crow + j, lo);
      vst1q_s32(crow + j + 4, hi);
    }
    for (; j < n; ++j) crow[j] += static_cast<std::int32_t>(av) * brow[j];
  }
}

void gemm_s8_s32_neon(std::int64_t m, std::int64_t n, std::int64_t k, const std::int8_t* a,
                      const std::int8_t* b, std::int32_t* c) {
#pragma omp parallel for schedule(static) if (m >= 8)
  for (std::int64_t i = 0; i < m; ++i) {
#if defined(__ARM_FEATURE_DOT_PRODUCT)
    gemm_rows_dotprod(i, n, k, a, b, c);
#else
    gemm_rows_mlal(i, n, k, a, b, c);
#endif
  }
}

void quantize_f32_s8_neon(const float* src, std::int8_t* dst, std::int64_t n, float inv_scale) {
  const float32x4_t lo = vdupq_n_f32(-127.F);
  const float32x4_t hi = vdupq_n_f32(127.F);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    // vmaxnm/vminnm (not vmax/vmin): FMAXNM returns the number when one
    // operand is NaN, so a NaN input clamps to -127 exactly like the scalar
    // reference's std::max(-127.F, NaN); plain FMAX would propagate the NaN
    // into vcvtnq and emit 0 instead.
    const float32x4_t x0 =
        vminnmq_f32(vmaxnmq_f32(vmulq_n_f32(vld1q_f32(src + i), inv_scale), lo), hi);
    const float32x4_t x1 =
        vminnmq_f32(vmaxnmq_f32(vmulq_n_f32(vld1q_f32(src + i + 4), inv_scale), lo), hi);
    // vcvtnq: round to nearest even — the scalar reference's nearbyintf.
    const int16x8_t q16 = vcombine_s16(vqmovn_s32(vcvtnq_s32_f32(x0)),
                                       vqmovn_s32(vcvtnq_s32_f32(x1)));
    vst1_s8(dst + i, vqmovn_s16(q16));
  }
  // Tail: the canonical scalar reference, so there is exactly one
  // implementation of the bit-exactness-critical loop.
  if (i < n) scalar_kernels().quantize_f32_s8(src + i, dst + i, n - i, inv_scale);
}

void requant_s32_s8_neon(const std::int32_t* acc, std::int8_t* dst, std::int64_t n,
                         quant::FixedPointMultiplier mult) {
  // Regime guard and rounding mask shared with the x86 backends
  // (requant_common.hpp); everything else is handled by the scalar reference.
  if (!requant_vector_regime(mult)) {
    scalar_kernels().requant_s32_s8(acc, dst, n, mult);
    return;
  }
  const int s = mult.shift;
  const std::int32_t mask32 = requant_round_mask(s);
  const int32x4_t maskv = vdupq_n_s32(mask32);
  const int32x4_t halfv = vdupq_n_s32(mask32 >> 1);
  const int32x4_t sneg = vdupq_n_s32(-s);
  const int32x4_t lo127 = vdupq_n_s32(-127);
  const int32x4_t hi127 = vdupq_n_s32(127);
  const auto apply4 = [&](int32x4_t av) {
    // SQRDMULH is *exactly* apply_multiplier's saturating rounding doubling
    // high multiply (gemmlowp mirrors the ARM instruction).
    const int32x4_t high = vqrdmulhq_n_s32(av, mult.m0);
    const int32x4_t rem = vandq_s32(high, maskv);
    // threshold = mask/2 + (high < 0): vshrq by 31 gives -1 for negatives.
    const int32x4_t thr = vsubq_s32(halfv, vshrq_n_s32(high, 31));
    const int32x4_t shifted = vshlq_s32(high, sneg);  // arithmetic shift right by s
    const int32x4_t res =
        vsubq_s32(shifted, vreinterpretq_s32_u32(vcgtq_s32(rem, thr)));
    return vminq_s32(hi127, vmaxq_s32(lo127, res));
  };
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const int32x4_t q0 = apply4(vld1q_s32(acc + i));
    const int32x4_t q1 = apply4(vld1q_s32(acc + i + 4));
    vst1_s8(dst + i, vqmovn_s16(vcombine_s16(vqmovn_s32(q0), vqmovn_s32(q1))));
  }
  if (i < n) scalar_kernels().requant_s32_s8(acc + i, dst + i, n - i, mult);
}

}  // namespace

const KernelTable* neon_kernel_table() {
  static const KernelTable table = [] {
    KernelTable t;
    t.name = "neon";
    t.gemm_s8_s32 = gemm_s8_s32_neon;
    t.quantize_f32_s8 = quantize_f32_s8_neon;
    t.requant_s32_s8 = requant_s32_s8_neon;
    // gemm_f32_packed_nn, the Winograd transforms and the k4 GEMM stay null:
    // the registry fills them from the scalar reference.
    return t;
  }();
  return &table;
}

}  // namespace wa::backend::simd

#else  // !__aarch64__

namespace wa::backend::simd {
const KernelTable* neon_kernel_table() { return nullptr; }
}  // namespace wa::backend::simd

#endif
