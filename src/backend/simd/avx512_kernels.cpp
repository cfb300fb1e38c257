// AVX-512/VNNI kernels for the multi-backend dispatch layer
// (kernel_table.hpp).
//
// Compiled with -mavx512f -mavx512bw -mavx512vl -mavx512dq -mavx512vnni (see
// CMakeLists.txt) whenever the compiler supports the flags — even on hosts
// that cannot run it, so CI always builds this TU. kernel_table.cpp gates
// registration on CPUID (F+BW+VL+VNNI) and fills the entries this table does
// not specialize from the resolved AVX2 table (avx512 -> avx2 -> scalar).
//
// This table specializes the int8 GEMM cores and the two elementwise
// (de)quantization sweeps the fused blocked executor leans on:
//   - gemm_s8_s32: the flat row-major GEMM, ported from the AVX2 madd
//     structure to 512-bit lanes with vpdpwssd fusing the madd+add;
//   - gemm_u8s8_s32_k4: the channel-blocked Hadamard core of the fused
//     Winograd path, one vpdpbusd per (row, 16 columns, 4 channels) step.
//     vpdpbusd multiplies unsigned x signed bytes, which is why the blocked
//     U cache stores offset-binary u8 (level + 128); the offset is removed
//     exactly with a per-column sum (see the kernel comment);
//   - quantize_f32_s8 / requant_s32_s8: 16-lane ports of the AVX2 kernels.
//     Per tile block these touch every V and M element, so their width sets a
//     floor on the fused path's cost;
//   - residual_add_s8: the residual join, 16 int8 pairs per step.
// The GEMMs accumulate in int32 with no saturation, and the elementwise
// kernels replay the scalar rounding exactly, so all results are
// bit-identical to the scalar reference.
#include "backend/simd/kernel_table.hpp"

#if defined(__AVX512F__) && defined(__AVX512BW__) && defined(__AVX512VL__) && \
    defined(__AVX512VNNI__)

#include <immintrin.h>

#include <algorithm>
#include <cstring>
#include <limits>

#include "backend/simd/requant_common.hpp"
#include "tensor/arena.hpp"

// GCC expands many 512-bit intrinsics through their masked builtins with an
// undefined pass-through operand, which -Wmaybe-uninitialized flags inside
// avx512fintrin.h (GCC bug 105593). The operand is dead by construction —
// the mask is all-ones — so silence the false positive for this TU.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

namespace wa::backend::simd {
namespace {

// ---- elementwise quantization ----------------------------------------------
//
// 16 floats per step: multiply, clamp, vcvtps2dq (round to nearest even under
// the default MXCSR), then vpmovdb narrows the in-range int32 straight to
// int8. Same instruction semantics as the scalar reference and the AVX2 port,
// so bytes are identical; the tail reuses the scalar kernel outright.

void quantize_f32_s8_avx512(const float* src, std::int8_t* dst, std::int64_t n,
                            float inv_scale) {
  const __m512 inv = _mm512_set1_ps(inv_scale);
  const __m512 lo = _mm512_set1_ps(-127.F);
  const __m512 hi = _mm512_set1_ps(127.F);
  std::int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    // Operand order matters on NaN: vmaxps/vminps return the SECOND operand
    // on unordered, so putting the data first makes the clamp constants win —
    // a NaN input clamps to -127 exactly like the scalar reference.
    const __m512 x =
        _mm512_min_ps(_mm512_max_ps(_mm512_mul_ps(_mm512_loadu_ps(src + i), inv), lo), hi);
    const __m512i q = _mm512_cvtps_epi32(x);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i), _mm512_cvtepi32_epi8(q));
  }
  if (i < n) scalar_kernels().quantize_f32_s8(src + i, dst + i, n - i, inv_scale);
}

// ---- fixed-point requantization --------------------------------------------
//
// The AVX2 port widened to 16 lanes, with the sign blends turned into mask
// ops; the arithmetic is otherwise step-for-step identical.

void requant_s32_s8_avx512(const std::int32_t* acc, std::int8_t* dst, std::int64_t n,
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
  const __m512i m0 = _mm512_set1_epi32(mult.m0);
  const __m512i pos_nudge = _mm512_set1_epi64(std::int64_t{1} << 30);
  const __m512i neg_nudge = _mm512_set1_epi64(1 - (std::int64_t{1} << 30));
  const __m512i trunc_fix = _mm512_set1_epi64((std::int64_t{1} << 31) - 1);
  const __m512i maskv = _mm512_set1_epi32(mask32);
  const __m512i halfv = _mm512_set1_epi32(mask32 >> 1);
  const __m512i lo127 = _mm512_set1_epi32(-127);
  const __m512i hi127 = _mm512_set1_epi32(127);
  const __m512i zero = _mm512_setzero_si512();
  const __m512i one = _mm512_set1_epi32(1);

  // (prod + nudge) / 2^31 with C++ trunc-toward-zero semantics: for negative
  // products add 2^31 - 1 first, then the logical 64-bit shift's low 32 bits
  // equal the arithmetic result (|high| < 2^31 always fits).
  const auto high31 = [&](__m512i prod) {
    const __mmask8 neg = _mm512_cmpgt_epi64_mask(zero, prod);
    __m512i t = _mm512_add_epi64(prod, _mm512_mask_blend_epi64(neg, pos_nudge, neg_nudge));
    t = _mm512_mask_add_epi64(t, neg, t, trunc_fix);
    return _mm512_srli_epi64(t, 31);
  };
  const auto apply16 = [&](__m512i av) {
    const __m512i pe = _mm512_mul_epi32(av, m0);                         // lanes 0,2,...,14
    const __m512i po = _mm512_mul_epi32(_mm512_srli_epi64(av, 32), m0);  // odd lanes
    const __m512i he = high31(pe);
    const __m512i ho = high31(po);
    const __m512i high = _mm512_mask_blend_epi32(0xAAAA, he, _mm512_slli_epi64(ho, 32));
    // Rounding right shift, gemmlowp semantics (round half away from zero).
    const __m512i rem = _mm512_and_si512(high, maskv);
    const __m512i thr = _mm512_add_epi32(halfv, _mm512_srli_epi32(high, 31));
    const __m512i shifted = _mm512_srai_epi32(high, static_cast<unsigned>(s));
    const __mmask16 up = _mm512_cmpgt_epi32_mask(rem, thr);
    const __m512i res = _mm512_mask_add_epi32(shifted, up, shifted, one);
    return _mm512_min_epi32(hi127, _mm512_max_epi32(lo127, res));
  };

  std::int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512i q = apply16(_mm512_loadu_si512(acc + i));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i), _mm512_cvtepi32_epi8(q));
  }
  if (i < n) scalar_kernels().requant_s32_s8(acc + i, dst + i, n - i, mult);
}

// ---- residual join ----------------------------------------------------------
//
// 16 int8 pairs per step, widened to int32. Each branch is the identity or
// the requant high multiply (same 64-bit lane arithmetic as above) followed
// by a left shift for ratios >= 0.5 or the rounding right shift below that;
// join_vector_regime bounds both so the int32 sum is exact, and the relu
// and [-127, 127] clamp fold into one max/min pair.

void residual_add_s8_avx512(const std::int8_t* a, const std::int8_t* b, std::int8_t* out,
                            std::int64_t n, const quant::FixedPointMultiplier* a_mult,
                            const quant::FixedPointMultiplier* b_mult, bool relu) {
  if (!join_vector_regime(a_mult) || !join_vector_regime(b_mult)) {
    scalar_kernels().residual_add_s8(a, b, out, n, a_mult, b_mult, relu);
    return;
  }
  const __m512i zero = _mm512_setzero_si512();
  const __m512i one = _mm512_set1_epi32(1);
  const __m512i pos_nudge = _mm512_set1_epi64(std::int64_t{1} << 30);
  const __m512i neg_nudge = _mm512_set1_epi64(1 - (std::int64_t{1} << 30));
  const __m512i trunc_fix = _mm512_set1_epi64((std::int64_t{1} << 31) - 1);
  const auto high31 = [&](__m512i prod) {
    const __mmask8 neg = _mm512_cmpgt_epi64_mask(zero, prod);
    __m512i t = _mm512_add_epi64(prod, _mm512_mask_blend_epi64(neg, pos_nudge, neg_nudge));
    t = _mm512_mask_add_epi64(t, neg, t, trunc_fix);
    return _mm512_srli_epi64(t, 31);
  };
  // Each branch's multiplier is copied into the closure, so the loop below
  // keeps it in registers (the int8 stores could otherwise alias it).
  const auto make_branch = [&](const quant::FixedPointMultiplier* mult) {
    const bool identity = mult == nullptr;
    const int shift = identity ? 0 : mult->shift;
    const __m512i m0 = _mm512_set1_epi32(identity ? 0 : mult->m0);
    const std::int32_t mask32 = shift > 0 ? requant_round_mask(shift) : 0;
    const __m512i maskv = _mm512_set1_epi32(mask32);
    const __m512i halfv = _mm512_set1_epi32(mask32 >> 1);
    return [=](__m512i v) {
      if (identity) return v;
      const __m512i he = high31(_mm512_mul_epi32(v, m0));
      const __m512i ho = high31(_mm512_mul_epi32(_mm512_srli_epi64(v, 32), m0));
      const __m512i high = _mm512_mask_blend_epi32(0xAAAA, he, _mm512_slli_epi64(ho, 32));
      if (shift <= 0) return _mm512_slli_epi32(high, static_cast<unsigned>(-shift));
      const __m512i rem = _mm512_and_si512(high, maskv);
      const __m512i thr = _mm512_add_epi32(halfv, _mm512_srli_epi32(high, 31));
      const __m512i shifted = _mm512_srai_epi32(high, static_cast<unsigned>(shift));
      return _mm512_mask_add_epi32(shifted, _mm512_cmpgt_epi32_mask(rem, thr), shifted, one);
    };
  };
  const auto branch_a = make_branch(a_mult);
  const auto branch_b = make_branch(b_mult);
  const __m512i lo = _mm512_set1_epi32(relu ? 0 : -127);
  const __m512i hi = _mm512_set1_epi32(127);
  std::int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512i va =
        _mm512_cvtepi8_epi32(_mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i)));
    const __m512i vb =
        _mm512_cvtepi8_epi32(_mm_loadu_si128(reinterpret_cast<const __m128i*>(b + i)));
    const __m512i sum = _mm512_add_epi32(branch_a(va), branch_b(vb));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i),
                     _mm512_cvtepi32_epi8(_mm512_min_epi32(hi, _mm512_max_epi32(lo, sum))));
  }
  if (i < n) scalar_kernels().residual_add_s8(a + i, b + i, out + i, n - i, a_mult, b_mult, relu);
}

// ---- flat int8 GEMM ---------------------------------------------------------
//
// 4 (rows) x 32 (columns) register blocks, two k steps per iteration: int8 B
// rows sign-extended to int16 and interleaved so one vpdpwssd accumulates a
// (k, k+1) pair for 16 columns. The 512-bit unpack works within 128-bit
// chunks, so acc_lo holds columns {0-3, 8-11, 16-19, 24-27} and acc_hi the
// rest; a single permutex2var per store undoes the interleave.

void gemm_s8_s32_avx512(std::int64_t m, std::int64_t n, std::int64_t k, const std::int8_t* a,
                        const std::int8_t* b, std::int32_t* c) {
  const __m512i idx_first =
      _mm512_setr_epi32(0, 1, 2, 3, 16, 17, 18, 19, 4, 5, 6, 7, 20, 21, 22, 23);
  const __m512i idx_second =
      _mm512_setr_epi32(8, 9, 10, 11, 24, 25, 26, 27, 12, 13, 14, 15, 28, 29, 30, 31);
  const std::int64_t mblocks = (m + 3) / 4;
#pragma omp parallel for schedule(static) if (m >= 8)
  for (std::int64_t blk = 0; blk < mblocks; ++blk) {
    const std::int64_t i0 = blk * 4;
    const std::int64_t mr = std::min<std::int64_t>(4, m - i0);
    std::int64_t j0 = 0;
    for (; j0 + 32 <= n; j0 += 32) {
      __m512i acc_lo[4], acc_hi[4];
      for (int r = 0; r < 4; ++r) {
        acc_lo[r] = _mm512_setzero_si512();
        acc_hi[r] = _mm512_setzero_si512();
      }
      std::int64_t kk = 0;
      for (; kk + 2 <= k; kk += 2) {
        const __m512i b0 = _mm512_cvtepi8_epi16(
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + kk * n + j0)));
        const __m512i b1 = _mm512_cvtepi8_epi16(
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + (kk + 1) * n + j0)));
        const __m512i lo = _mm512_unpacklo_epi16(b0, b1);
        const __m512i hi = _mm512_unpackhi_epi16(b0, b1);
        for (std::int64_t r = 0; r < mr; ++r) {
          const std::int32_t a0 = a[(i0 + r) * k + kk];
          const std::int32_t a1 = a[(i0 + r) * k + kk + 1];
          const __m512i av = _mm512_set1_epi32((a1 << 16) | (a0 & 0xFFFF));
          acc_lo[r] = _mm512_dpwssd_epi32(acc_lo[r], av, lo);
          acc_hi[r] = _mm512_dpwssd_epi32(acc_hi[r], av, hi);
        }
      }
      if (kk < k) {  // odd-k tail: pair the last row with an implicit zero row
        const __m512i b0 = _mm512_cvtepi8_epi16(
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + kk * n + j0)));
        const __m512i zero = _mm512_setzero_si512();
        const __m512i lo = _mm512_unpacklo_epi16(b0, zero);
        const __m512i hi = _mm512_unpackhi_epi16(b0, zero);
        for (std::int64_t r = 0; r < mr; ++r) {
          const std::int32_t a0 = a[(i0 + r) * k + kk];
          const __m512i av = _mm512_set1_epi32(a0 & 0xFFFF);
          acc_lo[r] = _mm512_dpwssd_epi32(acc_lo[r], av, lo);
          acc_hi[r] = _mm512_dpwssd_epi32(acc_hi[r], av, hi);
        }
      }
      for (std::int64_t r = 0; r < mr; ++r) {
        std::int32_t* crow = c + (i0 + r) * n + j0;
        _mm512_storeu_si512(crow, _mm512_permutex2var_epi32(acc_lo[r], idx_first, acc_hi[r]));
        _mm512_storeu_si512(crow + 16,
                            _mm512_permutex2var_epi32(acc_lo[r], idx_second, acc_hi[r]));
      }
    }
    // 16-column tail: the AVX2-shaped 256-bit block (VL), vpdpwssd-fused.
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
          acc_lo[r] = _mm256_dpwssd_epi32(acc_lo[r], av, lo);
          acc_hi[r] = _mm256_dpwssd_epi32(acc_hi[r], av, hi);
        }
      }
      if (kk < k) {
        const __m256i b0 = _mm256_cvtepi8_epi16(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + kk * n + j0)));
        const __m256i zero = _mm256_setzero_si256();
        const __m256i lo = _mm256_unpacklo_epi16(b0, zero);
        const __m256i hi = _mm256_unpackhi_epi16(b0, zero);
        for (std::int64_t r = 0; r < mr; ++r) {
          const std::int32_t a0 = a[(i0 + r) * k + kk];
          const __m256i av = _mm256_set1_epi32(a0 & 0xFFFF);
          acc_lo[r] = _mm256_dpwssd_epi32(acc_lo[r], av, lo);
          acc_hi[r] = _mm256_dpwssd_epi32(acc_hi[r], av, hi);
        }
      }
      for (std::int64_t r = 0; r < mr; ++r) {
        std::int32_t* crow = c + (i0 + r) * n + j0;
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(crow),
                            _mm256_permute2x128_si256(acc_lo[r], acc_hi[r], 0x20));
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(crow + 8),
                            _mm256_permute2x128_si256(acc_lo[r], acc_hi[r], 0x31));
      }
    }
    // 4-column tail: 128-bit vpdpwssd (VL). The Winograd tap GEMMs run at
    // n = tiles-in-block, which is 4 on the smallest Fig. 7 planes — without
    // this step those shapes would fall through to the scalar loop below.
    for (; j0 + 4 <= n; j0 += 4) {
      __m128i acc[4];
      for (int r = 0; r < 4; ++r) acc[r] = _mm_setzero_si128();
      const auto load4_s8_to_s16 = [](const std::int8_t* p) {
        std::int32_t raw;
        std::memcpy(&raw, p, 4);
        return _mm_cvtepi8_epi16(_mm_cvtsi32_si128(raw));
      };
      std::int64_t kk = 0;
      for (; kk + 2 <= k; kk += 2) {
        const __m128i b0 = load4_s8_to_s16(b + kk * n + j0);
        const __m128i b1 = load4_s8_to_s16(b + (kk + 1) * n + j0);
        const __m128i pairs = _mm_unpacklo_epi16(b0, b1);
        for (std::int64_t r = 0; r < mr; ++r) {
          const std::int32_t a0 = a[(i0 + r) * k + kk];
          const std::int32_t a1 = a[(i0 + r) * k + kk + 1];
          const __m128i av = _mm_set1_epi32((a1 << 16) | (a0 & 0xFFFF));
          acc[r] = _mm_dpwssd_epi32(acc[r], av, pairs);
        }
      }
      if (kk < k) {
        const __m128i b0 = load4_s8_to_s16(b + kk * n + j0);
        const __m128i pairs = _mm_unpacklo_epi16(b0, _mm_setzero_si128());
        for (std::int64_t r = 0; r < mr; ++r) {
          const std::int32_t a0 = a[(i0 + r) * k + kk];
          const __m128i av = _mm_set1_epi32(a0 & 0xFFFF);
          acc[r] = _mm_dpwssd_epi32(acc[r], av, pairs);
        }
      }
      for (std::int64_t r = 0; r < mr; ++r) {
        _mm_storeu_si128(reinterpret_cast<__m128i*>(c + (i0 + r) * n + j0), acc[r]);
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

// ---- blocked offset-binary GEMM (vpdpbusd) ---------------------------------
//
// B is already in vpdpbusd's native layout ([kpad/4, n, 4]): one instruction
// accumulates 4 channels for 16 columns. The u8 A side holds level + 128;
// since sum((a-128)*b) = sum(a*b) - 128*sum(b), subtracting 128*colsum once
// per column after the k loop removes the offset exactly in int32 (pad
// channels cancel for any B pad value — their a is exactly 128).

void gemm_u8s8_s32_k4_avx512(std::int64_t m, std::int64_t n, std::int64_t kpad,
                             const std::uint8_t* a, const std::int8_t* b, std::int32_t* c) {
  ScratchArena& arena = ScratchArena::for_thread();
  ScratchArena::Scope frame(arena);
  const std::int64_t kq = kpad / 4;
  std::int32_t* colsum = arena.alloc<std::int32_t>(n);
  {
    // Vector colsum pass: vpdpbusd against an all-1s "activation" sums each
    // column's quad (1 * b), so the offset correction costs one dot-product
    // per 16 columns per k-quad instead of a scalar sweep over B.
    const __m512i ones512 = _mm512_set1_epi8(1);
    std::int64_t j0 = 0;
    for (; j0 + 16 <= n; j0 += 16) {
      __m512i cs = _mm512_setzero_si512();
      for (std::int64_t q = 0; q < kq; ++q) {
        cs = _mm512_dpbusd_epi32(cs, ones512, _mm512_loadu_si512(b + (q * n + j0) * 4));
      }
      _mm512_storeu_si512(colsum + j0, cs);
    }
    for (; j0 + 4 <= n; j0 += 4) {
      __m128i cs = _mm_setzero_si128();
      for (std::int64_t q = 0; q < kq; ++q) {
        cs = _mm_dpbusd_epi32(
            cs, _mm_set1_epi8(1),
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + (q * n + j0) * 4)));
      }
      _mm_storeu_si128(reinterpret_cast<__m128i*>(colsum + j0), cs);
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
  const auto bcast_quad = [](const std::uint8_t* p) {
    std::int32_t raw;
    std::memcpy(&raw, p, 4);
    return raw;
  };
  const std::int64_t mblocks = (m + 3) / 4;
  for (std::int64_t blk = 0; blk < mblocks; ++blk) {
    const std::int64_t i0 = blk * 4;
    const std::int64_t mr = std::min<std::int64_t>(4, m - i0);
    std::int64_t j0 = 0;
    for (; j0 + 16 <= n; j0 += 16) {
      __m512i acc[4];
      for (int r = 0; r < 4; ++r) acc[r] = _mm512_setzero_si512();
      for (std::int64_t q = 0; q < kq; ++q) {
        const __m512i bvec = _mm512_loadu_si512(b + (q * n + j0) * 4);
        for (std::int64_t r = 0; r < mr; ++r) {
          const __m512i av = _mm512_set1_epi32(bcast_quad(a + (i0 + r) * kpad + q * 4));
          acc[r] = _mm512_dpbusd_epi32(acc[r], av, bvec);
        }
      }
      const __m512i cs = _mm512_loadu_si512(colsum + j0);
      const __m512i corr = _mm512_slli_epi32(cs, 7);  // 128 * colsum
      for (std::int64_t r = 0; r < mr; ++r) {
        _mm512_storeu_si512(c + (i0 + r) * n + j0, _mm512_sub_epi32(acc[r], corr));
      }
    }
    for (; j0 + 4 <= n; j0 += 4) {  // 4-column tail: 128-bit vpdpbusd (VL)
      __m128i acc[4];
      for (int r = 0; r < 4; ++r) acc[r] = _mm_setzero_si128();
      for (std::int64_t q = 0; q < kq; ++q) {
        const __m128i bvec =
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + (q * n + j0) * 4));
        for (std::int64_t r = 0; r < mr; ++r) {
          const __m128i av = _mm_set1_epi32(bcast_quad(a + (i0 + r) * kpad + q * 4));
          acc[r] = _mm_dpbusd_epi32(acc[r], av, bvec);
        }
      }
      const __m128i cs = _mm_loadu_si128(reinterpret_cast<const __m128i*>(colsum + j0));
      const __m128i corr = _mm_slli_epi32(cs, 7);
      for (std::int64_t r = 0; r < mr; ++r) {
        _mm_storeu_si128(reinterpret_cast<__m128i*>(c + (i0 + r) * n + j0),
                         _mm_sub_epi32(acc[r], corr));
      }
    }
    for (; j0 < n; ++j0) {  // last 1-3 columns: scalar, identical integer sums
      for (std::int64_t r = 0; r < mr; ++r) {
        const std::uint8_t* arow = a + (i0 + r) * kpad;
        std::int32_t acc = 0;
        for (std::int64_t q = 0; q < kq; ++q) {
          const std::int8_t* bq = b + (q * n + j0) * 4;
          for (std::int64_t rr = 0; rr < 4; ++rr) {
            acc += (static_cast<std::int32_t>(arow[q * 4 + rr]) - 128) *
                   static_cast<std::int32_t>(bq[rr]);
          }
        }
        c[(i0 + r) * n + j0] = acc;
      }
    }
  }
}

}  // namespace

const KernelTable* avx512_kernel_table() {
  static const KernelTable table = [] {
    KernelTable t;
    t.name = "avx512";
    t.gemm_s8_s32 = gemm_s8_s32_avx512;
    t.gemm_u8s8_s32_k4 = gemm_u8s8_s32_k4_avx512;
    t.quantize_f32_s8 = quantize_f32_s8_avx512;
    t.requant_s32_s8 = requant_s32_s8_avx512;
    t.residual_add_s8 = residual_add_s8_avx512;
    // Everything else inherits the resolved AVX2 entries (kernel_table.cpp
    // fills nulls from avx2 when it is compiled in, else scalar).
    return t;
  }();
  return &table;
}

}  // namespace wa::backend::simd

#else  // ISA not compiled in: non-x86 build or compiler without -mavx512*

namespace wa::backend::simd {
const KernelTable* avx512_kernel_table() { return nullptr; }
}  // namespace wa::backend::simd

#endif
