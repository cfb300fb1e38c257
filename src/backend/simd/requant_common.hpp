// Shared fixed-point requantization logic for the SIMD backends: the scalar
// reference loop's contract, the vector-path regime guards and the
// rounding-mask derivation. They are bit-exactness-critical — a backend that
// disagrees with the scalar reference on any (acc, mult) pair corrupts
// logits silently — so each is stated here once instead of in every backend
// TU (scalar/avx2/avx512/neon).
#pragma once

#include <cstdint>
#include <limits>

#include "quant/requant.hpp"

namespace wa::backend::simd {

/// The canonical requantization loop: dst[i] =
/// saturate_8(apply_multiplier(acc[i], mult)). This is THE reference every
/// SIMD kernel must match byte-for-byte; scalar_kernels.cpp registers exactly
/// this function, and every SIMD backend's tail/fallback routes here (via
/// scalar_kernels(), so there is one compiled definition of the loop).
inline void requant_s32_s8_ref(const std::int32_t* acc, std::int8_t* dst, std::int64_t n,
                               quant::FixedPointMultiplier mult) {
  for (std::int64_t i = 0; i < n; ++i) {
    dst[i] = static_cast<std::int8_t>(quant::saturate(quant::apply_multiplier(acc[i], mult), 8));
  }
}

/// True when `mult` is in the regime the SIMD lanes model: a positive Q31
/// multiplier (quantize_multiplier yields m0 in [2^30, 2^31)) and a rounding
/// right shift in [1, 31]. Anything else — ratio >= 1 (shift <= 0), a ratio
/// so tiny the shift exceeds 31 — is rare enough that every backend takes the
/// scalar reference for it.
constexpr bool requant_vector_regime(quant::FixedPointMultiplier mult) {
  return mult.shift >= 1 && mult.shift <= 31 && mult.m0 >= (std::int32_t{1} << 30);
}

/// True when the residual join's vector lanes replay `mult` exactly: the
/// identity (null), or a positive Q31 multiplier with a shift in [-23, 31].
/// On int8 levels (|v| <= 128) the high multiply lands in [-128, 127], so a
/// left shift by up to 23 stays within [-2^30, 2^30) and the sum of two
/// branches within int32 — no saturation step is ever reached. Joins use
/// ratios near 1 (shift <= 0), which requant_vector_regime excludes.
constexpr bool join_vector_regime(const quant::FixedPointMultiplier* mult) {
  return mult == nullptr || (mult->shift >= -23 && mult->shift <= 31 &&
                             mult->m0 >= (std::int32_t{1} << 30));
}

/// Low-bits mask of the rounding right shift by `s` (gemmlowp semantics,
/// round half away from zero): rem = high & mask, threshold = mask/2 +
/// (high < 0), result = (high >> s) + (rem > threshold). s == 31 needs the
/// INT32_MAX special case because 1 << 31 overflows.
constexpr std::int32_t requant_round_mask(int s) {
  return (s == 31) ? std::numeric_limits<std::int32_t>::max()
                   : ((std::int32_t{1} << s) - 1);
}

}  // namespace wa::backend::simd
