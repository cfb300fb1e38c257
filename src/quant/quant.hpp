// Uniform symmetric quantization (per-layer), after Krishnamoorthi (2018).
//
// The paper trains with INT16 / INT10 / INT8 weights and activations and
// quantizes *every* intermediate output of the Winograd pipeline (the Qx
// boxes of Fig. 2) to the same level. All of that reduces to the fake-quant
// primitive here: clamp(round(x / s), -qmax, qmax) * s with a straight-
// through estimator whose gradient is masked where the clamp saturated.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "tensor/tensor.hpp"

namespace wa::quant {

/// Mapping between real values and integer levels.
///  * kSymmetric — zero-point fixed at 0, range ±qmax. The paper's scheme.
///  * kAffine — learned zero-point, full two's-complement range (Jacob et
///    al. 2018); the extension the paper's discussion section suggests.
enum class QuantScheme { kSymmetric, kAffine };

/// Bit-width configuration. bits == 32 means "leave values untouched"
/// (the FP32 rows of the paper's tables).
struct QuantSpec {
  int bits = 8;
  QuantScheme scheme = QuantScheme::kSymmetric;

  constexpr bool is_float() const { return bits >= 32; }
  constexpr bool is_affine() const { return scheme == QuantScheme::kAffine; }
  /// Largest representable magnitude level: 2^(bits-1) - 1 (symmetric range,
  /// no negative-extreme asymmetry, as in per-layer symmetric quantization).
  std::int64_t qmax() const { return (std::int64_t{1} << (bits - 1)) - 1; }

  std::string to_string() const {
    if (is_float()) return "fp32";
    return "int" + std::to_string(bits) + (is_affine() ? "a" : "");
  }

  friend bool operator==(const QuantSpec&, const QuantSpec&) = default;
};

/// Scale so that `abs_max` maps to qmax. Guards against degenerate ranges.
float scale_for(float abs_max, const QuantSpec& spec);

/// Fake-quantize `x` in place with the given scale; returns the number of
/// clipped (saturated) elements. If `clip_mask` is non-null it is resized to
/// numel and set to 1 where the value stayed inside the representable range
/// (i.e. where the STE passes gradient) and 0 where it clipped.
std::int64_t fake_quant_(Tensor& x, float scale, const QuantSpec& spec,
                         std::vector<std::uint8_t>* clip_mask = nullptr);

/// Out-of-place convenience wrapper around fake_quant_.
Tensor fake_quant(const Tensor& x, float scale, const QuantSpec& spec);

/// Zero `t` wherever `mask` is 0 (the STE backward of a clip mask); an empty
/// mask passes every element.
void apply_ste_mask(Tensor& t, const std::vector<std::uint8_t>& mask);

/// Per-slab ranges of `d[0, n)`: slab s covers [s*slab, min((s+1)*slab, n))
/// and gets lo[s] / hi[s] folded from +inf / -inf in index order with the
/// strict comparisons of std::min / std::max, so NaNs are skipped and the
/// first of equal values (-0 vs +0) is kept. Slabs split across the OpenMP
/// team; each slab's result is independent of the split, and folding the
/// slab results in index order reproduces the serial sweep bit-for-bit.
void slab_ranges(const float* d, std::int64_t n, std::int64_t slab, float* lo, float* hi);

/// {x.min(), x.max()} (std::min_element / std::max_element semantics,
/// {0, 0} when empty) in one team-parallel sweep.
std::pair<float, float> value_range(const Tensor& x);

/// Quantize to integer levels: round(clamp(x/s)) as int32 (fits any bits<=16).
std::vector<std::int32_t> quantize_levels(const Tensor& x, float scale, const QuantSpec& spec);

/// Reconstruct floats from integer levels.
Tensor dequantize_levels(const std::vector<std::int32_t>& q, const Shape& shape, float scale);

/// Root-mean-square error introduced by fake-quantizing `x` at `spec` with
/// the ideal (abs-max) scale. Used by the numerical-error analyses.
float quantization_rmse(const Tensor& x, const QuantSpec& spec);

}  // namespace wa::quant
