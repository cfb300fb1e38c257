// Integer-domain tensor ops for the int8 deployment pipeline.
//
// Everything between convolutions runs directly on int8 levels: with
// symmetric per-layer quantization real 0.0 is exactly level 0, so ReLU and
// max-pool are order-preserving level operations and never need the scale.
// Ops that cross scale domains (skip-add, deployed batch-norm) rescale with
// fixed-point multipliers, never float math on the activations.
#pragma once

#include <vector>

#include "backend/qtensor.hpp"
#include "quant/requant.hpp"

namespace wa::deploy {

/// max(0, x) on levels (exact: symmetric scale maps level 0 to real 0).
backend::QTensor relu_s8(backend::QTensor x);

/// 2-D max pooling on levels (exact: max commutes with a positive scale).
backend::QTensor max_pool_s8(const backend::QTensor& x, std::int64_t kernel, std::int64_t stride);

/// Global average pool [N,C,H,W] -> [N,C]: int32 sum, rounded level mean.
backend::QTensor global_avg_pool_s8(const backend::QTensor& x);

/// Collapse [N, ...] to [N, features]; levels and scale unchanged.
backend::QTensor flatten_s8(backend::QTensor x);

/// Linear weights repacked once at load: [O, F] -> [F, O] so the per-forward
/// GEMM consumes them directly (the conv layers got the same treatment in
/// prepare_im2row_weights_s8).
struct LinearWeightsS8 {
  std::vector<std::int8_t> wt;  // [F, O]
  float scale = 1.F;
  std::int64_t out_features = 0;
  std::int64_t in_features = 0;
  bool empty() const { return wt.empty(); }
};

LinearWeightsS8 prepare_linear_weights_s8(const backend::QTensor& weights);

/// Fully connected from prepared weights: y = x [N,F] * Wᵀ [O,F] + b,
/// int8 x int8 -> int32 with fixed-point requantization to int8 at
/// `out_scale` (derived from the accumulator abs-max when non-positive).
/// `bias` may be empty. No repack at run time.
backend::QTensor linear_s8_prepared(const backend::QTensor& x, const LinearWeightsS8& weights,
                                    const Tensor& bias, float out_scale = -1.F);

/// Level remap from one scale domain to another, frozen as a fixed-point
/// multiplier at load time. `identity` short-circuits the exact ratio-1 case
/// (the Q31 round trip is not bit-exact for a multiplier of exactly 1.0).
struct RequantRatio {
  quant::FixedPointMultiplier mult;
  bool identity = true;
};

RequantRatio make_requant_ratio(float from_scale, float to_scale);

inline std::int32_t apply_ratio(std::int32_t v, const RequantRatio& r) {
  return r.identity ? v : quant::apply_multiplier(v, r.mult);
}

/// Level-aligned residual add: both operands are requantized onto
/// `out_scale` via their prepared ratios, summed in int64 (each requantized
/// branch can sit at the int32 saturation rail, so an int32 join could
/// wrap), optionally ReLU-ed, and saturated to int8. Shapes must match
/// exactly.
backend::QTensor add_s8(const backend::QTensor& lhs, const backend::QTensor& rhs,
                        const RequantRatio& lhs_ratio, const RequantRatio& rhs_ratio,
                        float out_scale, bool relu);

/// add_s8 writing the join INTO `dst` (the memory plan's in-place residual
/// add — used when one branch dies at the join, so its buffer can carry the
/// result). `dst_ratio` belongs to dst, `other_ratio` to other; the
/// element arithmetic is identical to add_s8, so the result is bit-identical
/// regardless of which operand hosts it. `other` may alias `dst`.
void add_s8_into(backend::QTensor& dst, const backend::QTensor& rhs,
                 const RequantRatio& dst_ratio, const RequantRatio& other_ratio,
                 float out_scale, bool relu);

/// Level-aligned channel concatenation (the fire-module join): both operands
/// are requantized onto `out_scale` via their prepared ratios and written
/// into adjacent channel ranges of a fresh [N, C1+C2, H, W] tensor,
/// optionally ReLU-ed. Operands must be 4-d with equal N/H/W. Never in
/// place — the output is strictly larger than either operand.
backend::QTensor concat_s8(const backend::QTensor& lhs, const backend::QTensor& rhs,
                           const RequantRatio& lhs_ratio, const RequantRatio& rhs_ratio,
                           float out_scale, bool relu);

/// Fixed-point level remap applied in place: x[i] = sat8(apply_ratio(x[i])),
/// x.scale = out_scale. This is the standalone RequantStage body and the
/// fused requant epilogue — one code path, so fusing cannot change a bit.
void requant_s8_(backend::QTensor& x, const RequantRatio& ratio, float out_scale);

/// Per-channel integer affine y_c = A_c * x_c + B_c — deployed batch-norm.
/// Prepared once at load as a fused Q-format multiply-add: per channel a
/// signed multiplier m0 (gamma can go negative during training) and a bias
/// pre-scaled into the same 2^exp domain, so the whole affine pays exactly
/// one rounding — round((m0 * x + bias_q) * 2^-exp) — instead of rounding
/// the multiply and the bias separately (which can drift past one output
/// level when |A_c| * s_in / s_out > 1).
struct ChannelAffineS8 {
  std::vector<std::int32_t> m0;      // signed multiplier, magnitude in Q(exp)
  std::vector<std::int8_t> exp;      // per-channel right shift, 0..46
  std::vector<std::int64_t> bias_q;  // round(B_c / out_scale * 2^exp)
  float out_scale = 1.F;
  bool empty() const { return m0.empty(); }
};

/// `scale`/`bias` are the per-channel A/B in real units (e.g. from
/// batch-norm: A = gamma / sqrt(var + eps), B = beta - A * mean).
ChannelAffineS8 prepare_channel_affine_s8(const Tensor& scale, const Tensor& bias,
                                          float in_scale, float out_scale);

/// Apply a prepared per-channel affine to [N,C,H,W] or [N,C] levels,
/// optionally fusing ReLU, saturating to int8 at p.out_scale.
backend::QTensor channel_affine_s8(const backend::QTensor& x, const ChannelAffineS8& p,
                                   bool relu);

/// channel_affine_s8 applied in place (the fused batch-norm epilogue): same
/// per-element kernel with src == dst, so the result is bit-identical to
/// the out-of-place stage.
void channel_affine_s8_(backend::QTensor& x, const ChannelAffineS8& p, bool relu);

}  // namespace wa::deploy
