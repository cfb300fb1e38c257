// Integer-domain tensor ops for the int8 deployment pipeline.
//
// Everything between convolutions runs directly on int8 levels: with
// symmetric per-layer quantization real 0.0 is exactly level 0, so ReLU and
// max-pool are order-preserving level operations and never need the scale.
// Ops that cross scale domains (skip-add, deployed batch-norm) rescale with
// fixed-point multipliers, never float math on the activations; only
// rescale_s8, for an operand that reaches a stage at another scale, remaps
// by a float ratio.
//
// Every int8 -> int8 pass whose output level depends only on its input level
// (the batch-norm affine of each channel, requant, each concat branch's
// remap, rescale) runs as a level map: a 256-entry table filled by
// evaluating the pass's reference formula once at every input level — at
// load, except for rescale, whose ratio is known only per call — then
// applied as one load per element. The lookup returns exactly what the
// formula returns, so the maps change no bit.
#pragma once

#include <array>
#include <cstddef>
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

/// An int8 level map: entry x + 128 is the output level of input level x.
using LevelMapS8 = std::array<std::int8_t, 256>;

/// Fill a level map by evaluating `f(x)` (int8 level -> int8 level) once at
/// each of the 256 input levels.
template <typename F>
LevelMapS8 make_level_map(F&& f) {
  LevelMapS8 map{};
  for (int x = -128; x < 128; ++x) map[static_cast<std::size_t>(x + 128)] = f(x);
  return map;
}

/// dst[i] = map[src[i] + 128], raised to level 0 when `relu` (a map's
/// levels are already saturated, so ReLU after the lookup equals ReLU before
/// the saturation). `dst` may alias `src`.
void apply_level_map_s8(const std::int8_t* src, std::int8_t* dst, std::int64_t n,
                        const LevelMapS8& map, bool relu);

/// The requant map sat8(r(x)), where r is the identity or
/// quant::apply_multiplier(x, mult).
LevelMapS8 requant_level_map(quant::FixedPointMultiplier mult, bool identity);

/// Level remap from one scale domain to another, frozen as a fixed-point
/// multiplier at load time. `identity` short-circuits the exact ratio-1 case
/// (the Q31 round trip is not bit-exact for a multiplier of exactly 1.0).
/// `levels` is requant_level_map(mult, identity), the map requant_s8_ and
/// concat_s8 apply: make_requant_ratio and the .wam loader derive it, and a
/// default-constructed ratio holds the identity's.
struct RequantRatio {
  quant::FixedPointMultiplier mult;
  bool identity = true;
  LevelMapS8 levels = requant_level_map({}, true);
};

RequantRatio make_requant_ratio(float from_scale, float to_scale);

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
/// are requantized onto `out_scale` via their ratios' level maps and written
/// into adjacent channel ranges of a fresh [N, C1+C2, H, W] tensor,
/// optionally ReLU-ed. Operands must be 4-d with equal N/H/W. Never in
/// place — the output is strictly larger than either operand.
backend::QTensor concat_s8(const backend::QTensor& lhs, const backend::QTensor& rhs,
                           const RequantRatio& lhs_ratio, const RequantRatio& rhs_ratio,
                           float out_scale, bool relu);

/// Float level remap onto `target_scale`: x[i] = sat8(nearbyint(x[i] *
/// (x.scale / target_scale))) through a level map filled per call. Returns
/// x unchanged when target_scale <= 0 or the scales differ by under 1e-12.
/// The pipeline runs it on an operand whose scale is not the one its stage
/// expects.
backend::QTensor rescale_s8(backend::QTensor x, float target_scale);

/// Fixed-point level remap applied in place through ratio.levels:
/// x[i] = sat8(r(x[i])), x.scale = out_scale. This is the standalone
/// RequantStage body and the fused requant epilogue — one code path, so
/// fusing cannot change a bit.
void requant_s8_(backend::QTensor& x, const RequantRatio& ratio, float out_scale);

/// Per-channel integer affine y_c = A_c * x_c + B_c — deployed batch-norm.
/// Prepared once at load as a fused Q-format multiply-add: per channel a
/// signed multiplier m0 (gamma can go negative during training) and a bias
/// pre-scaled into the same 2^exp domain, so the whole affine pays exactly
/// one rounding — round((m0 * x + bias_q) * 2^-exp) — instead of rounding
/// the multiply and the bias separately (which can drift past one output
/// level when |A_c| * s_in / s_out > 1). Each channel's affine then runs as
/// its level map (`levels`), derived from m0/exp/bias_q and never saved.
struct ChannelAffineS8 {
  std::vector<std::int32_t> m0;      // signed multiplier, magnitude in Q(exp)
  std::vector<std::int8_t> exp;      // per-channel right shift, 0..46
  std::vector<std::int64_t> bias_q;  // round(B_c / out_scale * 2^exp)
  float out_scale = 1.F;
  std::vector<LevelMapS8> levels;    // one per channel: fill_affine_levels
  bool empty() const { return m0.empty(); }
};

/// `scale`/`bias` are the per-channel A/B in real units (e.g. from
/// batch-norm: A = gamma / sqrt(var + eps), B = beta - A * mean); every
/// entry must be finite. The result carries its level maps.
ChannelAffineS8 prepare_channel_affine_s8(const Tensor& scale, const Tensor& bias,
                                          float in_scale, float out_scale);

/// Derive p.levels from m0/exp/bias_q: channel c's map is
/// sat8(round((m0_c * x + bias_q_c) * 2^-exp_c)) at every input level x,
/// rounding half away from zero. Requires equal-length tables and every
/// exp in [0, 46]. Called where an affine is prepared and where a .wam
/// affine is loaded — never on a forward, which two threads may run at once.
void fill_affine_levels(ChannelAffineS8& p);

/// Apply a prepared per-channel affine to [N,C,H,W] or [N,C] levels through
/// its level maps, optionally fusing ReLU, saturating to int8 at
/// p.out_scale. Throws if p.levels was never filled.
backend::QTensor channel_affine_s8(const backend::QTensor& x, const ChannelAffineS8& p,
                                   bool relu);

/// channel_affine_s8 applied in place (the fused batch-norm epilogue): same
/// per-element kernel with src == dst, so the result is bit-identical to
/// the out-of-place stage.
void channel_affine_s8_(backend::QTensor& x, const ChannelAffineS8& p, bool relu);

}  // namespace wa::deploy
