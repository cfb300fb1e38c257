// Helpers shared by the passes (not part of the public surface).
#pragma once

#include "deploy/passes/passes.hpp"

namespace wa::deploy::passes::internal {

/// The three rewrites optimize_pipeline() runs, in this order. Each may
/// assume the pipeline's wiring is valid on entry and leaves it valid
/// (re-pushing rewritten nodes re-validates).
/// Folds chained relu/requant/bn stages into their producers' epilogues
/// where bit-preserving; returns the number of stages folded.
std::size_t fuse_stages(Int8Pipeline& pipe);
/// Drops every stage whose result cannot reach the output; returns how many.
std::size_t eliminate_dead_stages(Int8Pipeline& pipe);
/// Computes the in-place marks and peaks for `reference_input` and attaches
/// them as the pipeline's MemoryPlan.
void plan_memory(Int8Pipeline& pipe, const Shape& reference_input);

/// The scale a stage expects on one of its operands before it runs (the
/// executor rescales onto it; identity when the producer already matches).
/// -1 when the stage consumes levels at whatever scale arrives
/// (pool/flatten/avg-pool/relu).
inline float expected_input_scale(const Stage& s, int operand) {
  return std::visit(
      [operand](const auto& st) -> float {
        using T = std::decay_t<decltype(st)>;
        if constexpr (std::is_same_v<T, ConvStage>) return st.input_scale;
        else if constexpr (std::is_same_v<T, LinearStage>) return st.input_scale;
        else if constexpr (std::is_same_v<T, BnStage>) return st.input_scale;
        else if constexpr (std::is_same_v<T, RequantStage>) return st.input_scale;
        else if constexpr (std::is_same_v<T, AddStage> || std::is_same_v<T, ConcatStage>) {
          return operand == 0 ? st.lhs_scale : st.rhs_scale;
        } else {
          return -1.F;
        }
      },
      s);
}

/// The scale of a node's result AFTER its epilogues, given the scale of its
/// (first) input value. -1 when unknown (dynamic scales). Mirrors what
/// run() produces so the planner's rescale-copy analysis matches execution.
inline float node_result_scale(const Int8Pipeline::Node& node, float in_scale) {
  float base = std::visit(
      [in_scale](const auto& st) -> float {
        using T = std::decay_t<decltype(st)>;
        if constexpr (std::is_same_v<T, ConvStage>) {
          return nn::is_winograd(st.algo) ? st.stage_scales.output : st.output_scale;
        } else if constexpr (std::is_same_v<T, LinearStage>) {
          return st.output_scale;
        } else if constexpr (std::is_same_v<T, BnStage>) {
          return st.output_scale;
        } else if constexpr (std::is_same_v<T, AddStage>) {
          return st.output_scale;
        } else if constexpr (std::is_same_v<T, ConcatStage>) {
          return st.output_scale;
        } else if constexpr (std::is_same_v<T, RequantStage>) {
          return st.output_scale;
        } else {
          return in_scale;  // pool/flatten/avg-pool/relu pass levels through
        }
      },
      node.op);
  for (const EpilogueOp& ep : node.epilogue) {
    if (ep.kind == EpilogueOp::Kind::kRequant) base = ep.out_scale;
    if (ep.kind == EpilogueOp::Kind::kAffine) base = ep.affine.out_scale;
    // kRelu preserves the scale.
  }
  return base;
}

/// The planner's conservative form of the executor's rescale predicate:
/// an unknown (dynamic) producer scale must be assumed to copy.
inline bool rescale_would_copy(float current, float target) {
  if (target <= 0.F) return false;
  if (current <= 0.F) return true;  // unknown producer scale: assume a copy
  return rescale_changes_levels(current, target);
}

}  // namespace wa::deploy::passes::internal
