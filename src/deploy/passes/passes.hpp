// Compiler middle-end for compiled Int8Pipelines: three rewrites of the
// lowered stage graph that run BEFORE run() is ever called.
//
// Production quantized-Winograd stacks (LANCE-style) win as much from what
// happens between the kernels as from the kernels themselves: the
// quantize -> transform -> requant chain is reordered and fused around the
// Winograd GEMMs, and the activation memory is planned statically so the
// working set stays small. optimize_pipeline() runs, in order:
//
//   1. fusion (fuse_stages.cpp): fold standalone ReluStage / RequantStage /
//      BnStage nodes into the producing conv/linear/add stage as in-place
//      EpilogueOps, so the intermediate int8 tensor never round-trips
//      through an activation slot. Fusion only fires when it is provably
//      bit-preserving (the producer's frozen output scale matches the
//      folded stage's expected input scale exactly), so optimized logits
//      are identical to unoptimized ones.
//   2. dead-stage elimination (dce.cpp): drop stages whose results can
//      never reach the pipeline output (published slots nobody reads, and
//      everything that only fed them), then re-validate the wiring.
//   3. static memory planning (memory_plan.cpp), when a reference input
//      shape is given: simulate the executor's buffer traffic over the
//      schedule, choose in-place rewrites (the residual add writes into the
//      branch that dies at the join; a convolution whose input dies inside
//      the kernel writes its output over it), and attach the resulting
//      MemoryPlan — the marks plus planned and naive peak activation bytes
//      — to the pipeline.
//
// Optimized execution is bit-identical to unoptimized execution for every
// valid graph; the differential fuzz harness (tests/test_pipeline_fuzz.cpp)
// enforces this across backends on hundreds of randomly generated graphs.
//
// Freeze scales BEFORE optimizing: fusion and the planner's rescale-copy
// analysis key off frozen scales, and a plan computed against dynamic
// scales stays conservative (planned peak >= measured peak).
#pragma once

#include <vector>

#include "deploy/pipeline.hpp"

namespace wa::deploy::passes {

struct OptimizeOptions {
  /// Input shape ([N,C,H,W]) the memory plan's peaks are computed for.
  /// Empty skips planning (fusion/DCE are shape-independent). run()
  /// re-checks in-place applicability against the actual shape, so a plan
  /// never breaks a differently-shaped forward.
  Shape reference_input;
};

struct OptimizeReport {
  std::size_t fused_stages = 0;    // stages folded into producer epilogues
  std::size_t removed_stages = 0;  // dead stages eliminated
  /// Planned / unplanned peak activation bytes at the reference shape
  /// (0 when planning was skipped). planned == what run() measures for the
  /// optimized pipeline when every scale is frozen.
  std::int64_t planned_peak_bytes = 0;
  std::int64_t naive_peak_bytes = 0;
};

/// fuse -> eliminate dead stages -> plan memory (when opts.reference_input
/// is set), then re-validate the wiring. Mutates `pipe` in place (stage
/// weights are moved, never copied) and attaches the MemoryPlan when
/// planning ran.
OptimizeReport optimize_pipeline(Int8Pipeline& pipe, const OptimizeOptions& opts = {});

/// Static shape inference over the dataflow: the shape of every value
/// (value 0 = quantized input, i+1 = stage i's output) for a [N,C,H,W]
/// input. Throws std::invalid_argument labeled with the stage for graphs
/// whose wiring is shape-inconsistent (channel mismatches, under-sized
/// activations, adds joining different shapes, ...) — the same class of
/// errors run() reports, but caught before any kernel executes.
std::vector<Shape> infer_value_shapes(const Int8Pipeline& pipe, const Shape& input_shape);

}  // namespace wa::deploy::passes
