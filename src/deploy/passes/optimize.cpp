#include <stdexcept>

#include "deploy/passes/pass_internal.hpp"
#include "deploy/passes/passes.hpp"

namespace wa::deploy::passes {

OptimizeReport optimize_pipeline(Int8Pipeline& pipe, const OptimizeOptions& opts) {
  OptimizeReport report;
  report.fused_stages = internal::fuse_stages(pipe);
  report.removed_stages = internal::eliminate_dead_stages(pipe);
  if (!opts.reference_input.empty()) internal::plan_memory(pipe, opts.reference_input);
  if (const MemoryPlan* plan = pipe.plan(); plan != nullptr) {
    report.planned_peak_bytes = plan->peak_bytes;
    report.naive_peak_bytes = plan->naive_peak_bytes;
  }
  // Final wiring check: every rewrite above re-pushed its nodes, which wired
  // each one; the dead-slot rule, which push cannot apply, runs here so
  // "passes leave valid graphs" stays a checked invariant rather than a
  // convention.
  pipe.resolve_wiring();
  return report;
}

std::vector<Shape> infer_value_shapes(const Int8Pipeline& pipe, const Shape& input_shape) {
  if (input_shape.size() != 4 || numel(input_shape) <= 0) {
    throw std::invalid_argument("infer_value_shapes: input shape must be a non-empty [N,C,H,W], got " +
                                to_string(input_shape));
  }
  const auto& nodes = pipe.nodes();
  const Int8Pipeline::Wiring w = pipe.resolve_wiring();
  std::vector<Shape> shapes(nodes.size() + 1);
  shapes[0] = input_shape;

  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const Int8Pipeline::Node& node = nodes[i];
    const std::string where = stage_where(node, i);
    const auto expect = [&where](bool cond, const std::string& msg) {
      if (!cond) throw std::invalid_argument(where + ": " + msg);
    };
    const Shape& in = shapes[static_cast<std::size_t>(w.in1[i])];

    shapes[i + 1] = std::visit(
        [&](const auto& st) -> Shape {
          using T = std::decay_t<decltype(st)>;
          if constexpr (std::is_same_v<T, ConvStage>) {
            expect(in.size() == 4,
                   "convolution expects a 4-d [N,C,H,W] activation, got " + to_string(in));
            expect(in[1] == st.in_channels,
                   "activation has " + std::to_string(in[1]) + " channels, stage expects " +
                       std::to_string(st.in_channels));
            const std::int64_t oh = (in[2] + 2 * st.pad - st.kernel) / st.stride + 1;
            const std::int64_t ow = (in[3] + 2 * st.pad - st.kernel) / st.stride + 1;
            expect(oh >= 1 && ow >= 1,
                   "activation " + to_string(in) + " is smaller than the " +
                       std::to_string(st.kernel) + "x" + std::to_string(st.kernel) + " kernel");
            return Shape{in[0], st.out_channels, oh, ow};
          } else if constexpr (std::is_same_v<T, PoolStage>) {
            expect(in.size() == 4, "max-pool expects [N,C,H,W], got " + to_string(in));
            const std::int64_t oh = (in[2] - st.kernel) / st.stride + 1;
            const std::int64_t ow = (in[3] - st.kernel) / st.stride + 1;
            expect(oh >= 1 && ow >= 1, "activation " + to_string(in) + " is smaller than the pool");
            return Shape{in[0], in[1], oh, ow};
          } else if constexpr (std::is_same_v<T, FlattenStage>) {
            expect(!in.empty(), "flatten expects a batched activation");
            std::int64_t features = 1;
            for (std::size_t d = 1; d < in.size(); ++d) features *= in[d];
            return Shape{in[0], features};
          } else if constexpr (std::is_same_v<T, AvgPoolStage>) {
            expect(in.size() == 4, "avg-pool expects [N,C,H,W], got " + to_string(in));
            return Shape{in[0], in[1]};
          } else if constexpr (std::is_same_v<T, LinearStage>) {
            expect(in.size() == 2, "linear expects a 2-d [N, F] activation, got " + to_string(in) +
                                       " (flatten or avg-pool first)");
            expect(in[1] == st.packed.in_features,
                   "activation has " + std::to_string(in[1]) + " features, stage expects " +
                       std::to_string(st.packed.in_features));
            return Shape{in[0], st.packed.out_features};
          } else if constexpr (std::is_same_v<T, BnStage>) {
            expect(in.size() == 4 || in.size() == 2,
                   "batch-norm expects [N,C,H,W] or [N,C], got " + to_string(in));
            expect(in[1] == st.scale.numel(),
                   "activation has " + std::to_string(in[1]) + " channels, batch-norm has " +
                       std::to_string(st.scale.numel()));
            return in;
          } else if constexpr (std::is_same_v<T, AddStage>) {
            const Shape& rhs = shapes[static_cast<std::size_t>(w.in2[i])];
            expect(in == rhs, "skip-add branch shapes " + to_string(in) + " vs " +
                                  to_string(rhs) + " do not match");
            return in;
          } else if constexpr (std::is_same_v<T, ConcatStage>) {
            const Shape& rhs = shapes[static_cast<std::size_t>(w.in2[i])];
            expect(in.size() == 4 && rhs.size() == 4,
                   "concat expects 4-d [N,C,H,W] operands, got " + to_string(in) + " and " +
                       to_string(rhs));
            expect(in[0] == rhs[0] && in[2] == rhs[2] && in[3] == rhs[3],
                   "concat branch shapes " + to_string(in) + " vs " + to_string(rhs) +
                       " disagree outside the channel axis");
            return Shape{in[0], in[1] + rhs[1], in[2], in[3]};
          } else {  // ReluStage / RequantStage: levels in, levels out
            return in;
          }
        },
        node.op);
    // Fused batch-norm epilogues carry their own channel counts.
    for (const EpilogueOp& ep : node.epilogue) {
      if (ep.kind != EpilogueOp::Kind::kAffine) continue;
      const Shape& s = shapes[i + 1];
      expect(s.size() >= 2 && s[1] == static_cast<std::int64_t>(ep.affine.m0.size()),
             "fused batch-norm channels disagree with the producing stage");
    }
  }
  return shapes;
}

}  // namespace wa::deploy::passes
