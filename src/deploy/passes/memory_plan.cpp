// Static memory planner: liveness over the schedule, in-place rewrite
// selection, and planned-vs-naive peak activation accounting.
//
// The planner simulates exactly the buffer traffic Int8Pipeline::run_impl
// produces — owned operands move, borrowed operands are copied only for a
// non-identity rescale, donated buffers keep their capacity — so
// MemoryPlan::peak_bytes equals the peak run() measures at the reference
// shape (and stays an upper bound when a dynamic scale forces the analysis
// to assume a copy conservatively). The in-place choices it makes:
//   - AddStage writes the join into whichever operand dies at the join
//     (the "in-place residual add": in ResNet the skip branch's or main
//     branch's buffer carries the block output);
//   - a convolution whose input dies inside the kernel (the input is fully
//     consumed by patch lowering / the Winograd scatter before any output
//     byte exists) writes its output over that input when it fits;
//   - a standalone BnStage rewrites its dying input in place.
// run() re-checks every mark against the actual shapes, so a plan computed
// for one reference shape can never corrupt a differently-shaped forward —
// it just falls back to a fresh buffer.
#include <algorithm>

#include "deploy/passes/pass_internal.hpp"

namespace wa::deploy::passes::internal {

namespace {

using Node = Int8Pipeline::Node;
using Wiring = Int8Pipeline::Wiring;

struct WalkState {
  std::vector<std::int64_t> sizes;   // per value: bytes at the reference shape
  std::vector<float> vscale;         // per value: frozen scale, -1 unknown
  const Wiring* w = nullptr;
  const std::vector<Node>* nodes = nullptr;
};

/// Bytes a two-input join (Add or Concat) copies while acquiring its
/// operands at their branch scales — Int8Pipeline::run_impl's acquire_join.
/// x + x copies the value once when either branch scale diverges, and once
/// more when the value outlives the join and the rhs diverges too; distinct
/// operands copy each borrowed one whose rescale is not the identity.
std::int64_t join_copy_bytes(const WalkState& st, std::size_t i, std::int32_t v1,
                             std::int32_t v2, float lhs_scale, float rhs_scale) {
  const Wiring& w = *st.w;
  const auto dies_here = [&](std::int32_t v) {
    return w.last_use[static_cast<std::size_t>(v)] == static_cast<std::int32_t>(i);
  };
  const auto size = [&](std::int32_t v) { return st.sizes[static_cast<std::size_t>(v)]; };
  const float s1 = st.vscale[static_cast<std::size_t>(v1)];
  if (v1 == v2) {
    const bool lhs_div = rescale_would_copy(s1, lhs_scale);
    const bool rhs_div = rescale_would_copy(s1, rhs_scale);
    if (!lhs_div && !rhs_div) return 0;
    return size(v1) + (!dies_here(v1) && rhs_div ? size(v1) : 0);
  }
  std::int64_t copies = 0;
  if (!dies_here(v1) && rescale_would_copy(s1, lhs_scale)) copies += size(v1);
  if (!dies_here(v2) &&
      rescale_would_copy(st.vscale[static_cast<std::size_t>(v2)], rhs_scale)) {
    copies += size(v2);
  }
  return copies;
}

/// One executor-faithful walk returning the peak live activation bytes.
/// With `marks` non-null the walk chooses in-place marks greedily along the
/// way (the planned executor); with nullptr it simulates the unplanned one.
std::int64_t walk_peak(const WalkState& st, std::vector<std::uint8_t>* marks) {
  const std::size_t n = st.nodes->size();
  const Wiring& w = *st.w;
  std::vector<std::int64_t> eff(n + 1, 0);  // live capacity per value

  std::int64_t live = st.sizes[0], peak = st.sizes[0];
  eff[0] = st.sizes[0];

  for (std::size_t i = 0; i < n; ++i) {
    const Node& node = (*st.nodes)[i];
    const std::int32_t v1 = w.in1[i], v2 = w.in2[i];
    const bool same = v2 >= 0 && v1 == v2;
    const bool owned1 = !same && w.last_use[static_cast<std::size_t>(v1)] ==
                                     static_cast<std::int32_t>(i);
    const bool owned2 = v2 >= 0 && !same &&
                        w.last_use[static_cast<std::size_t>(v2)] == static_cast<std::int32_t>(i);
    const float s1 = st.vscale[static_cast<std::size_t>(v1)];

    std::int64_t copies = 0;
    bool donated = false;
    std::int64_t donor_eff = 0;
    const auto donate = [&](std::int32_t v) {
      donated = true;
      donor_eff = eff[static_cast<std::size_t>(v)];
    };

    const auto* add = std::get_if<AddStage>(&node.op);
    const auto* cat = std::get_if<ConcatStage>(&node.op);
    if (add != nullptr || cat != nullptr) {
      copies += join_copy_bytes(st, i, v1, v2, add != nullptr ? add->lhs_scale : cat->lhs_scale,
                                add != nullptr ? add->rhs_scale : cat->rhs_scale);
      // Only Add runs in place, into whichever operand dies at the join.
      // Same-operand joins never do, and neither does Concat: its output is
      // strictly larger than either operand, so the executor always
      // allocates fresh (mark stays 0).
      if (add != nullptr && marks != nullptr && (owned1 || owned2)) {
        (*marks)[i] = owned1 ? 1 : 2;
        donate(owned1 ? v1 : v2);
      }
    } else {
      const float expected = expected_input_scale(node.op, 0);
      const bool would_copy = !owned1 && rescale_would_copy(s1, expected);
      if (std::holds_alternative<RequantStage>(node.op)) {
        // The requant stage always carries its result in an owned buffer:
        // the moved input, the rescale copy, or a fresh copy of a borrowed
        // input — all the same size as the output.
        if (owned1) {
          donate(v1);
        } else {
          // The copy of the borrowed input is a fresh buffer that becomes
          // the output.
          copies += st.sizes[static_cast<std::size_t>(v1)];
          donated = true;
          donor_eff = st.sizes[static_cast<std::size_t>(v1)];
        }
      } else if (std::holds_alternative<FlattenStage>(node.op) ||
                 std::holds_alternative<ReluStage>(node.op)) {
        if (owned1) donate(v1);
      } else if (std::holds_alternative<ConvStage>(node.op)) {
        if (would_copy) copies += st.sizes[static_cast<std::size_t>(v1)];
        // The conv kernel consumes its input before any output byte exists,
        // so a dying input can donate: its equal-sized buffer hosts the
        // output, or is freed before a larger output is allocated — peak
        // sees max(in, out) either way, never in + out. A SHRINKING
        // donation is refused: the smaller value would carry the donor's
        // slack capacity for its whole lifetime, which can push a later
        // peak ABOVE the naive executor's.
        if (marks != nullptr && owned1 &&
            st.sizes[i + 1] >= st.sizes[static_cast<std::size_t>(v1)]) {
          (*marks)[i] = 1;
          donate(v1);
        }
      } else if (std::holds_alternative<BnStage>(node.op)) {
        if (would_copy) copies += st.sizes[static_cast<std::size_t>(v1)];
        if (marks != nullptr && owned1) {
          (*marks)[i] = 1;
          donate(v1);
        }
      } else {
        // pool / avg-pool / linear: always a fresh output; copies only for a
        // borrowed non-identity rescale (linear).
        if (would_copy) copies += st.sizes[static_cast<std::size_t>(v1)];
      }
    }

    // A grow-donation frees the donor before allocating the larger output,
    // so only the growth is additional while the stage runs.
    const std::int64_t transient =
        live + copies +
        (donated ? std::max<std::int64_t>(0, st.sizes[i + 1] - donor_eff)
                 : st.sizes[i + 1]);
    peak = std::max(peak, transient);

    // Release dying operands (exactly once when both name the same value).
    if (w.last_use[static_cast<std::size_t>(v1)] == static_cast<std::int32_t>(i)) {
      live -= eff[static_cast<std::size_t>(v1)];
      eff[static_cast<std::size_t>(v1)] = 0;
    }
    if (v2 >= 0 && !same &&
        w.last_use[static_cast<std::size_t>(v2)] == static_cast<std::int32_t>(i)) {
      live -= eff[static_cast<std::size_t>(v2)];
      eff[static_cast<std::size_t>(v2)] = 0;
    }

    eff[i + 1] = donated ? std::max(donor_eff, st.sizes[i + 1]) : st.sizes[i + 1];
    live += eff[i + 1];
    peak = std::max(peak, live);
  }
  return peak;
}

}  // namespace

void plan_memory(Int8Pipeline& pipe, const Shape& reference_input) {
  if (pipe.size() == 0) return;

  const Wiring w = pipe.resolve_wiring();
  const std::vector<Shape> shapes = infer_value_shapes(pipe, reference_input);
  const std::size_t n = pipe.size();

  WalkState st;
  st.w = &w;
  st.nodes = &pipe.nodes();
  st.sizes.resize(n + 1);
  for (std::size_t v = 0; v <= n; ++v) st.sizes[v] = numel(shapes[v]);  // int8: 1 byte/elem

  // Per-value frozen scales, mirroring what run() will produce.
  st.vscale.assign(n + 1, -1.F);
  if (const auto* first = std::get_if<ConvStage>(&pipe.nodes().front().op)) {
    st.vscale[0] = first->input_scale > 0.F ? first->input_scale : -1.F;
  }
  for (std::size_t i = 0; i < n; ++i) {
    st.vscale[i + 1] =
        node_result_scale(pipe.nodes()[i], st.vscale[static_cast<std::size_t>(w.in1[i])]);
  }

  MemoryPlan plan;
  plan.reference_input = reference_input;
  plan.in_place.assign(n, 0);
  plan.peak_bytes = walk_peak(st, &plan.in_place);
  plan.naive_peak_bytes = walk_peak(st, nullptr);
  pipe.set_plan(std::move(plan));
}

}  // namespace wa::deploy::passes::internal
