// Static memory planner: liveness analysis over the schedule, in-place
// rewrite selection, a single-arena offset assignment with first-fit reuse,
// and planned-vs-naive peak activation accounting.
//
// The planner simulates exactly the buffer traffic Int8Pipeline::run_impl
// produces — owned operands move, borrowed operands are copied only for a
// non-identity rescale, donated buffers keep their capacity — so
// MemoryPlan::peak_bytes equals the peak run() measures at the reference
// shape (and stays an upper bound when a dynamic scale forces the analysis
// to assume a copy conservatively). The in-place choices it makes:
//   - AddStage writes the join into whichever operand dies at the join
//     (the issue's "in-place residual add": in ResNet the skip branch's or
//     main branch's buffer carries the block output);
//   - a convolution whose input dies inside the kernel (the input is fully
//     consumed by patch lowering / the Winograd scatter before any output
//     byte exists) writes its output over that input when it fits;
//   - a standalone BnStage rewrites its dying input in place.
// run() re-checks every mark against the actual shapes, so a plan computed
// for one reference shape can never corrupt a differently-shaped forward —
// it just falls back to a fresh buffer.
#include <algorithm>
#include <stdexcept>

#include "deploy/passes/pass_internal.hpp"
#include "deploy/passes/passes.hpp"

namespace wa::deploy::passes {

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
    const bool lhs_div = internal::rescale_would_copy(s1, lhs_scale);
    const bool rhs_div = internal::rescale_would_copy(s1, rhs_scale);
    if (!lhs_div && !rhs_div) return 0;
    return size(v1) + (!dies_here(v1) && rhs_div ? size(v1) : 0);
  }
  std::int64_t copies = 0;
  if (!dies_here(v1) && internal::rescale_would_copy(s1, lhs_scale)) copies += size(v1);
  if (!dies_here(v2) &&
      internal::rescale_would_copy(st.vscale[static_cast<std::size_t>(v2)], rhs_scale)) {
    copies += size(v2);
  }
  return copies;
}

/// One executor-faithful walk. When `marks` is non-null and `decide` is
/// true, in-place marks are chosen greedily along the way (plan mode);
/// decide=false with marks replays them; marks==nullptr simulates the
/// unplanned executor. Fills donated_from[v] (the value whose buffer value
/// v took over, -1 for fresh) and grew[v] (the donation was a grow: the
/// donor was freed early and the value got a fresh, larger buffer) when the
/// pointers are non-null.
std::int64_t walk_peak(const WalkState& st, std::vector<std::uint8_t>* marks, bool decide,
                       std::vector<std::int32_t>* donated_from,
                       std::vector<std::uint8_t>* grew = nullptr) {
  const std::size_t n = st.nodes->size();
  const Wiring& w = *st.w;
  std::vector<std::int64_t> eff(n + 1, 0);  // live capacity per value
  if (donated_from != nullptr) donated_from->assign(n + 1, -1);
  if (grew != nullptr) grew->assign(n + 1, 0);

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
    std::int32_t donor = -1;
    std::int64_t donor_eff = 0;

    const auto* add = std::get_if<AddStage>(&node.op);
    const auto* cat = std::get_if<ConcatStage>(&node.op);
    if (add != nullptr || cat != nullptr) {
      copies += join_copy_bytes(st, i, v1, v2, add != nullptr ? add->lhs_scale : cat->lhs_scale,
                                add != nullptr ? add->rhs_scale : cat->rhs_scale);
      // Only Add runs in place, into whichever operand dies at the join.
      // Same-operand joins never do, and neither does Concat: its output is
      // strictly larger than either operand, so the executor always
      // allocates fresh (mark stays 0).
      std::uint8_t m = 0;
      if (add != nullptr && marks != nullptr) {
        m = decide ? (owned1 ? 1 : (owned2 ? 2 : 0)) : (*marks)[i];
      }
      if (marks != nullptr && decide) (*marks)[i] = m;
      if (m == 1 && owned1) {
        donated = true;
        donor = v1;
        donor_eff = eff[static_cast<std::size_t>(v1)];
      } else if (m == 2 && owned2) {
        donated = true;
        donor = v2;
        donor_eff = eff[static_cast<std::size_t>(v2)];
      }
    } else {
      const float expected = internal::expected_input_scale(node.op, 0);
      const bool would_copy = !owned1 && internal::rescale_would_copy(s1, expected);
      if (std::holds_alternative<RequantStage>(node.op)) {
        // The requant stage always carries its result in an owned buffer:
        // the moved input, the rescale copy, or a fresh copy of a borrowed
        // input — all the same size as the output.
        donated = true;
        if (owned1) {
          donor = v1;
          donor_eff = eff[static_cast<std::size_t>(v1)];
        } else {
          copies += st.sizes[static_cast<std::size_t>(v1)];
          donor = -1;  // the copy is a fresh buffer, not a planned value
          donor_eff = st.sizes[static_cast<std::size_t>(v1)];
        }
      } else if (std::holds_alternative<FlattenStage>(node.op) ||
                 std::holds_alternative<ReluStage>(node.op)) {
        if (owned1) {
          donated = true;
          donor = v1;
          donor_eff = eff[static_cast<std::size_t>(v1)];
        }
      } else if (std::holds_alternative<ConvStage>(node.op)) {
        if (would_copy) copies += st.sizes[static_cast<std::size_t>(v1)];
        std::uint8_t m = marks != nullptr ? (*marks)[i] : 0;
        if (marks != nullptr && decide) {
          // The conv kernel consumes its input before any output byte
          // exists, so a dying input can donate: its equal-sized buffer
          // hosts the output, or is freed before a larger output is
          // allocated — peak sees max(in, out) either way, never in + out.
          // A SHRINKING donation is refused: the smaller value would carry
          // the donor's slack capacity for its whole lifetime, which can
          // push a later peak ABOVE the naive executor's.
          m = owned1 && st.sizes[i + 1] >= st.sizes[static_cast<std::size_t>(v1)] ? 1 : 0;
          (*marks)[i] = m;
        }
        if (m == 1 && owned1) {
          donated = true;
          donor = v1;
          donor_eff = eff[static_cast<std::size_t>(v1)];
        }
      } else if (std::holds_alternative<BnStage>(node.op)) {
        if (would_copy) copies += st.sizes[static_cast<std::size_t>(v1)];
        std::uint8_t m = marks != nullptr ? (*marks)[i] : 0;
        if (marks != nullptr && decide) {
          m = owned1 ? 1 : 0;
          (*marks)[i] = m;
        }
        if (m == 1 && owned1) {
          donated = true;
          donor = v1;
          donor_eff = eff[static_cast<std::size_t>(v1)];
        }
      } else {
        // pool / avg-pool / linear: always a fresh output; copies only for a
        // borrowed non-identity rescale (linear).
        if (would_copy) copies += st.sizes[static_cast<std::size_t>(v1)];
      }
    }

    // A grow-donation frees the donor before allocating the larger output,
    // so only the growth is additional while the stage runs.
    const bool grow = donated && donor >= 0 && st.sizes[i + 1] > donor_eff;
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
    // A grown output lives in a fresh buffer (its donor was freed early),
    // so for arena layout it is NOT an extension of the donor's block.
    if (donated_from != nullptr) (*donated_from)[i + 1] = grow ? -1 : donor;
    if (grew != nullptr) (*grew)[i + 1] = grow ? 1 : 0;
  }
  return peak;
}

class MemoryPlanPass final : public Pass {
 public:
  std::string name() const override { return "memory-plan"; }

  PassResult run(Int8Pipeline& pipe, const OptimizeOptions& opts) override {
    PassResult r;
    r.name = name();
    if (opts.reference_input.empty()) {
      r.detail = "skipped: no reference input shape provided";
      return r;
    }
    if (pipe.size() == 0) {
      r.detail = "empty pipeline";
      return r;
    }

    const Wiring w = pipe.resolve_wiring();
    const std::vector<Shape> shapes = infer_value_shapes(pipe, opts.reference_input);
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
      st.vscale[i + 1] = internal::node_result_scale(
          pipe.nodes()[i], st.vscale[static_cast<std::size_t>(w.in1[i])]);
    }

    MemoryPlan plan;
    plan.reference_input = opts.reference_input;
    plan.value_bytes = st.sizes;
    plan.last_use = w.last_use;
    plan.in_place.assign(n, 0);

    std::vector<std::int32_t> donated_from;
    std::vector<std::uint8_t> grew;
    plan.peak_bytes = walk_peak(st, &plan.in_place, /*decide=*/true, &donated_from, &grew);
    plan.naive_peak_bytes = walk_peak(st, nullptr, false, nullptr);

    // First-fit arena layout over value live intervals [birth, death):
    // time t = value index; a value dies one step after its last use (its
    // consumer's output must coexist with it unless it was donated).
    plan.offsets.assign(n + 1, 0);
    std::vector<std::int64_t> eff(n + 1, 0);
    struct Block {
      std::int64_t offset = 0, size = 0;
      std::int32_t birth = 0, death = 0;
      std::int32_t value = 0;  // representative (first) value in the buffer
    };
    std::vector<Block> blocks;
    std::vector<std::int32_t> block_of(n + 1, -1);
    // A value normally survives through its last consumer's stage (the
    // consumer's output coexists with it); a grow-donated input is freed
    // BEFORE its consumer's output exists, so its interval ends one step
    // earlier — letting first-fit lay the grown output over its space.
    std::vector<std::uint8_t> freed_early(n + 1, 0);
    for (std::size_t v = 1; v <= n; ++v) {
      if (grew[v] && w.in1[v - 1] >= 0) freed_early[static_cast<std::size_t>(w.in1[v - 1])] = 1;
    }
    const auto death_of = [&](std::size_t v) {
      if (w.last_use[v] >= 0) return w.last_use[v] + (freed_early[v] ? 1 : 2);
      return v == n ? static_cast<std::int32_t>(n) + 2 : static_cast<std::int32_t>(v) + 1;
    };
    for (std::size_t v = 0; v <= n; ++v) {
      const std::int32_t birth = static_cast<std::int32_t>(v);
      const std::int32_t death = death_of(v);
      const std::int32_t donor = v == 0 ? -1 : donated_from[v];
      if (donor >= 0) {
        // Shares (extends) the donor's block.
        const std::int32_t b = block_of[static_cast<std::size_t>(donor)];
        block_of[v] = b;
        blocks[static_cast<std::size_t>(b)].death =
            std::max(blocks[static_cast<std::size_t>(b)].death, death);
        plan.offsets[v] = blocks[static_cast<std::size_t>(b)].offset;
        eff[v] = blocks[static_cast<std::size_t>(b)].size;
        continue;
      }
      eff[v] = st.sizes[v];
      // Candidate offsets: 0 and one past each temporally-overlapping block.
      std::int64_t offset = 0;
      for (;;) {
        bool moved = false;
        for (const Block& b : blocks) {
          const bool time_overlap = birth < b.death && b.birth < death;
          const bool space_overlap = offset < b.offset + b.size && b.offset < offset + eff[v];
          if (time_overlap && space_overlap) {
            offset = b.offset + b.size;
            moved = true;
          }
        }
        if (!moved) break;
      }
      plan.offsets[v] = offset;
      block_of[v] = static_cast<std::int32_t>(blocks.size());
      blocks.push_back({offset, eff[v], birth, death, static_cast<std::int32_t>(v)});
      plan.arena_bytes = std::max(plan.arena_bytes, offset + eff[v]);
    }

    pipe.set_plan(std::move(plan));
    const MemoryPlan& p = *pipe.plan();
    const double pct = p.naive_peak_bytes > 0
                           ? 100.0 * (1.0 - static_cast<double>(p.peak_bytes) /
                                                static_cast<double>(p.naive_peak_bytes))
                           : 0.0;
    r.changed = true;
    r.count = static_cast<std::size_t>(
        std::count_if(p.in_place.begin(), p.in_place.end(), [](std::uint8_t m) { return m != 0; }));
    r.detail = "peak " + std::to_string(p.peak_bytes) + " B vs naive " +
               std::to_string(p.naive_peak_bytes) + " B (" + std::to_string(pct) +
               "% smaller), arena " + std::to_string(p.arena_bytes) + " B";
    return r;
  }
};

}  // namespace

std::unique_ptr<Pass> make_memory_plan_pass() { return std::make_unique<MemoryPlanPass>(); }

}  // namespace wa::deploy::passes
