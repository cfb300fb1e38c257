// Differential fuzz harness for the pass-based optimizer: hundreds of
// seeded, randomly generated — but valid — StageIO graphs (im2row/F2/F4/F6
// convs — the Winograd ones mixing per-tensor and per-tap stage scales with
// random tap group sizes, random grouped cardinalities dividing both channel
// counts, whole-tap-zero sparse skip masks, and stride-2 Winograd stages —
// linears, batch-norms, requants, relus, max/avg pools, branchy residual and
// channel-concat wirings, odd shapes, mixed frozen/dynamic scales) must
// produce
// BIT-IDENTICAL logits with the optimizer on and off, on every SIMD backend
// this machine can run. This is the lockdown that lets fusion, dead-stage
// elimination and the memory planner's in-place rewrites evolve without a
// reviewer re-deriving their bit-exactness by hand.
//
// The same seeded graphs also lock down the fused Winograd executor: every
// Winograd stage runs through winograd_conv_s8_prepared (the blocked
// streaming path) and winograd_conv_s8_flat (the flat reference) at its
// inferred input shape, fresh and into a donated buffer, on every backend,
// and the outputs must be bit-identical — the generator's odd spatial sizes
// (7..16) and channel counts (1..6, mostly not multiples of the channel
// block) are exactly the shapes where a blocked layout could slip in padding
// artifacts.
//
// The harness also fuzzes the failure surface: invalid wirings (unknown
// slots, double publishes, missing/extra add operands, dropped chained
// outputs, dead dataflow, shape-mismatched joins) must be rejected with the
// offending stage's name in the error, not executed or silently "fixed".
#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "backend/conv_kernels_s8.hpp"
#include "backend/simd/kernel_table.hpp"
#include "deploy/passes/passes.hpp"
#include "deploy/pipeline.hpp"
#include "winograd/cook_toom.hpp"

namespace wa::deploy {
namespace {

using backend::simd::available_backends;
using backend::simd::set_backend;
using passes::OptimizeOptions;
using passes::optimize_pipeline;

constexpr int kFuzzGraphs = 220;  // acceptance bar: >= 200

struct Gen {
  std::mt19937 rng;
  explicit Gen(std::uint32_t seed) : rng(seed) {}
  std::int64_t pick(std::int64_t lo, std::int64_t hi) {  // inclusive
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(rng);
  }
  float scale() {  // plausible activation scales, occasionally extreme
    const float base = std::uniform_real_distribution<float>(0.01F, 0.3F)(rng);
    const std::int64_t r = pick(0, 19);
    if (r == 0) return base * 1e-3F;
    if (r == 1) return base * 1e3F;
    return base;
  }
  bool chance(double p) { return std::uniform_real_distribution<>(0.0, 1.0)(rng) < p; }
};

/// Running state of the sequential generator walk.
struct Cursor {
  Shape shape;   // current chained activation shape
  float scl;     // current chained activation scale
};

struct SlotInfo {
  std::string name;
  Shape shape;
  float scl;
};

/// A frozen per-tap scale vector: t2 positive entries, constant within each
/// contiguous run of `gs` taps — the shape the tap-grouped observers emit.
std::vector<float> make_tap_scales(Gen& g, std::int64_t t2) {
  const std::int64_t gs_pick = g.pick(0, 2);
  const std::int64_t gs = gs_pick == 0 ? 1 : gs_pick == 1 ? t2 : g.pick(2, t2 - 1);
  std::vector<float> taps(static_cast<std::size_t>(t2));
  float cur = g.scale();
  for (std::int64_t i = 0; i < t2; ++i) {
    if (i % gs == 0) cur = g.scale();
    taps[static_cast<std::size_t>(i)] = cur;
  }
  return taps;
}

/// A random grouped cardinality: 1 most of the time, otherwise a common
/// divisor of both channel counts (the only legal grouped configurations).
std::int64_t pick_groups(Gen& g, std::int64_t in_ch, std::int64_t out_ch) {
  if (!g.chance(0.3)) return 1;
  std::vector<std::int64_t> divisors;
  for (std::int64_t d = 2; d <= std::min(in_ch, out_ch); ++d) {
    if (in_ch % d == 0 && out_ch % d == 0) divisors.push_back(d);
  }
  if (divisors.empty()) return 1;
  return divisors[static_cast<std::size_t>(g.pick(0, static_cast<std::int64_t>(divisors.size()) - 1))];
}

/// A random winograd_prune-style mask [g, t², K/g, C/g]: some taps die
/// whole-[K/g,C/g] (those must lower to the tap_mask skip), others lose a
/// few individual (k, c) slices (those just zero levels in U).
Tensor make_sparse_mask(Gen& g, std::int64_t groups, std::int64_t t2, std::int64_t kpg,
                        std::int64_t cpg) {
  Tensor mask(Shape{groups, t2, kpg, cpg});
  for (std::int64_t i = 0; i < mask.numel(); ++i) mask.at(i) = 1.F;
  for (std::int64_t gi = 0; gi < groups; ++gi) {
    for (std::int64_t ab = 0; ab < t2; ++ab) {
      const bool whole_tap_dead = g.chance(0.15);
      for (std::int64_t i = 0; i < kpg * cpg; ++i) {
        if (whole_tap_dead || g.chance(0.1)) {
          mask.at((gi * t2 + ab) * kpg * cpg + i) = 0.F;
        }
      }
    }
  }
  return mask;
}

ConvStage make_conv(Gen& g, Rng& wrng, std::int64_t in_ch, std::int64_t out_ch,
                    std::int64_t kernel, std::int64_t pad, float in_s, float out_s,
                    bool winograd_ok) {
  ConvStage st;
  const std::int64_t algo_pick = winograd_ok && kernel == 3 ? g.pick(0, 3) : 0;
  st.in_channels = in_ch;
  st.out_channels = out_ch;
  st.kernel = kernel;
  st.pad = pad;
  st.groups = pick_groups(g, in_ch, out_ch);
  st.input_scale = in_s;
  st.relu_after = g.chance(0.4);
  if (algo_pick == 0) {
    st.algo = nn::ConvAlgo::kIm2row;
    st.weights_q =
        backend::quantize_s8(Tensor::randn({out_ch, in_ch / st.groups, kernel, kernel}, wrng, 0.3F));
    st.output_scale = out_s;
  } else {
    const int m = algo_pick == 1 ? 2 : algo_pick == 2 ? 4 : 6;
    st.algo = algo_pick == 1   ? nn::ConvAlgo::kWinograd2
              : algo_pick == 2 ? nn::ConvAlgo::kWinograd4
                               : nn::ConvAlgo::kWinograd6;
    st.weights_f = Tensor::randn({out_ch, in_ch / st.groups, 3, 3}, wrng, 0.3F);
    st.transforms = wino::make_transforms(m, 3);
    if (g.chance(0.3)) {
      // winograd_prune output: whole-dead taps must ride the skip mask.
      st.sparse_mask = make_sparse_mask(g, st.groups, static_cast<std::int64_t>(m + 2) * (m + 2),
                                        out_ch / st.groups, in_ch / st.groups);
    }
    st.stage_scales.input_transformed = g.scale();
    st.stage_scales.hadamard = g.scale();
    st.stage_scales.output = out_s;
    st.output_scale = out_s;
    // Per-tap scale vectors (the production F4/F6 config): each transform-
    // domain stage independently stays scalar or goes vector, with random
    // contiguous group sizes, so graphs mix per-tensor and per-tap stages.
    // Scalar fields keep the vector's representative (front) so the frozen
    // predicates and the blocked-path gate behave exactly as the deploy
    // compiler arranges them.
    if (g.chance(0.5)) {
      const std::int64_t t2 = static_cast<std::int64_t>(m + 2) * (m + 2);
      if (g.chance(0.7)) {
        st.stage_scales.input_transformed_taps = make_tap_scales(g, t2);
        st.stage_scales.input_transformed = st.stage_scales.input_transformed_taps.front();
      }
      if (g.chance(0.7)) {
        st.stage_scales.hadamard_taps = make_tap_scales(g, t2);
        st.stage_scales.hadamard = st.stage_scales.hadamard_taps.front();
      }
      if (g.chance(0.5)) {
        // prepare() bakes the per-tap U cache from this vector.
        st.stage_scales.weights_transformed_taps = make_tap_scales(g, t2);
        st.stage_scales.weights_transformed = st.stage_scales.weights_transformed_taps.front();
      }
    }
  }
  if (g.chance(0.5)) st.bias = Tensor::randn({out_ch}, wrng, 0.1F);
  return st;
}

StageIO gio(std::string in, std::string in2, std::string out, std::string label) {
  StageIO o;
  o.input = std::move(in);
  o.input2 = std::move(in2);
  o.output = std::move(out);
  o.label = std::move(label);
  return o;
}

/// Generate one random valid pipeline; returns it plus the input shape it
/// expects. Every published slot ends up consumed, adds join equal shapes,
/// and the walk keeps spatial dims >= 1, so the graph always runs.
Int8Pipeline fuzz_graph(std::uint32_t seed, Shape* input_shape) {
  Gen g(seed);
  Rng wrng(seed * 7919U + 13U);
  Int8Pipeline pipe;
  int label_id = 0;
  const auto label = [&label_id](const char* kind) {
    return std::string(kind) + "#" + std::to_string(label_id++);
  };

  const std::int64_t in_ch = g.pick(1, 3);
  const std::int64_t h = g.pick(7, 16), w = g.pick(7, 16);
  *input_shape = {0, in_ch, h, w};  // batch filled by the caller

  Cursor cur;
  cur.scl = g.scale();
  {
    const std::int64_t out_ch = g.pick(1, 6);
    const std::int64_t kernel = g.chance(0.7) ? 3 : (g.chance(0.5) ? 1 : 5);
    const std::int64_t pad = kernel == 5 ? 2 : g.pick(0, 1);
    const float out_s = g.scale();
    pipe.push(
        make_conv(g, wrng, in_ch, out_ch, kernel, pad,
                  g.chance(0.85) ? cur.scl : -1.F,  // sometimes a dynamic input quantizer
                  out_s, /*winograd_ok=*/true),
        gio("", "", "", label("conv")));
    cur.shape = {0, out_ch, h + 2 * pad - kernel + 1, w + 2 * pad - kernel + 1};
    cur.scl = out_s;
  }

  std::vector<SlotInfo> slots;      // published, must all be consumed
  std::string pending_slot;         // slot the NEXT stage must read (just published)
  const std::int64_t ops = g.pick(3, 10);
  std::int64_t residual_countdown = -1;  // stages until the pending residual join
  SlotInfo residual_slot;

  for (std::int64_t k = 0; k < ops; ++k) {
    const std::string read_from = pending_slot;  // "" = chain
    pending_slot.clear();

    // Close an open residual block when its countdown expires and shapes
    // still match (shape-preserving ops only ran in between) — half the
    // closes join by skip-add, half by channel concat (the fire-module
    // shape: same spatial dims, channel counts sum).
    if (residual_countdown == 0) {
      residual_countdown = -1;
      if (g.chance(0.4)) {
        ConcatStage cat;
        cat.lhs_scale = g.chance(0.8) ? cur.scl : g.scale();
        cat.rhs_scale = g.chance(0.8) ? residual_slot.scl : g.scale();
        cat.output_scale = g.scale();
        cat.relu_after = g.chance(0.6);
        const float out_s = cat.output_scale;
        pipe.push(std::move(cat), gio(read_from, residual_slot.name, "", label("cat")));
        cur.shape[1] += residual_slot.shape[1];
        cur.scl = out_s;
      } else {
        AddStage add;
        add.lhs_scale = g.chance(0.8) ? cur.scl : g.scale();
        add.rhs_scale = g.chance(0.8) ? residual_slot.scl : g.scale();
        add.output_scale = g.scale();
        add.relu_after = g.chance(0.6);
        const float out_s = add.output_scale;
        pipe.push(std::move(add), gio(read_from, residual_slot.name, "", label("add")));
        cur.scl = out_s;
      }
      continue;
    }
    if (residual_countdown > 0) --residual_countdown;

    // Open a residual block: publish the current value, then run
    // shape-preserving stages until the join. Requires a 4-d activation.
    if (residual_countdown < 0 && cur.shape.size() == 4 && g.chance(0.25) && k + 2 < ops) {
      const std::string slot = "res" + std::to_string(label_id++);
      // Re-publish through a shape/scale-preserving stage so the chain
      // continues from the same value.
      pipe.push(ReluStage{}, gio(read_from, "", slot, label("publish")));
      residual_slot = {slot, cur.shape, cur.scl};
      residual_countdown = g.pick(1, 2);
      pending_slot = slot;  // next stage must name it (previous stage published)
      continue;
    }

    const bool spatial = cur.shape.size() == 4;
    const std::int64_t choice = g.pick(0, 5);
    if (choice == 0 && spatial && residual_countdown < 0) {
      // conv (shape-changing: not inside an open residual block); a 3x3
      // sometimes runs as a stride-2 Winograd stage. At these channel counts
      // (<= 6) the prepare-time cost model lowers it to strided im2row.
      const std::int64_t kernel = g.chance(0.7) ? 3 : 1;
      const std::int64_t pad = g.pick(0, 1);
      const std::int64_t stride =
          kernel == 3 && cur.shape[2] >= 5 && cur.shape[3] >= 5 && g.chance(0.25) ? 2 : 1;
      const std::int64_t oh = (cur.shape[2] + 2 * pad - kernel) / stride + 1;
      const std::int64_t ow = (cur.shape[3] + 2 * pad - kernel) / stride + 1;
      if (oh >= 1 && ow >= 1) {
        const std::int64_t out_ch = g.pick(1, 6);
        const float out_s = g.scale();
        const float in_s = g.chance(0.8) ? cur.scl : g.scale();
        if (stride == 2) {
          // The strided cache is per-tensor, ungrouped, 3x3 by construction.
          ConvStage st;
          st.algo = g.chance(0.5) ? nn::ConvAlgo::kWinograd2 : nn::ConvAlgo::kWinograd4;
          st.in_channels = cur.shape[1];
          st.out_channels = out_ch;
          st.kernel = 3;
          st.pad = pad;
          st.stride = 2;
          st.input_scale = in_s;
          st.output_scale = out_s;
          st.relu_after = g.chance(0.4);
          st.weights_f = Tensor::randn({out_ch, cur.shape[1], 3, 3}, wrng, 0.3F);
          st.transforms =
              wino::make_transforms(st.algo == nn::ConvAlgo::kWinograd2 ? 2 : 4, 3);
          st.stage_scales.weights_transformed = g.scale();
          st.stage_scales.output = out_s;
          if (g.chance(0.5)) st.bias = Tensor::randn({out_ch}, wrng, 0.1F);
          pipe.push(std::move(st), gio(read_from, "", "", label("sconv")));
        } else {
          pipe.push(make_conv(g, wrng, cur.shape[1], out_ch, kernel, pad, in_s, out_s, true),
                    gio(read_from, "", "", label("conv")));
        }
        cur.shape = {0, out_ch, oh, ow};
        cur.scl = out_s;
        continue;
      }
    }
    if (choice == 1 && spatial) {
      // batch-norm: half the time at the chained scale (fusable), half at a
      // mismatched scale (must NOT fuse — rescale semantics differ).
      BnStage st;
      st.input_scale = g.chance(0.5) ? cur.scl : g.scale();
      st.output_scale = g.scale();
      st.relu_after = g.chance(0.5);
      st.scale = Tensor::randn({cur.shape[1]}, wrng, 0.5F);
      st.bias = Tensor::randn({cur.shape[1]}, wrng, 0.2F);
      const float out_s = st.output_scale;
      pipe.push(std::move(st), gio(read_from, "", "", label("bn")));
      cur.scl = out_s;
      continue;
    }
    if (choice == 2) {
      pipe.push(ReluStage{}, gio(read_from, "", "", label("relu")));
      continue;
    }
    if (choice == 3) {
      RequantStage st;
      st.input_scale = g.chance(0.6) ? cur.scl : g.scale();
      st.output_scale = g.scale();
      const float out_s = st.output_scale;
      pipe.push(std::move(st), gio(read_from, "", "", label("requant")));
      cur.scl = out_s;
      continue;
    }
    if (choice == 4 && spatial && residual_countdown < 0 && cur.shape[2] >= 3 &&
        cur.shape[3] >= 3) {
      const std::int64_t kernel = g.pick(2, 3);
      const std::int64_t stride = g.pick(1, 2);
      const std::int64_t oh = (cur.shape[2] - kernel) / stride + 1;
      const std::int64_t ow = (cur.shape[3] - kernel) / stride + 1;
      if (oh >= 1 && ow >= 1) {
        pipe.push(PoolStage{kernel, stride}, gio(read_from, "", "", label("pool")));
        cur.shape = {0, cur.shape[1], oh, ow};
        continue;
      }
    }
    // Fallback: relu keeps the walk moving without changing shape/scale.
    pipe.push(ReluStage{}, gio(read_from, "", "", label("relu")));
  }

  // Close a still-open residual block before the tail.
  if (residual_countdown >= 0) {
    const float out_s = g.scale();
    if (g.chance(0.4)) {
      ConcatStage cat;
      cat.lhs_scale = cur.scl;
      cat.rhs_scale = residual_slot.scl;
      cat.output_scale = out_s;
      pipe.push(std::move(cat), gio(pending_slot, residual_slot.name, "", label("cat")));
      cur.shape[1] += residual_slot.shape[1];
    } else {
      AddStage add;
      add.lhs_scale = cur.scl;
      add.rhs_scale = residual_slot.scl;
      add.output_scale = out_s;
      pipe.push(std::move(add), gio(pending_slot, residual_slot.name, "", label("add")));
    }
    pending_slot.clear();
    cur.scl = out_s;
  }

  // Tail: reduce to [N, F], then a linear head (sometimes dynamic logits).
  std::int64_t features;
  if (cur.shape.size() == 4 && g.chance(0.5)) {
    pipe.push(AvgPoolStage{}, gio(pending_slot, "", "", label("gap")));
    features = cur.shape[1];
  } else {
    pipe.push(FlattenStage{}, gio(pending_slot, "", "", label("flatten")));
    features = 1;
    for (std::size_t d = 1; d < cur.shape.size(); ++d) features *= cur.shape[d];
  }
  LinearStage fc;
  fc.input_scale = g.chance(0.8) ? cur.scl : g.scale();
  fc.output_scale = g.chance(0.7) ? g.scale() : -1.F;  // sometimes dynamic logits
  fc.weights_q = backend::quantize_s8(Tensor::randn({g.pick(2, 5), features}, wrng, 0.2F));
  pipe.push(std::move(fc), gio("", "", "", label("fc")));
  return pipe;
}

// ---- the differential lockdown ------------------------------------------------

TEST(PipelineFuzz, OptimizedGraphsAreBitIdenticalAcrossBackends) {
  const std::vector<std::string> backends = available_backends();
  ASSERT_FALSE(backends.empty());
  const std::string before = backend::simd::active_backend();

  int planned_reuse_graphs = 0;
  int fused_graphs = 0;
  for (int graph = 0; graph < kFuzzGraphs; ++graph) {
    SCOPED_TRACE("graph seed " + std::to_string(graph));
    Shape in_shape;
    Int8Pipeline ref = fuzz_graph(static_cast<std::uint32_t>(graph), &in_shape);
    const std::int64_t batch = 1 + graph % 3;
    in_shape[0] = batch;

    Int8Pipeline opt = ref;
    OptimizeOptions o;
    o.reference_input = in_shape;
    const auto report = optimize_pipeline(opt, o);
    if (report.fused_stages > 0) ++fused_graphs;

    Rng data_rng(static_cast<unsigned>(graph) * 31U + 5U);
    const Tensor x = Tensor::randn(in_shape, data_rng, 1.5F);
    // A second shape the plan was NOT computed for (different batch).
    Shape alt_shape = in_shape;
    alt_shape[0] = batch == 1 ? 2 : 1;
    const Tensor x_alt = Tensor::randn(alt_shape, data_rng, 1.5F);

    Tensor scalar_ref_logits;
    for (const std::string& backend_name : backends) {
      ASSERT_TRUE(set_backend(backend_name));
      RunStats on{}, off{};
      const Tensor want = ref.run(x, nullptr, &off);
      const Tensor got = opt.run(x, nullptr, &on);
      ASSERT_EQ(got.shape(), want.shape());
      ASSERT_EQ(Tensor::max_abs_diff(got, want), 0.F)
          << "backend " << backend_name << ": planner-on logits diverged";
      ASSERT_EQ(Tensor::max_abs_diff(opt.run(x_alt), ref.run(x_alt)), 0.F)
          << "backend " << backend_name << ": non-reference shape diverged";
      EXPECT_LE(on.peak_activation_bytes, off.peak_activation_bytes)
          << "backend " << backend_name << ": the plan must never use MORE memory";
      if (on.inplace_reuses > 0) ++planned_reuse_graphs;
      if (backend_name == backends.front()) {
        scalar_ref_logits = want;
      } else {
        ASSERT_EQ(Tensor::max_abs_diff(want, scalar_ref_logits), 0.F)
            << "backend " << backend_name << ": cross-backend divergence (planner-off)";
      }
    }
  }
  set_backend(before);
  // The generator must actually exercise the optimizer, not no-op graphs.
  EXPECT_GT(fused_graphs, kFuzzGraphs / 10);
  EXPECT_GT(planned_reuse_graphs, kFuzzGraphs / 4);
}

TEST(PipelineFuzz, BlockedAndFlatWinogradAreBitIdenticalOnEveryBackend) {
  // The generator freezes every internal scale of its Winograd stages, so
  // winograd_conv_s8_prepared runs the blocked executor on each of them;
  // winograd_conv_s8_flat runs the flat sequence on the same arguments.
  const std::vector<std::string> backends = available_backends();
  ASSERT_FALSE(backends.empty());
  const std::string before = backend::simd::active_backend();

  int wino_stages = 0;
  for (int graph = 0; graph < kFuzzGraphs; ++graph) {
    SCOPED_TRACE("graph seed " + std::to_string(graph));
    Shape in_shape;
    const Int8Pipeline pipe = fuzz_graph(static_cast<std::uint32_t>(graph), &in_shape);
    in_shape[0] = 1 + graph % 2;
    const std::vector<Shape> shapes = passes::infer_value_shapes(pipe, in_shape);
    const Int8Pipeline::Wiring wiring = pipe.resolve_wiring();
    std::mt19937 data_rng(static_cast<std::uint32_t>(graph) * 41U + 7U);
    std::uniform_int_distribution<int> level(-127, 127);

    for (std::size_t i = 0; i < pipe.size(); ++i) {
      const auto* st = std::get_if<ConvStage>(&pipe.nodes()[i].op);
      if (st == nullptr || st->wino_cache.empty()) continue;
      SCOPED_TRACE("stage " + std::to_string(i));
      ++wino_stages;
      backend::QTensor x;
      x.shape = shapes[static_cast<std::size_t>(wiring.in1[i])];
      // A stem with a dynamic input quantizer (input_scale -1) gets a fixed
      // positive scale; any other stage its frozen one.
      x.scale = st->input_scale > 0.F ? st->input_scale : 0.05F;
      x.data.resize(static_cast<std::size_t>(numel(x.shape)));
      for (auto& v : x.data) v = static_cast<std::int8_t>(level(data_rng));
      backend::ConvGeometry g;
      g.batch = x.shape[0];
      g.in_channels = st->in_channels;
      g.height = x.shape[2];
      g.width = x.shape[3];
      g.out_channels = st->out_channels;
      g.kernel = st->kernel;
      g.pad = st->pad;
      g.groups = st->groups;
      const Tensor* bias = st->bias.empty() ? nullptr : &st->bias;

      for (const std::string& backend_name : backends) {
        ASSERT_TRUE(set_backend(backend_name));
        for (const bool donate : {false, true}) {
          SCOPED_TRACE("backend " + backend_name + (donate ? ", donated" : ", fresh"));
          std::vector<std::int8_t> blocked_donation = x.data, flat_donation = x.data;
          const backend::QTensor blocked = backend::winograd_conv_s8_prepared(
              x, st->wino_cache, g, st->transforms, st->stage_scales, bias,
              donate ? &blocked_donation : nullptr);
          const backend::QTensor flat = backend::winograd_conv_s8_flat(
              x, st->wino_cache, g, st->transforms, st->stage_scales, bias,
              donate ? &flat_donation : nullptr);
          ASSERT_EQ(blocked.shape, flat.shape);
          ASSERT_EQ(blocked.scale, flat.scale);
          ASSERT_EQ(blocked.data, flat.data) << "fused blocked executor diverged from flat";
          EXPECT_EQ(blocked.data.capacity(), flat.data.capacity());
        }
      }
    }
  }
  set_backend(before);
  // The lockdown only means something if the generator emits Winograd
  // stages (146 over the 220 seeds).
  EXPECT_GE(wino_stages, kFuzzGraphs / 2);
}

TEST(PipelineFuzz, MeasuredPeakNeverExceedsThePlanAtTheReferenceShape) {
  for (int graph = 0; graph < 60; ++graph) {
    SCOPED_TRACE("graph seed " + std::to_string(graph));
    Shape in_shape;
    Int8Pipeline opt = fuzz_graph(static_cast<std::uint32_t>(graph), &in_shape);
    in_shape[0] = 1 + graph % 2;
    OptimizeOptions o;
    o.reference_input = in_shape;
    optimize_pipeline(opt, o);
    ASSERT_NE(opt.plan(), nullptr);

    Rng data_rng(static_cast<unsigned>(graph) * 17U + 3U);
    const Tensor x = Tensor::randn(in_shape, data_rng);
    RunStats stats{};
    opt.run(x, nullptr, &stats);
    // Dynamic scales make the plan's copy analysis conservative, so the
    // plan is an upper bound; with every scale frozen it is exact.
    EXPECT_LE(stats.peak_activation_bytes, opt.plan()->peak_bytes);
    if (opt.all_scales_frozen()) {
      EXPECT_EQ(stats.peak_activation_bytes, opt.plan()->peak_bytes);
    }
  }
}

TEST(PipelineFuzz, GeneratorCoversTheZooStageShapes) {
  // The differential lockdowns above only mean something if the generator
  // actually emits the zoo shapes: grouped convs, stride-2 Winograd stages,
  // whole-tap sparse skip masks and concat joins must all appear across the
  // seed range, or a generator regression would silently shrink coverage.
  // The stride-2 stages are counted by the lowering they get, strided
  // im2row; the polyphase kernel has its own cross-backend check in
  // test_simd_backends.
  int grouped = 0, strided_im2row = 0, masked = 0, concats = 0;
  for (int graph = 0; graph < kFuzzGraphs; ++graph) {
    Shape in_shape;
    const Int8Pipeline pipe = fuzz_graph(static_cast<std::uint32_t>(graph), &in_shape);
    for (const auto& node : pipe.nodes()) {
      if (const auto* st = std::get_if<ConvStage>(&node.op)) {
        grouped += st->groups > 1;
        strided_im2row += st->stride == 2 && !st->im2row_cache.empty();
        masked += !st->wino_cache.tap_mask.empty();
      }
      concats += std::holds_alternative<ConcatStage>(node.op);
    }
  }
  EXPECT_GE(grouped, 10) << "grouped convs vanished from the generator";
  EXPECT_GE(strided_im2row, 10) << "stride-2 strided-im2row convs vanished from the generator";
  EXPECT_GE(masked, 10) << "whole-tap sparse masks vanished from the generator";
  EXPECT_GE(concats, 10) << "concat joins vanished from the generator";
}

// ---- invalid wirings are rejected with the stage name -------------------------

ConvStage small_conv(Rng& rng) {
  ConvStage st;
  st.algo = nn::ConvAlgo::kIm2row;
  st.in_channels = 3;
  st.out_channels = 4;
  st.kernel = 3;
  st.pad = 1;
  st.input_scale = 0.05F;
  st.output_scale = 0.1F;
  st.weights_q = backend::quantize_s8(Tensor::randn({4, 3, 3, 3}, rng, 0.3F));
  return st;
}

template <typename Fn>
void expect_rejected_with(const std::string& needle, Fn&& build_and_run) {
  try {
    build_and_run();
    FAIL() << "expected std::invalid_argument naming '" << needle << "'";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos) << e.what();
  }
}

TEST(PipelineFuzz, InvalidWiringsAreRejectedWithTheStageName) {
  Rng rng(90);

  // Unknown input slot.
  expect_rejected_with("bad-reader", [&] {
    Int8Pipeline pipe;
    pipe.push(small_conv(rng), gio("", "", "x", "stem"));
    pipe.push(ReluStage{}, gio("nonexistent", "", "", "bad-reader"));
  });
  // Double-published slot.
  expect_rejected_with("second-writer", [&] {
    Int8Pipeline pipe;
    pipe.push(small_conv(rng), gio("", "", "x", "stem"));
    pipe.push(ReluStage{}, gio("x", "", "x", "second-writer"));
  });
  // AddStage without a second operand.
  expect_rejected_with("lonely-add", [&] {
    Int8Pipeline pipe;
    pipe.push(small_conv(rng), gio("", "", "", "stem"));
    AddStage add;
    add.lhs_scale = add.rhs_scale = 0.1F;
    add.output_scale = 0.1F;
    pipe.push(std::move(add), gio("", "", "", "lonely-add"));
  });
  // input2 on a non-add stage.
  expect_rejected_with("greedy-relu", [&] {
    Int8Pipeline pipe;
    pipe.push(small_conv(rng), gio("", "", "x", "stem"));
    pipe.push(ReluStage{}, gio("x", "x", "", "greedy-relu"));
  });
  // Named read that would drop the previous stage's chained output.
  expect_rejected_with("drops-chain", [&] {
    Int8Pipeline pipe;
    pipe.push(small_conv(rng), gio("", "", "x", "stem"));
    pipe.push(ReluStage{}, gio("x", "", "", "chained"));
    pipe.push(ReluStage{}, gio("x", "", "", "drops-chain"));
  });
  // Implicit read when the previous stage published instead of chaining.
  expect_rejected_with("expects-chain", [&] {
    Int8Pipeline pipe;
    pipe.push(small_conv(rng), gio("", "", "x", "stem"));
    pipe.push(ReluStage{}, gio("", "", "", "expects-chain"));
  });
  // Dead dataflow is rejected at run() (and only DCE may remove it).
  expect_rejected_with("dead-writer", [&] {
    Int8Pipeline pipe;
    pipe.push(small_conv(rng), gio("", "", "x", "stem"));
    pipe.push(ReluStage{}, gio("x", "", "dead", "dead-writer"));
    pipe.push(ReluStage{}, gio("x", "", "", "tail"));
    pipe.run(Tensor::randn({1, 3, 8, 8}, rng));
  });
  // Shape-mismatched join is rejected at run() with the add's label.
  expect_rejected_with("bad-join", [&] {
    Int8Pipeline pipe;
    pipe.push(small_conv(rng), gio("", "", "x", "stem"));
    ConvStage shrink = small_conv(rng);
    shrink.in_channels = 4;
    shrink.pad = 0;
    shrink.weights_q = backend::quantize_s8(Tensor::randn({4, 4, 3, 3}, rng, 0.3F));
    pipe.push(std::move(shrink), gio("x", "", "", "shrink"));
    AddStage add;
    add.lhs_scale = add.rhs_scale = 0.1F;
    add.output_scale = 0.1F;
    pipe.push(std::move(add), gio("", "x", "", "bad-join"));
    pipe.run(Tensor::randn({1, 3, 8, 8}, rng));
  });
  // ConcatStage without a second operand.
  expect_rejected_with("lonely-cat", [&] {
    Int8Pipeline pipe;
    pipe.push(small_conv(rng), gio("", "", "", "stem"));
    ConcatStage cat;
    cat.lhs_scale = cat.rhs_scale = 0.1F;
    cat.output_scale = 0.1F;
    pipe.push(std::move(cat), gio("", "", "", "lonely-cat"));
  });
  // Spatially mismatched concat join is rejected at run() with its label.
  expect_rejected_with("bad-cat", [&] {
    Int8Pipeline pipe;
    pipe.push(small_conv(rng), gio("", "", "x", "stem"));
    ConvStage shrink = small_conv(rng);
    shrink.in_channels = 4;
    shrink.pad = 0;
    shrink.weights_q = backend::quantize_s8(Tensor::randn({4, 4, 3, 3}, rng, 0.3F));
    pipe.push(std::move(shrink), gio("x", "", "", "shrink"));
    ConcatStage cat;
    cat.lhs_scale = cat.rhs_scale = 0.1F;
    cat.output_scale = 0.1F;
    pipe.push(std::move(cat), gio("", "x", "", "bad-cat"));
    pipe.run(Tensor::randn({1, 3, 8, 8}, rng));
  });
  // Channel-mismatched activation is rejected at run() with the conv's name.
  expect_rejected_with("wrong-channels", [&] {
    Int8Pipeline pipe;
    pipe.push(small_conv(rng), gio("", "", "", "stem"));
    ConvStage next = small_conv(rng);  // expects 3 channels, gets 4
    StageIO o = gio("", "", "", "wrong-channels");
    pipe.push(std::move(next), std::move(o));
    pipe.run(Tensor::randn({1, 3, 8, 8}, rng));
  });
}

}  // namespace
}  // namespace wa::deploy
