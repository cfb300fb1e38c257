// Unit tests for the compiler middle-end (src/deploy/passes): stage fusion
// preserves bits and collapses chains, dead-stage elimination prunes
// unreachable work, the static memory planner's predicted peak equals what
// the executor measures, and a plan is honored (and safely re-checked) at
// shapes other than the reference. The broad randomized lockdown lives in
// test_pipeline_fuzz.cpp; these are the targeted cases.
#include <gtest/gtest.h>

#include <chrono>

#include "data/synthetic.hpp"
#include "deploy/passes/passes.hpp"
#include "deploy/pipeline.hpp"
#include "winograd/cook_toom.hpp"

namespace wa::deploy {
namespace {

using passes::OptimizeOptions;
using passes::OptimizeReport;
using passes::optimize_pipeline;

StageIO io(const char* in, const char* in2, const char* out, const char* label) {
  StageIO o;
  o.input = in;
  o.input2 = in2;
  o.output = out;
  o.label = label;
  return o;
}

ConvStage im2row_conv(Rng& rng, std::int64_t in_ch, std::int64_t out_ch, float in_s, float out_s,
                      bool relu = false, std::int64_t kernel = 3, std::int64_t pad = 1) {
  ConvStage st;
  st.algo = nn::ConvAlgo::kIm2row;
  st.in_channels = in_ch;
  st.out_channels = out_ch;
  st.kernel = kernel;
  st.pad = pad;
  st.input_scale = in_s;
  st.output_scale = out_s;
  st.relu_after = relu;
  st.weights_q = backend::quantize_s8(Tensor::randn({out_ch, in_ch, kernel, kernel}, rng, 0.3F));
  return st;
}

ConvStage wino_conv(Rng& rng, std::int64_t ch, float in_s, float out_s, int m = 2) {
  ConvStage st;
  st.algo = m == 2 ? nn::ConvAlgo::kWinograd2 : nn::ConvAlgo::kWinograd4;
  st.in_channels = ch;
  st.out_channels = ch;
  st.kernel = 3;
  st.pad = 1;
  st.input_scale = in_s;
  st.weights_f = Tensor::randn({ch, ch, 3, 3}, rng, 0.3F);
  st.transforms = wino::make_transforms(m, 3);
  st.stage_scales.input_transformed = 0.07F;
  st.stage_scales.hadamard = 0.2F;
  st.stage_scales.output = out_s;
  st.output_scale = out_s;
  return st;
}

BnStage bn_stage(Rng& rng, std::int64_t ch, float in_s, float out_s, bool relu = false) {
  BnStage st;
  st.input_scale = in_s;
  st.output_scale = out_s;
  st.relu_after = relu;
  st.scale = Tensor::randn({ch}, rng, 0.5F);
  st.bias = Tensor::randn({ch}, rng, 0.2F);
  return st;
}

LinearStage linear_stage(Rng& rng, std::int64_t in_f, std::int64_t out_f, float in_s,
                         float out_s) {
  LinearStage st;
  st.input_scale = in_s;
  st.output_scale = out_s;
  st.weights_q = backend::quantize_s8(Tensor::randn({out_f, in_f}, rng, 0.2F));
  return st;
}

/// conv -> bn -> relu -> requant chain plus a residual join — every fusable
/// stage kind in one graph, with the scales chained so fusion can fire.
Int8Pipeline fusable_pipeline(Rng& rng) {
  Int8Pipeline pipe;
  pipe.push(im2row_conv(rng, 3, 4, 0.05F, 0.1F), io("", "", "x", "stem"));
  pipe.push(wino_conv(rng, 4, 0.1F, 0.09F), io("x", "", "", "main"));
  pipe.push(bn_stage(rng, 4, 0.09F, 0.11F), io("", "", "", "main.bn"));
  pipe.push(ReluStage{}, io("", "", "", "main.relu"));
  RequantStage rq;
  rq.input_scale = 0.11F;
  rq.output_scale = 0.08F;
  pipe.push(std::move(rq), io("", "", "", "main.requant"));
  AddStage add;
  add.lhs_scale = 0.08F;
  add.rhs_scale = 0.1F;
  add.output_scale = 0.07F;
  pipe.push(std::move(add), io("", "x", "", "join"));
  pipe.push(AvgPoolStage{}, io("", "", "", "gap"));
  pipe.push(linear_stage(rng, 4, 5, 0.07F, 0.2F), io("", "", "", "fc"));
  return pipe;
}

OptimizeOptions ref_opts(Shape s) {
  OptimizeOptions o;
  o.reference_input = std::move(s);
  return o;
}

// ---- fusion -----------------------------------------------------------------

TEST(FuseStages, FoldsBnReluRequantChainsBitExactly) {
  Rng rng(71);
  Int8Pipeline ref = fusable_pipeline(rng);
  Int8Pipeline opt = ref;
  const OptimizeReport report = optimize_pipeline(opt, ref_opts({2, 3, 9, 9}));

  // bn, relu and requant all fold into the Winograd conv.
  EXPECT_EQ(report.fused_stages, 3u);
  EXPECT_EQ(opt.size(), ref.size() - 3);
  bool found_epilogues = false;
  for (const auto& node : opt.nodes()) {
    if (node.epilogue.size() == 3) {
      found_epilogues = true;
      EXPECT_EQ(node.epilogue[0].kind, EpilogueOp::Kind::kAffine);
      EXPECT_EQ(node.epilogue[1].kind, EpilogueOp::Kind::kRelu);
      EXPECT_EQ(node.epilogue[2].kind, EpilogueOp::Kind::kRequant);
    }
  }
  EXPECT_TRUE(found_epilogues);

  Rng data_rng(5);
  for (int i = 0; i < 3; ++i) {
    const Tensor x = Tensor::randn({2, 3, 9, 9}, data_rng);
    EXPECT_EQ(Tensor::max_abs_diff(opt.run(x), ref.run(x)), 0.F) << "forward " << i;
  }
}

TEST(FuseStages, ScaleMismatchBlocksBnAndRequantFolding) {
  Rng rng(72);
  Int8Pipeline pipe;
  pipe.push(im2row_conv(rng, 3, 4, 0.05F, 0.1F), io("", "", "", "conv"));
  // Expects 0.09 but the conv produces 0.1: the executor's rescale between
  // them is NOT the identity, so folding would change bits — must not fuse.
  pipe.push(bn_stage(rng, 4, 0.09F, 0.11F), io("", "", "", "bn"));
  Int8Pipeline opt = pipe;
  const OptimizeReport report = optimize_pipeline(opt, ref_opts({1, 3, 8, 8}));
  EXPECT_EQ(report.fused_stages, 0u);
  EXPECT_EQ(opt.size(), pipe.size());
  Rng data_rng(6);
  const Tensor x = Tensor::randn({1, 3, 8, 8}, data_rng);
  EXPECT_EQ(Tensor::max_abs_diff(opt.run(x), pipe.run(x)), 0.F);
}

TEST(FuseStages, SlotMediatedSingleReaderChainFusesAndDropsTheSlot) {
  Rng rng(73);
  Int8Pipeline pipe;
  pipe.push(im2row_conv(rng, 3, 4, 0.05F, 0.1F), io("", "", "y", "conv"));
  pipe.push(ReluStage{}, io("y", "", "", "relu"));
  pipe.push(AvgPoolStage{}, io("", "", "", "gap"));
  pipe.push(linear_stage(rng, 4, 3, 0.1F, 0.2F), io("", "", "", "fc"));
  Int8Pipeline opt = pipe;
  const OptimizeReport report = optimize_pipeline(opt, ref_opts({1, 3, 6, 6}));
  EXPECT_EQ(report.fused_stages, 1u);
  // The slot disappeared with the fold.
  for (const auto& node : opt.nodes()) {
    EXPECT_NE(node.io.output, "y");
    EXPECT_NE(node.io.input, "y");
  }
  Rng data_rng(7);
  const Tensor x = Tensor::randn({1, 3, 6, 6}, data_rng);
  EXPECT_EQ(Tensor::max_abs_diff(opt.run(x), pipe.run(x)), 0.F);
}

TEST(FuseStages, MultiReaderSlotIsNotFused) {
  Rng rng(74);
  Int8Pipeline pipe;
  pipe.push(im2row_conv(rng, 3, 4, 0.05F, 0.1F), io("", "", "y", "conv"));
  pipe.push(ReluStage{}, io("y", "", "", "relu"));  // reader 1, adjacent
  AddStage add;
  add.lhs_scale = 0.1F;
  add.rhs_scale = 0.1F;
  add.output_scale = 0.09F;
  pipe.push(std::move(add), io("", "y", "", "join"));  // reader 2
  Int8Pipeline opt = pipe;
  const OptimizeReport report = optimize_pipeline(opt, ref_opts({1, 3, 8, 8}));
  EXPECT_EQ(report.fused_stages, 0u) << "slot y has two readers — folding would break the join";
  Rng data_rng(8);
  const Tensor x = Tensor::randn({1, 3, 8, 8}, data_rng);
  EXPECT_EQ(Tensor::max_abs_diff(opt.run(x), pipe.run(x)), 0.F);
}

// ---- dead-stage elimination -------------------------------------------------

TEST(DeadStageElimination, PrunesUnconsumedBranchesTransitively) {
  Rng rng(75);
  Int8Pipeline pipe;
  pipe.push(im2row_conv(rng, 3, 4, 0.05F, 0.1F), io("", "", "x", "stem"));
  // Dead branch: published, transitively consumed only by another dead
  // publisher. run() rejects this graph; DCE removes both stages.
  pipe.push(im2row_conv(rng, 4, 2, 0.1F, 0.2F), io("x", "", "dead1", "dead.conv"));
  pipe.push(ReluStage{}, io("dead1", "", "dead2", "dead.relu"));
  pipe.push(AvgPoolStage{}, io("x", "", "", "gap"));
  pipe.push(linear_stage(rng, 4, 3, 0.1F, 0.2F), io("", "", "", "fc"));

  Rng data_rng(9);
  const Tensor x = Tensor::randn({1, 3, 8, 8}, data_rng);
  EXPECT_THROW(pipe.run(x), std::invalid_argument);  // dead dataflow rejected

  Int8Pipeline opt = pipe;
  const OptimizeReport report = optimize_pipeline(opt, ref_opts({1, 3, 8, 8}));
  // Fusion first folds dead.relu into dead.conv (it cannot know the chain is
  // dead), then DCE deletes the fused node — both dead stages are gone.
  EXPECT_EQ(report.fused_stages + report.removed_stages, 2u);
  EXPECT_GE(report.removed_stages, 1u);
  EXPECT_EQ(opt.size(), 3u);

  // The pruned graph equals the one that never had the dead branch.
  Int8Pipeline clean;
  {
    Rng r2(75);
    clean.push(im2row_conv(r2, 3, 4, 0.05F, 0.1F), io("", "", "x", "stem"));
    im2row_conv(r2, 4, 2, 0.1F, 0.2F);  // burn the same rng draws
    clean.push(AvgPoolStage{}, io("x", "", "", "gap"));
    clean.push(linear_stage(r2, 4, 3, 0.1F, 0.2F), io("", "", "", "fc"));
  }
  EXPECT_EQ(Tensor::max_abs_diff(opt.run(x), clean.run(x)), 0.F);
}

// ---- memory planner ---------------------------------------------------------

TEST(MemoryPlan, PredictedPeakMatchesMeasuredPeakOnFrozenPipelines) {
  Rng rng(76);
  Int8Pipeline ref = fusable_pipeline(rng);
  Int8Pipeline opt = ref;
  const Shape shape{2, 3, 12, 12};
  const OptimizeReport report = optimize_pipeline(opt, ref_opts(shape));
  ASSERT_NE(opt.plan(), nullptr);
  EXPECT_EQ(opt.plan()->peak_bytes, report.planned_peak_bytes);

  Rng data_rng(10);
  const Tensor x = Tensor::randn(shape, data_rng);
  RunStats on{}, off{};
  const Tensor got = opt.run(x, nullptr, &on);
  const Tensor want = ref.run(x, nullptr, &off);
  EXPECT_EQ(Tensor::max_abs_diff(got, want), 0.F);
  EXPECT_EQ(on.peak_activation_bytes, report.planned_peak_bytes)
      << "the plan must predict exactly what the executor measures";
  EXPECT_EQ(off.peak_activation_bytes, report.naive_peak_bytes)
      << "the naive baseline must match the unoptimized executor";
  EXPECT_LT(on.peak_activation_bytes, off.peak_activation_bytes);
  EXPECT_GT(on.inplace_reuses, 0);
}

TEST(MemoryPlan, ResNet18PeakDropsAtLeastThirtyPercentAndStaysBitExact) {
  Rng rng(42);
  models::ResNetConfig cfg;
  cfg.width_mult = 0.25F;
  cfg.qspec = quant::QuantSpec{8};
  cfg.algo = nn::ConvAlgo::kWinograd2;
  models::ResNet18 net(cfg, rng);
  net.set_training(true);
  for (int i = 0; i < 2; ++i) {
    net.forward(ag::Variable(Tensor::randn({8, 3, 32, 32}, rng), false));
  }
  Int8Pipeline ref = deploy::compile_resnet18(net);
  ref.freeze_scales(Tensor::randn({4, 3, 32, 32}, rng));

  Int8Pipeline opt = ref;
  const OptimizeReport report = optimize_pipeline(opt, ref_opts({1, 3, 32, 32}));
  EXPECT_GT(report.fused_stages, 0u);

  const Tensor x = Tensor::randn({1, 3, 32, 32}, rng);
  RunStats on{}, off{};
  const Tensor got = opt.run(x, nullptr, &on);
  const Tensor want = ref.run(x, nullptr, &off);
  EXPECT_EQ(Tensor::max_abs_diff(got, want), 0.F);
  EXPECT_EQ(on.peak_activation_bytes, report.planned_peak_bytes);
  EXPECT_EQ(off.peak_activation_bytes, report.naive_peak_bytes);
  EXPECT_LE(static_cast<double>(on.peak_activation_bytes),
            0.7 * static_cast<double>(off.peak_activation_bytes))
      << "the paper-model acceptance bar: >= 30% peak activation reduction";

  // A batch the plan was NOT computed for still runs bit-identically (the
  // executor re-checks every in-place mark against actual shapes).
  const Tensor xb = Tensor::randn({5, 3, 32, 32}, rng);
  EXPECT_EQ(Tensor::max_abs_diff(opt.run(xb), ref.run(xb)), 0.F);
}

TEST(MemoryPlan, LenetOptimizedPipelineIsBitExact) {
  Rng rng(31);
  models::LeNetConfig cfg;
  cfg.algo = nn::ConvAlgo::kWinograd2;
  cfg.qspec = quant::QuantSpec{8};
  models::LeNet5 net(cfg, rng);
  net.set_training(true);
  for (int i = 0; i < 2; ++i) {
    net.forward(ag::Variable(Tensor::randn({4, 1, 28, 28}, rng), false));
  }
  Int8Pipeline ref = deploy::compile_lenet(net);
  ref.freeze_scales(Tensor::randn({4, 1, 28, 28}, rng));
  Int8Pipeline opt = ref;
  const OptimizeReport report = optimize_pipeline(opt, ref_opts({2, 1, 28, 28}));
  ASSERT_NE(opt.plan(), nullptr);
  // LeNet's peak is the max-pool point (pool input and output genuinely
  // coexist), which no buffer reuse can shrink — the plan must predict that
  // honestly rather than over-promise.
  EXPECT_LE(report.planned_peak_bytes, report.naive_peak_bytes);

  const Tensor x = Tensor::randn({2, 1, 28, 28}, rng);
  RunStats on{};
  const Tensor got = opt.run(x, nullptr, &on);
  EXPECT_EQ(Tensor::max_abs_diff(got, ref.run(x)), 0.F);
  EXPECT_EQ(on.peak_activation_bytes, report.planned_peak_bytes);
}

// ---- plan validation and robustness -----------------------------------------

TEST(MemoryPlan, SetPlanRejectsInconsistentPlans) {
  Rng rng(78);
  Int8Pipeline pipe = fusable_pipeline(rng);
  Int8Pipeline donor = pipe;
  optimize_pipeline(donor, ref_opts({1, 3, 8, 8}));
  ASSERT_NE(donor.plan(), nullptr);

  {
    MemoryPlan p = *donor.plan();
    p.in_place.pop_back();  // wrong stage count
    EXPECT_THROW(donor.set_plan(std::move(p)), std::invalid_argument);
  }
  {
    MemoryPlan p = *donor.plan();
    p.in_place[0] = 7;  // mark out of range
    EXPECT_THROW(donor.set_plan(std::move(p)), std::invalid_argument);
  }
  // The stale-plan guard: pushing a stage after planning clears the plan.
  optimize_pipeline(donor, ref_opts({1, 3, 8, 8}));
  ASSERT_NE(donor.plan(), nullptr);
  donor.push(ReluStage{}, io("", "", "", "tail.relu"));
  EXPECT_EQ(donor.plan(), nullptr);
}

TEST(PipelinePush, RejectedPushLeavesStagesAndPlanUnchanged) {
  Rng rng(80);
  Int8Pipeline pipe = fusable_pipeline(rng);
  optimize_pipeline(pipe, ref_opts({1, 3, 8, 8}));
  ASSERT_NE(pipe.plan(), nullptr);
  const MemoryPlan plan = *pipe.plan();
  std::vector<std::string> labels;
  for (const Int8Pipeline::Node& n : pipe.nodes()) labels.push_back(n.io.label);
  const auto expect_unchanged = [&](const char* what) {
    EXPECT_EQ(pipe.size(), labels.size()) << what;
    std::vector<std::string> now;
    for (const Int8Pipeline::Node& n : pipe.nodes()) now.push_back(n.io.label);
    EXPECT_EQ(now, labels) << what;
    ASSERT_NE(pipe.plan(), nullptr) << what << " dropped the attached plan";
    EXPECT_EQ(pipe.plan()->reference_input, plan.reference_input) << what;
    EXPECT_EQ(pipe.plan()->in_place, plan.in_place) << what;
    EXPECT_EQ(pipe.plan()->peak_bytes, plan.peak_bytes) << what;
    EXPECT_EQ(pipe.plan()->naive_peak_bytes, plan.naive_peak_bytes) << what;
  };

  // Bad wiring: reads a slot no stage publishes.
  EXPECT_THROW(pipe.push(ReluStage{}, io("nope", "", "", "bad-wiring")), std::invalid_argument);
  expect_unchanged("a badly wired push");

  // Valid wiring, but prepare() throws: the batch-norm's input scale is not
  // frozen.
  EXPECT_THROW(pipe.push(bn_stage(rng, 5, 0.F, 0.2F), io("", "", "", "unfrozen-bn")),
               std::invalid_argument);
  expect_unchanged("a push whose prepare() throws");
}

TEST(PipelinePush, RejectedPushLeavesTheSlotTableUnchanged) {
  Rng rng(81);
  Int8Pipeline pipe;
  pipe.push(im2row_conv(rng, 3, 4, 0.05F, 0.1F), io("", "", "x", "stem"));
  pipe.push(ReluStage{}, io("x", "", "", "relu"));
  // A push that would publish "y" is refused by its prepare(): "y" must not
  // be left behind as a published slot.
  EXPECT_THROW(pipe.push(bn_stage(rng, 4, 0.F, 0.2F), io("", "", "y", "unfrozen-bn")),
               std::invalid_argument);
  // A push refused by its wiring (it re-publishes "x") changes nothing either.
  EXPECT_THROW(pipe.push(ReluStage{}, io("", "", "x", "dup")), std::invalid_argument);
  ASSERT_EQ(pipe.size(), 2U);
  // So "y" is still unknown to readers and free to publish, and "x" still
  // resolves to the stem's output.
  pipe.push(ReluStage{}, io("", "", "y", "relu2"));
  EXPECT_THROW(pipe.push(ReluStage{}, io("y", "", "y", "dup-y")), std::invalid_argument);
  AddStage add;
  add.lhs_scale = 0.1F;
  add.rhs_scale = 0.1F;
  add.output_scale = 0.1F;
  pipe.push(std::move(add), io("y", "x", "", "join"));
  const Int8Pipeline::Wiring w = pipe.resolve_wiring();
  EXPECT_EQ(w.in1.back(), 3);  // value 3 = relu2's output ("y")
  EXPECT_EQ(w.in2.back(), 1);  // value 1 = the stem's output ("x")
  // take_nodes empties the table with the node list.
  std::vector<Int8Pipeline::Node> nodes = pipe.take_nodes();
  EXPECT_EQ(nodes.size(), 4U);
  pipe.push(im2row_conv(rng, 3, 4, 0.05F, 0.1F), io("", "", "x", "stem-again"));
  EXPECT_EQ(pipe.size(), 1U);
}

TEST(PipelinePush, LoadingIsLinearInTheStageCount) {
  // Each push checks only the new stage against the slot table; re-resolving
  // the whole graph per push made 4,000 stages take seconds.
  Rng rng(82);
  Int8Pipeline pipe;
  pipe.push(im2row_conv(rng, 3, 4, 0.05F, 0.1F), io("", "", "", "stem"));
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < 20000; ++i) pipe.push(ReluStage{});
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  EXPECT_EQ(pipe.size(), 20001U);
  EXPECT_LT(secs, 2.0) << "20,000 relu pushes took " << secs << " s";
  EXPECT_NO_THROW(pipe.resolve_wiring());
}

TEST(InferValueShapes, RejectsShapeInconsistentGraphsWithTheStageName) {
  Rng rng(79);
  {
    // Conv fed a flattened activation.
    Int8Pipeline pipe;
    pipe.push(im2row_conv(rng, 3, 4, 0.05F, 0.1F), io("", "", "", "conv-a"));
    pipe.push(FlattenStage{}, io("", "", "", "flat"));
    pipe.push(linear_stage(rng, 4 * 8 * 8, 3, 0.1F, 0.2F), io("", "", "", "fc"));
    Int8Pipeline bad;
    bad.push(im2row_conv(rng, 3, 4, 0.05F, 0.1F), io("", "", "", "conv-a"));
    bad.push(FlattenStage{}, io("", "", "", "flat"));
    bad.push(im2row_conv(rng, 4, 2, 0.1F, 0.2F), io("", "", "", "conv-on-flat"));
    try {
      passes::infer_value_shapes(bad, {1, 3, 8, 8});
      FAIL() << "expected invalid_argument";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("conv-on-flat"), std::string::npos) << e.what();
    }
  }
  {
    // Residual join with mismatched branch shapes.
    Int8Pipeline bad;
    bad.push(im2row_conv(rng, 3, 4, 0.05F, 0.1F), io("", "", "x", "stem"));
    bad.push(im2row_conv(rng, 4, 4, 0.1F, 0.09F, false, 3, 0), io("x", "", "", "shrink"));
    AddStage add;
    add.lhs_scale = 0.09F;
    add.rhs_scale = 0.1F;
    add.output_scale = 0.08F;
    bad.push(std::move(add), io("", "x", "", "join-mismatch"));
    try {
      passes::infer_value_shapes(bad, {1, 3, 8, 8});
      FAIL() << "expected invalid_argument";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("join-mismatch"), std::string::npos) << e.what();
    }
  }
}

// ---- epilogue serialization neutrality --------------------------------------

TEST(FuseStages, TimingEntriesCollapseWithTheFusedStages) {
  Rng rng(80);
  Int8Pipeline ref = fusable_pipeline(rng);
  Int8Pipeline opt = ref;
  optimize_pipeline(opt, ref_opts({1, 3, 9, 9}));
  Rng data_rng(11);
  const Tensor x = Tensor::randn({1, 3, 9, 9}, data_rng);
  std::vector<StageTiming> t_ref, t_opt;
  ref.run(x, &t_ref);
  opt.run(x, &t_opt);
  EXPECT_EQ(t_ref.size(), ref.size());
  EXPECT_EQ(t_opt.size(), opt.size());
  EXPECT_LT(t_opt.size(), t_ref.size());
  // Fused labels advertise what they absorbed.
  bool merged_label = false;
  for (const auto& t : t_opt) merged_label |= t.label.find('+') != std::string::npos;
  EXPECT_TRUE(merged_label);
}

}  // namespace
}  // namespace wa::deploy
