// Tests for the graph-based int8 deployment pipeline: level-aligned skip-add
// edges, integer batch-norm, slot wiring/validation, and the ResNet-18
// QAT-to-integer-inference contract (the paper's Tables 2-3 workload).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>

#include "backend/perf_counters.hpp"
#include "data/synthetic.hpp"
#include "deploy/pipeline.hpp"
#include "train/trainer.hpp"

namespace wa::deploy {
namespace {

using backend::PerfCounters;
using backend::QTensor;

QTensor levels(Shape shape, std::vector<std::int8_t> data, float scale) {
  QTensor q;
  q.shape = std::move(shape);
  q.data = std::move(data);
  q.scale = scale;
  return q;
}

// ---- add_s8: saturation and scale-ratio edges -------------------------------

TEST(AddS8, RequantizesBothBranchesOntoOutputScale) {
  // lhs: 10 levels at 0.1 = 1.0; rhs: 40 levels at 0.05 = 2.0; out at 0.1.
  const QTensor lhs = levels(Shape{4}, {10, -10, 0, 100}, 0.1F);
  const QTensor rhs = levels(Shape{4}, {40, 20, -40, 4}, 0.05F);
  const QTensor y = add_s8(lhs, rhs, make_requant_ratio(0.1F, 0.1F),
                           make_requant_ratio(0.05F, 0.1F), 0.1F, /*relu=*/false);
  EXPECT_FLOAT_EQ(y.scale, 0.1F);
  EXPECT_EQ(y.data, (std::vector<std::int8_t>{30, 0, -20, 102}));
}

TEST(AddS8, SaturatesInsteadOfWrapping) {
  const QTensor lhs = levels(Shape{2}, {127, -127}, 1.F);
  const QTensor rhs = levels(Shape{2}, {127, -127}, 1.F);
  const QTensor y = add_s8(lhs, rhs, make_requant_ratio(1.F, 1.F), make_requant_ratio(1.F, 1.F),
                           1.F, /*relu=*/false);
  EXPECT_EQ(y.data[0], 127) << "254 must clamp, not wrap";
  EXPECT_EQ(y.data[1], -127);
}

TEST(AddS8, ExtremeScaleRatiosStayDefined) {
  // A branch 12 orders of magnitude hotter than the join scale must saturate
  // cleanly; one 12 orders colder must vanish — both through the (now
  // 64-bit-safe) fixed-point path.
  const QTensor big = levels(Shape{2}, {100, -100}, 1e6F);
  const QTensor tiny = levels(Shape{2}, {100, -100}, 1e-12F);
  const QTensor y = add_s8(big, tiny, make_requant_ratio(1e6F, 1e-6F),
                           make_requant_ratio(1e-12F, 1e-6F), 1e-6F, /*relu=*/false);
  EXPECT_EQ(y.data[0], 127);
  EXPECT_EQ(y.data[1], -127);
  const QTensor z = add_s8(tiny, tiny, make_requant_ratio(1e-12F, 1e-6F),
                           make_requant_ratio(1e-12F, 1e-6F), 1e-6F, /*relu=*/false);
  EXPECT_EQ(z.data[0], 0);
  EXPECT_EQ(z.data[1], 0);
}

TEST(AddS8, FusedReluClampsNegativeSums) {
  const QTensor lhs = levels(Shape{3}, {10, -50, 5}, 0.1F);
  const QTensor rhs = levels(Shape{3}, {-30, 10, 5}, 0.1F);
  const QTensor y = add_s8(lhs, rhs, make_requant_ratio(0.1F, 0.1F),
                           make_requant_ratio(0.1F, 0.1F), 0.1F, /*relu=*/true);
  EXPECT_EQ(y.data, (std::vector<std::int8_t>{0, 0, 10}));
}

TEST(AddS8, MismatchedShapesThrow) {
  const QTensor a = levels(Shape{2}, {1, 2}, 1.F);
  const QTensor b = levels(Shape{3}, {1, 2, 3}, 1.F);
  EXPECT_THROW(add_s8(a, b, make_requant_ratio(1.F, 1.F), make_requant_ratio(1.F, 1.F), 1.F, false),
               std::invalid_argument);
}

// ---- channel_affine_s8: deployed batch-norm ---------------------------------

TEST(ChannelAffineS8, MatchesFloatBatchNormWithinOneLevel) {
  Rng rng(11);
  const std::int64_t n = 2, c = 5, hw = 9;
  const float s_in = 0.07F, s_out = 0.11F;
  const Tensor a = Tensor::randn({c}, rng, 1.5F);  // gamma/sigma, both signs
  const Tensor b = Tensor::randn({c}, rng, 2.0F);
  QTensor x;
  x.shape = Shape{n, c, 3, 3};
  x.scale = s_in;
  for (std::int64_t i = 0; i < n * c * hw; ++i) {
    x.data.push_back(static_cast<std::int8_t>((i * 37 + 11) % 255 - 127));
  }
  const auto p = prepare_channel_affine_s8(a, b, s_in, s_out);
  const QTensor y = channel_affine_s8(x, p, /*relu=*/false);
  EXPECT_FLOAT_EQ(y.scale, s_out);
  for (std::int64_t ni = 0; ni < n; ++ni) {
    for (std::int64_t ci = 0; ci < c; ++ci) {
      for (std::int64_t i = 0; i < hw; ++i) {
        const std::size_t idx = static_cast<std::size_t>((ni * c + ci) * hw + i);
        const float real = a.at(ci) * s_in * static_cast<float>(x.data[idx]) + b.at(ci);
        const float want = std::min(127.F, std::max(-127.F, real / s_out));
        EXPECT_NEAR(static_cast<float>(y.data[idx]), want, 1.01F)
            << "channel " << ci << " (A=" << a.at(ci) << ")";
      }
    }
  }
}

TEST(ChannelAffineS8, CollapsedChannelIsBiasOnly) {
  const Tensor a = Tensor(Shape{1}, {0.F});
  const Tensor b = Tensor(Shape{1}, {0.5F});
  QTensor x = levels(Shape{1, 1, 1, 2}, {100, -100}, 1.F);
  const QTensor y = channel_affine_s8(x, prepare_channel_affine_s8(a, b, 1.F, 0.1F), false);
  EXPECT_EQ(y.data, (std::vector<std::int8_t>{5, 5}));
}

TEST(ChannelAffineS8, RejectsNonFiniteScaleOrBias) {
  // A NaN scale would become m0 = 0 and a NaN bias llround(NaN), and the
  // level maps would bake either into every level of the channel.
  const Tensor ok = Tensor(Shape{2}, {1.F, 0.5F});
  EXPECT_THROW(prepare_channel_affine_s8(Tensor(Shape{2}, {1.F, std::nanf("")}), ok, 1.F, 1.F),
               std::invalid_argument);
  EXPECT_THROW(prepare_channel_affine_s8(ok, Tensor(Shape{2}, {INFINITY, 0.F}), 1.F, 1.F),
               std::invalid_argument);
  EXPECT_NO_THROW(prepare_channel_affine_s8(ok, ok, 1.F, 1.F));
}

// ---- graph wiring and stage-input validation --------------------------------

ConvStage im2row_stage(Rng& rng, std::int64_t in_ch, std::int64_t out_ch, float in_scale,
                       float out_scale, bool relu, std::int64_t kernel = 3, std::int64_t pad = 1) {
  ConvStage st;
  st.algo = nn::ConvAlgo::kIm2row;
  st.in_channels = in_ch;
  st.out_channels = out_ch;
  st.kernel = kernel;
  st.pad = pad;
  st.input_scale = in_scale;
  st.output_scale = out_scale;
  st.relu_after = relu;
  st.weights_q = backend::quantize_s8(Tensor::randn({out_ch, in_ch, kernel, kernel}, rng, 0.3F));
  return st;
}

StageIO io(std::string input, std::string input2, std::string output, std::string label) {
  StageIO o;
  o.input = std::move(input);
  o.input2 = std::move(input2);
  o.output = std::move(output);
  o.label = std::move(label);
  return o;
}

TEST(PipelineGraph, ProjectionShortcutExecutesAndMatchesManualOps) {
  Rng rng(12);
  ConvStage stem = im2row_stage(rng, 3, 4, 0.05F, 0.1F, true);
  ConvStage main = im2row_stage(rng, 4, 6, 0.1F, 0.09F, false);
  ConvStage proj = im2row_stage(rng, 4, 6, 0.1F, 0.12F, false, /*kernel=*/1, /*pad=*/0);

  // Manual reference with the raw ops, mirroring the graph below bit-exactly.
  const Tensor x = Tensor::randn({2, 3, 8, 8}, rng);
  const auto conv = [](const ConvStage& st, const QTensor& in) {
    backend::ConvGeometry g;
    g.batch = in.shape[0];
    g.in_channels = st.in_channels;
    g.height = in.shape[2];
    g.width = in.shape[3];
    g.out_channels = st.out_channels;
    g.kernel = st.kernel;
    g.pad = st.pad;
    QTensor y = backend::im2row_conv_s8_prepared(in, backend::prepare_im2row_weights_s8(st.weights_q),
                                                 g, st.output_scale, nullptr);
    return st.relu_after ? relu_s8(std::move(y)) : y;
  };
  const QTensor q0 = backend::quantize_s8(x, stem.input_scale);
  const QTensor stem_out = conv(stem, q0);
  const QTensor main_out = conv(main, stem_out);
  const QTensor skip_out = conv(proj, stem_out);
  const QTensor joined = add_s8(main_out, skip_out, make_requant_ratio(0.09F, 0.08F),
                                make_requant_ratio(0.12F, 0.08F), 0.08F, /*relu=*/true);
  const Tensor want = backend::dequantize(joined);

  Int8Pipeline pipe;
  pipe.push(std::move(stem), io("", "", "x", "stem"));
  pipe.push(std::move(proj), io("x", "", "skip", "proj"));
  pipe.push(std::move(main), io("x", "", "", "main"));
  AddStage add;
  add.lhs_scale = 0.09F;
  add.rhs_scale = 0.12F;
  add.output_scale = 0.08F;
  add.relu_after = true;
  pipe.push(std::move(add), io("", "skip", "", "join"));

  std::vector<StageTiming> timings;
  const Tensor got = pipe.run(x, &timings);
  ASSERT_EQ(got.shape(), want.shape());
  EXPECT_EQ(Tensor::max_abs_diff(got, want), 0.F)
      << "graph execution must match the hand-wired ops bit-exactly";
  ASSERT_EQ(timings.size(), 4u);
  EXPECT_EQ(timings[1].label, "proj");
}

TEST(PipelineGraph, PushRejectsBadWiring) {
  Rng rng(13);
  {
    Int8Pipeline pipe;  // reading a slot nobody published
    EXPECT_THROW(pipe.push(im2row_stage(rng, 3, 4, 0.1F, 0.1F, false), io("nope", "", "", "")),
                 std::invalid_argument);
  }
  {
    Int8Pipeline pipe;  // publishing the same slot twice
    pipe.push(im2row_stage(rng, 3, 4, 0.1F, 0.1F, false), io("", "", "x", ""));
    EXPECT_THROW(pipe.push(im2row_stage(rng, 4, 4, 0.1F, 0.1F, false), io("x", "", "x", "")),
                 std::invalid_argument);
  }
  {
    Int8Pipeline pipe;  // AddStage without a second operand
    AddStage add;
    add.lhs_scale = add.rhs_scale = add.output_scale = 0.1F;
    EXPECT_THROW(pipe.push(std::move(add)), std::invalid_argument);
  }
  {
    Int8Pipeline pipe;  // input2 on a non-add stage
    pipe.push(im2row_stage(rng, 3, 4, 0.1F, 0.1F, false), io("", "", "x", ""));
    EXPECT_THROW(pipe.push(PoolStage{2, 2}, io("x", "x", "", "")), std::invalid_argument);
  }
  {
    Int8Pipeline pipe;  // implicit input after the producer published to a slot
    pipe.push(im2row_stage(rng, 3, 4, 0.1F, 0.1F, false), io("", "", "x", ""));
    EXPECT_THROW(pipe.push(PoolStage{2, 2}), std::invalid_argument);
  }
  {
    // Reading a named slot while the previous stage chains implicitly would
    // silently drop the previous stage's output.
    Int8Pipeline pipe;
    pipe.push(im2row_stage(rng, 3, 4, 0.1F, 0.1F, false), io("", "", "x", ""));
    pipe.push(im2row_stage(rng, 4, 4, 0.1F, 0.1F, false), io("x", "", "", ""));  // chains
    EXPECT_THROW(pipe.push(PoolStage{2, 2}, io("x", "", "", "")), std::invalid_argument);
  }
}

TEST(PipelineGraph, RunRejectsDeadPublishedSlots) {
  // A mid-pipeline stage publishing a slot nobody reads is dead dataflow.
  Rng rng(19);
  Int8Pipeline pipe;
  pipe.push(im2row_stage(rng, 3, 4, 0.1F, 0.1F, false), io("", "", "x", ""));
  pipe.push(im2row_stage(rng, 4, 4, 0.1F, 0.1F, false), io("x", "", "unread", ""));
  pipe.push(im2row_stage(rng, 4, 4, 0.1F, 0.1F, false), io("x", "", "", ""));
  EXPECT_THROW(pipe.run(Tensor::randn({1, 3, 8, 8}, rng)), std::invalid_argument);
}

TEST(PipelineGraph, RunValidatesStageInputsWithClearErrors) {
  Rng rng(14);
  const Tensor x = Tensor::randn({1, 3, 8, 8}, rng);
  {
    // Channel mismatch: second conv expects 8 channels, gets 4.
    Int8Pipeline pipe;
    pipe.push(im2row_stage(rng, 3, 4, 0.1F, 0.1F, false));
    pipe.push(im2row_stage(rng, 8, 8, 0.1F, 0.1F, false));
    try {
      pipe.run(x);
      FAIL() << "expected invalid_argument";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("channels"), std::string::npos) << e.what();
    }
  }
  {
    // Convolution fed a flattened activation must throw, not read OOB dims.
    Int8Pipeline pipe;
    pipe.push(im2row_stage(rng, 3, 4, 0.1F, 0.1F, false));
    pipe.push(FlattenStage{});
    pipe.push(im2row_stage(rng, 4, 4, 0.1F, 0.1F, false));
    EXPECT_THROW(pipe.run(x), std::invalid_argument);
  }
  {
    // Linear feature mismatch reports the stage, not a bare GEMM error.
    Int8Pipeline pipe;
    pipe.push(im2row_stage(rng, 3, 4, 0.1F, 0.1F, false));
    pipe.push(FlattenStage{});
    LinearStage fc;
    fc.input_scale = 0.1F;
    fc.weights_q = backend::quantize_s8(Tensor::randn({10, 99}, rng));
    pipe.push(std::move(fc), io("", "", "", "fc"));
    try {
      pipe.run(x);
      FAIL() << "expected invalid_argument";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("fc"), std::string::npos) << e.what();
      EXPECT_NE(std::string(e.what()).find("features"), std::string::npos) << e.what();
    }
  }
  {
    // Skip-add with mismatched branch shapes.
    Int8Pipeline pipe;
    pipe.push(im2row_stage(rng, 3, 4, 0.1F, 0.1F, false), io("", "", "x", ""));
    pipe.push(im2row_stage(rng, 4, 6, 0.1F, 0.1F, false), io("x", "", "", ""));
    AddStage add;
    add.lhs_scale = add.rhs_scale = add.output_scale = 0.1F;
    pipe.push(std::move(add), io("", "x", "", "join"));
    EXPECT_THROW(pipe.run(x), std::invalid_argument);
  }
}

// ---- compile_resnet18: the QAT -> integer-inference contract ----------------

data::Dataset resnet_set(bool train) {
  auto spec = data::cifar10_like();
  spec.train_size = 192;
  spec.test_size = 96;
  spec.noise = 0.1F;
  spec.jitter = 1.F;
  return data::generate(spec, train);
}

struct AgreementReport {
  float agreement = 0.F;
  float deployed_acc = 0.F;
  float qat_acc = 0.F;
  std::int64_t samples = 0;
};

AgreementReport compare_deployed(models::ResNet18& net, const Int8Pipeline& pipe,
                                 const data::Dataset& ds) {
  net.set_training(false);
  data::DataLoader loader(ds, 16, false);
  std::int64_t agree = 0, correct = 0, qat_correct = 0, total = 0;
  for (std::int64_t bi = 0; bi < loader.batches(); ++bi) {
    const auto batch = loader.get(bi);
    const auto deployed = pipe.classify(batch.images);
    const Tensor logits = net.forward(ag::Variable(batch.images, false)).value();
    const std::int64_t classes = logits.numel() / logits.size(0);
    for (std::size_t i = 0; i < deployed.size(); ++i) {
      std::int64_t qat_pred = 0;
      for (std::int64_t c = 1; c < classes; ++c) {
        if (logits.at(static_cast<std::int64_t>(i) * classes + c) >
            logits.at(static_cast<std::int64_t>(i) * classes + qat_pred))
          qat_pred = c;
      }
      agree += deployed[i] == qat_pred;
      correct += deployed[i] == batch.labels[i];
      qat_correct += qat_pred == batch.labels[i];
      ++total;
    }
  }
  AgreementReport r;
  r.samples = total;
  r.agreement = static_cast<float>(agree) / static_cast<float>(total);
  r.deployed_acc = static_cast<float>(correct) / static_cast<float>(total);
  r.qat_acc = static_cast<float>(qat_correct) / static_cast<float>(total);
  return r;
}

TEST(ResNetDeploy, CompileRejectsUncalibratedModel) {
  Rng rng(15);
  models::ResNetConfig cfg;
  cfg.width_mult = 0.125F;
  cfg.qspec = quant::QuantSpec{8};
  models::ResNet18 net(cfg, rng);  // never saw a batch: observers cold
  EXPECT_THROW(compile_resnet18(net), std::invalid_argument);
}

TEST(ResNetDeploy, CompileRejectsImpossibleBatchNormStatistics) {
  // A checkpoint can carry a negative running variance. The compiler must
  // refuse it, naming the layer, on both batch-norm lowerings: the fold into
  // a GEMM conv (the stem here) and the integer affine after a Winograd conv.
  for (const nn::ConvAlgo algo : {nn::ConvAlgo::kIm2row, nn::ConvAlgo::kWinograd2}) {
    SCOPED_TRACE(nn::is_winograd(algo) ? "F2" : "im2row");
    Rng rng(16);
    models::ResNetConfig cfg;
    cfg.width_mult = 0.125F;
    cfg.algo = algo;
    cfg.qspec = quant::QuantSpec{8};
    models::ResNet18 net(cfg, rng);
    net.set_training(true);
    for (int i = 0; i < 2; ++i) {
      net.forward(ag::Variable(Tensor::randn({2, 3, 32, 32}, rng), false));
    }
    net.set_training(false);
    ASSERT_NO_THROW(compile_resnet18(net));

    nn::BatchNorm2d& bn = nn::is_winograd(algo) ? net.blocks()[0]->bn1() : net.bn_in();
    const std::string layer = nn::is_winograd(algo) ? ".conv1.bn" : "conv_in.bn";
    for (auto& [name, v] : net.named_parameters()) {
      if (v.value().raw() == bn.running_var().raw()) v.value().data()[1] = -0.25F;
    }
    ASSERT_LT(bn.running_var().at(1), 0.F);
    try {
      compile_resnet18(net);
      ADD_FAILURE() << "a negative running variance compiled";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(layer), std::string::npos) << e.what();
    }
  }
}

TEST(ResNetDeploy, Im2rowPipelineAgreesWithQatModel) {
  // The headline contract: a QAT-trained ResNet-18 (the paper's
  // pool-instead-of-stride variant) compiles to a pure-int8 graph pipeline
  // and classifies like the QAT eval forward.
  Rng rng(16);
  models::ResNetConfig cfg;
  cfg.width_mult = 0.125F;
  cfg.qspec = quant::QuantSpec{8};
  models::ResNet18 net(cfg, rng);
  const auto train_set = resnet_set(true);
  const auto val_set = resnet_set(false);
  train::TrainerOptions opts;
  opts.batch_size = 16;
  opts.epochs = 6;
  opts.lr = 3e-3F;
  train::Trainer t(net, train_set, val_set, opts);
  t.fit();

  const Int8Pipeline pipe = compile_resnet18(net);
  const AgreementReport on_val = compare_deployed(net, pipe, val_set);
  const AgreementReport on_train = compare_deployed(net, pipe, train_set);
  const float agreement =
      (on_val.agreement * static_cast<float>(on_val.samples) +
       on_train.agreement * static_cast<float>(on_train.samples)) /
      static_cast<float>(on_val.samples + on_train.samples);
  std::printf("[          ] im2row agreement %.4f (val %.4f, train %.4f), deployed acc %.3f, "
              "qat acc %.3f\n",
              static_cast<double>(agreement), static_cast<double>(on_val.agreement),
              static_cast<double>(on_train.agreement), static_cast<double>(on_val.deployed_acc),
              static_cast<double>(on_val.qat_acc));
  EXPECT_GE(agreement, 0.99F) << "val agreement " << on_val.agreement << ", train agreement "
                              << on_train.agreement;
  EXPECT_GT(on_val.deployed_acc, on_val.qat_acc - 0.05F) << "deployment lost too much accuracy";
}

TEST(ResNetDeploy, WinogradF2PipelineAgreesWithQatModel) {
  // Same contract through the Winograd path: block convs deploy with frozen
  // per-stage Qx scales and integer batch-norm stages. Winograd tiles carry
  // inherent ±1-level requant rounding (the paper's Table 1 mechanism), so
  // the bar sits below the GEMM path's.
  Rng rng(17);
  models::ResNetConfig cfg;
  cfg.width_mult = 0.125F;
  cfg.algo = nn::ConvAlgo::kWinograd2;
  cfg.qspec = quant::QuantSpec{8};
  models::ResNet18 net(cfg, rng);
  const auto train_set = resnet_set(true);
  const auto val_set = resnet_set(false);
  train::TrainerOptions opts;
  opts.batch_size = 16;
  opts.epochs = 3;
  opts.lr = 3e-3F;
  train::Trainer t(net, train_set, val_set, opts);
  t.fit();

  const Int8Pipeline pipe = compile_resnet18(net);
  const AgreementReport r = compare_deployed(net, pipe, val_set);
  std::printf("[          ] F2 agreement %.4f, deployed acc %.3f, qat acc %.3f\n",
              static_cast<double>(r.agreement), static_cast<double>(r.deployed_acc),
              static_cast<double>(r.qat_acc));
  EXPECT_GT(r.agreement, 0.9F) << "deployed disagrees with QAT model";
  EXPECT_GT(r.deployed_acc, r.qat_acc - 0.1F) << "deployment lost too much accuracy";
}

TEST(ResNetDeploy, WinogradF4PerTapPipelineAgreesWithQatModel) {
  // The tentpole contract: F4 deployed with per-tap scale vectors (one scale
  // per transform-domain tap, tap_group_size=1) must agree with its QAT model
  // at least as well as the F2 figure above — per-tensor F4 is what made the
  // larger tiles undeployable, per-tap is what fixes it (LANCE-style
  // requantization in the transform domain).
  Rng rng(17);  // same seed/bar as the F2 test for a like-for-like comparison
  models::ResNetConfig cfg;
  cfg.width_mult = 0.125F;
  cfg.algo = nn::ConvAlgo::kWinograd4;
  cfg.qspec = quant::QuantSpec{8};
  cfg.tap_group_size = 1;
  models::ResNet18 net(cfg, rng);
  const auto train_set = resnet_set(true);
  const auto val_set = resnet_set(false);
  train::TrainerOptions opts;
  opts.batch_size = 16;
  opts.epochs = 3;
  opts.lr = 3e-3F;
  train::Trainer t(net, train_set, val_set, opts);
  t.fit();

  const Int8Pipeline pipe = compile_resnet18(net);

  // The compiled graph must actually carry per-tap vectors on its F4 stages
  // (36 = 6x6 taps); the last residual stage stays pinned to F2 (16 taps).
  std::int64_t per_tap_stages = 0;
  for (const auto& node : pipe.nodes()) {
    const auto* conv = std::get_if<ConvStage>(&node.op);
    if (conv == nullptr || !nn::is_winograd(conv->algo)) continue;
    const std::int64_t t = nn::winograd_m(conv->algo) + 2;
    ASSERT_EQ(static_cast<std::int64_t>(conv->stage_scales.input_transformed_taps.size()), t * t)
        << node.io.label;
    ASSERT_EQ(static_cast<std::int64_t>(conv->stage_scales.hadamard_taps.size()), t * t)
        << node.io.label;
    ASSERT_EQ(static_cast<std::int64_t>(conv->stage_scales.weights_transformed_taps.size()), t * t)
        << node.io.label;
    ++per_tap_stages;
  }
  EXPECT_EQ(per_tap_stages, 16) << "all searchable block convs deploy per-tap";

  const AgreementReport r = compare_deployed(net, pipe, val_set);
  std::printf("[          ] F4 per-tap agreement %.4f, deployed acc %.3f, qat acc %.3f\n",
              static_cast<double>(r.agreement), static_cast<double>(r.deployed_acc),
              static_cast<double>(r.qat_acc));
  EXPECT_GT(r.agreement, 0.9F) << "per-tap F4 must hold the F2 agreement bar";
  EXPECT_GT(r.deployed_acc, r.qat_acc - 0.1F) << "deployment lost too much accuracy";
}

TEST(ResNetDeploy, CompiledPipelineNeverTransformsOrRepacksAtRunTime) {
  // Calibration (not full training) is enough to compile; the perf counters
  // then prove the prepared pipeline pays zero weight transforms/repacks per
  // forward across every stage type (conv, linear).
  Rng rng(18);
  models::ResNetConfig cfg;
  cfg.width_mult = 0.125F;
  cfg.algo = nn::ConvAlgo::kWinograd2;  // mixed: wino blocks + folded GEMM stem/shortcuts
  cfg.qspec = quant::QuantSpec{8};
  models::ResNet18 net(cfg, rng);
  net.set_training(true);
  for (int i = 0; i < 2; ++i) {
    net.forward(ag::Variable(Tensor::randn({4, 3, 32, 32}, rng), false));
  }
  const Int8Pipeline pipe = compile_resnet18(net);

  const Tensor x = Tensor::randn({2, 3, 32, 32}, rng);
  pipe.run(x);  // cold run outside the measured window (first-touch arenas)
  const std::uint64_t transforms = PerfCounters::weight_transforms.load();
  const std::uint64_t repacks = PerfCounters::weight_repacks.load();
  pipe.run(x);
  pipe.run(x);
  EXPECT_EQ(PerfCounters::weight_transforms.load(), transforms)
      << "forwards must reuse the cached U = G g Gᵀ";
  EXPECT_EQ(PerfCounters::weight_repacks.load(), repacks)
      << "forwards must reuse the packed GEMM weights";
}

}  // namespace
}  // namespace wa::deploy
