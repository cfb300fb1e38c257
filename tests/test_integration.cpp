// Cross-module integration tests: training <-> deployment consistency,
// checkpointing across model variants, and micro-scale versions of the
// paper's headline effects.
#include <gtest/gtest.h>

#include "backend/conv_kernels_s8.hpp"
#include "core/wa_conv2d.hpp"
#include "data/synthetic.hpp"
#include "models/resnet.hpp"
#include "nas/winas.hpp"
#include "tensor/io.hpp"
#include "train/trainer.hpp"

namespace wa {
namespace {

data::Dataset tiny_set(bool train, int classes = 10) {
  auto spec = data::cifar10_like();
  spec.num_classes = classes;
  spec.train_size = 192;
  spec.test_size = 96;
  spec.noise = 0.1F;
  spec.jitter = 1.F;
  return data::generate(spec, train);
}

// Small batches give the tiny train sets enough optimizer steps per epoch to
// learn reliably; large-batch few-step runs are seed-lottery.
train::TrainerOptions tiny_opts(int epochs, float lr = 3e-3F) {
  train::TrainerOptions opts;
  opts.batch_size = 16;
  opts.epochs = epochs;
  opts.lr = lr;
  return opts;
}

TEST(Integration, DirectFp32LearnsTinyDataset) {
  Rng rng(1);
  models::ResNetConfig cfg;
  cfg.width_mult = 0.125F;
  models::ResNet18 net(cfg, rng);
  const auto train_set = tiny_set(true);
  const auto val_set = tiny_set(false);
  train::TrainerOptions opts = tiny_opts(5);
  train::Trainer t(net, train_set, val_set, opts);
  t.fit();
  EXPECT_GT(t.evaluate(val_set), 0.5F);  // chance = 0.1
}

TEST(Integration, WinogradAwareF2Int8LearnsTinyDataset) {
  // The headline capability: an INT8 network executing Winograd convolutions
  // trains to high accuracy when training is winograd-aware.
  Rng rng(2);
  models::ResNetConfig cfg;
  cfg.width_mult = 0.125F;
  cfg.algo = nn::ConvAlgo::kWinograd2;
  cfg.qspec = quant::QuantSpec{8};
  models::ResNet18 net(cfg, rng);
  const auto train_set = tiny_set(true);
  const auto val_set = tiny_set(false);
  train::TrainerOptions opts = tiny_opts(5);
  train::Trainer t(net, train_set, val_set, opts);
  t.fit();
  EXPECT_GT(t.evaluate(val_set), 0.4F);
}

TEST(Integration, PostTrainingSwapToF6Int8Collapses) {
  // Micro Table 1: train direct fp32, swap conv algo at eval.
  Rng rng(3);
  models::ResNetConfig cfg;
  cfg.width_mult = 0.125F;
  models::ResNet18 source(cfg, rng);
  const auto train_set = tiny_set(true);
  const auto val_set = tiny_set(false);
  train::TrainerOptions opts = tiny_opts(5);
  train::Trainer t(source, train_set, val_set, opts);
  t.fit();
  const float direct_acc = t.evaluate(val_set);
  ASSERT_GT(direct_acc, 0.5F);

  auto swap = [&](nn::ConvAlgo algo, int bits) {
    Rng r2(4);
    models::ResNetConfig sc = cfg;
    sc.algo = algo;
    sc.qspec = quant::QuantSpec{bits};
    sc.pin_last_stage_to_f2 = false;
    models::ResNet18 swapped(sc, r2);
    swapped.load_state_intersect(source.state_dict());
    train::Trainer ev(swapped, train_set, val_set, opts);
    ev.warmup_observers(4);
    return ev.evaluate(val_set);
  };

  const float f2_fp32 = swap(nn::ConvAlgo::kWinograd2, 32);
  const float f6_int8 = swap(nn::ConvAlgo::kWinograd6, 8);
  EXPECT_GT(f2_fp32, direct_acc - 0.05F);          // fp32 F2 swap is free
  EXPECT_LT(f6_int8, direct_acc - 0.25F);          // int8 F6 swap collapses
}

TEST(Integration, CheckpointRoundTripAcrossProcessBoundary) {
  Rng rng(5);
  models::ResNetConfig cfg;
  cfg.width_mult = 0.125F;
  cfg.algo = nn::ConvAlgo::kWinograd4;
  cfg.flex_transforms = true;
  models::ResNet18 a(cfg, rng);
  const std::string path = ::testing::TempDir() + "/wa_resnet.ckpt";
  save_tensor_map(path, a.state_dict());

  Rng rng2(99);
  models::ResNet18 b(cfg, rng2);
  b.load_state(load_tensor_map(path));
  ag::Variable x(Tensor::randn({1, 3, 32, 32}, rng), false);
  a.set_training(false);
  b.set_training(false);
  EXPECT_TRUE(Tensor::allclose(a.forward(x).value(), b.forward(x).value(), 1e-5F));
}

TEST(Integration, TrainedScalesTransferToInt8DeploymentKernels) {
  // Train a single winograd-aware layer, freeze its stage scales, and run
  // the int8 deployment kernel with those scales: outputs must agree with
  // the training-time forward pass (the QAT -> integer-inference contract).
  Rng rng(6);
  nn::Conv2dOptions opts;
  opts.in_channels = 4;
  opts.out_channels = 4;
  opts.algo = nn::ConvAlgo::kWinograd2;
  opts.qspec = quant::QuantSpec{8};
  core::WinogradAwareConv2d layer(opts, rng);

  // "Calibrate" observers with a few batches.
  for (int i = 0; i < 4; ++i) {
    ag::Variable x(Tensor::randn({2, 4, 8, 8}, rng), false);
    layer.forward(x);
  }
  layer.set_training(false);

  const Tensor probe = Tensor::randn({1, 4, 8, 8}, rng);
  ag::Variable xv(probe, false);
  const Tensor train_path = layer.forward(xv).value();

  backend::ConvGeometry g;
  g.batch = 1;
  g.in_channels = 4;
  g.out_channels = 4;
  g.height = 8;
  g.width = 8;
  g.kernel = 3;
  g.pad = 1;
  const auto tr = wino::make_transforms(2, 3);
  backend::WinogradStageScales scales;
  scales.weights_transformed = layer.stages().u.scale(opts.qspec);
  scales.input_transformed = layer.stages().v.scale(opts.qspec);
  scales.hadamard = layer.stages().m.scale(opts.qspec);
  scales.output = layer.stages().y.scale(opts.qspec);

  // Input through the layer's own input observer, as at deployment.
  const float in_scale = layer.input_observer().scale(opts.qspec);
  const auto q_in = backend::quantize_s8(probe, in_scale);
  const auto prepared = backend::prepare_winograd_weights_s8(
      layer.weight().value(), tr, scales.weights_transformed);
  const auto q_out = backend::winograd_conv_s8_prepared(q_in, prepared, g, tr, scales);
  const Tensor deploy_path = backend::dequantize(q_out);

  const float rel = Tensor::max_abs_diff(train_path, deploy_path) /
                    std::max(train_path.abs_max(), 1e-6F);
  EXPECT_LT(rel, 0.08F);
}

TEST(Integration, WinasAssignmentRetrainsEndToEnd) {
  const auto train_set = tiny_set(true);
  const auto val_set = tiny_set(false);
  nas::WinasOptions wopts;
  wopts.epochs = 1;
  wopts.width_mult = 0.125F;
  wopts.fixed_spec = quant::QuantSpec{32};
  nas::WinasSearch search(wopts, train_set, val_set);
  const auto result = search.run();

  Rng rng(7);
  models::ResNetConfig cfg;
  cfg.width_mult = 0.125F;
  auto build = models::override_builder(result.assignment, rng);
  models::ResNet18 found(cfg, build, rng);
  train::TrainerOptions opts = tiny_opts(4);
  train::Trainer t(found, train_set, val_set, opts);
  t.fit();
  EXPECT_GT(t.evaluate(val_set), 0.3F);
}

TEST(Integration, HundredClassDatasetTrains) {
  // CIFAR-100-analog smoke: the 100-way head wires up and learns something.
  Rng rng(8);
  models::ResNetConfig cfg;
  cfg.width_mult = 0.125F;
  cfg.num_classes = 100;
  models::ResNet18 net(cfg, rng);
  auto spec = data::cifar100_like();
  spec.train_size = 400;
  spec.noise = 0.15F;
  spec.test_size = 100;
  const auto train_set = data::generate(spec, true);
  const auto val_set = data::generate(spec, false);
  train::TrainerOptions opts = tiny_opts(3);
  train::Trainer t(net, train_set, val_set, opts);
  t.fit();
  EXPECT_GT(t.evaluate(val_set), 0.05F);  // chance = 0.01
}

}  // namespace
}  // namespace wa
