// Tests for optimizers, schedules and the training loop.
#include <gtest/gtest.h>

#include "autograd/ops.hpp"
#include "data/synthetic.hpp"
#include "models/lenet.hpp"
#include "models/resnet.hpp"
#include "test_support.hpp"
#include "train/trainer.hpp"

namespace wa::train {
namespace {

ag::Variable leaf(Tensor t) { return ag::Variable(std::move(t), true); }

// Minimise f(w) = ||w - target||² with each optimizer.
template <typename Opt, typename Opts>
float optimize_quadratic(Opts opts, int steps) {
  ag::Variable w = leaf(Tensor::full({4}, 5.F));
  const Tensor target = Tensor::full({4}, 1.F);
  Opt opt({w}, opts);
  for (int i = 0; i < steps; ++i) {
    ag::Variable diff = ag::sub(w, ag::Variable(target, false));
    ag::Variable loss = ag::sum(ag::mul(diff, diff));
    opt.zero_grad();
    loss.backward();
    opt.step();
  }
  return Tensor::max_abs_diff(w.value(), target);
}

TEST(Sgd, ConvergesOnQuadratic) {
  SgdOptions o;
  o.lr = 0.05F;
  EXPECT_LT(optimize_quadratic<Sgd>(o, 100), 1e-3F);
}

TEST(Sgd, NesterovConvergesFasterThanPlain) {
  SgdOptions plain;
  plain.lr = 0.02F;
  plain.momentum = 0.9F;
  plain.nesterov = false;
  SgdOptions nest = plain;
  nest.nesterov = true;
  EXPECT_LE(optimize_quadratic<Sgd>(nest, 30), optimize_quadratic<Sgd>(plain, 30) + 1e-4F);
}

TEST(Sgd, WeightDecayShrinksWeights) {
  ag::Variable w = leaf(Tensor::full({2}, 1.F));
  SgdOptions o;
  o.lr = 0.1F;
  o.momentum = 0.F;
  o.weight_decay = 1.F;
  Sgd opt({w}, o);
  // Zero loss gradient: only decay acts.
  ag::sum(ag::scale(w, 0.F)).backward();
  opt.step();
  EXPECT_LT(w.value().at(0), 1.F);
}

TEST(Adam, ConvergesOnQuadratic) {
  AdamOptions o;
  o.lr = 0.1F;
  EXPECT_LT(optimize_quadratic<Adam>(o, 200), 1e-2F);
}

TEST(Adam, Beta1ZeroOnlyMovesParamsWithGradient) {
  // wiNAS uses Adam(β1=0) so that unsampled paths (zero grad) don't drift.
  AdamOptions o;
  o.beta1 = 0.F;
  ag::Variable w = leaf(Tensor::full({2}, 1.F));
  Adam opt({w}, o);
  // First step WITH gradient on element 0 only.
  w.grad();  // ensure allocated
  w.node()->grad.at(0) = 1.F;
  opt.step();
  const float moved = w.value().at(0);
  EXPECT_LT(moved, 1.F);
  EXPECT_FLOAT_EQ(w.value().at(1), 1.F);  // untouched
}

TEST(CosineSchedule, EndpointsAndMonotonicity) {
  CosineSchedule s(1.F, 100, 0.F);
  EXPECT_NEAR(s.at(0), 1.F, 1e-5F);
  EXPECT_NEAR(s.at(99), 0.F, 1e-5F);
  EXPECT_GT(s.at(10), s.at(50));
  EXPECT_GT(s.at(50), s.at(90));
}

TEST(Trainer, LearnsSyntheticMnistQuickly) {
  // End-to-end smoke: a LeNet on the MNIST-analog should beat chance by a
  // wide margin within a few epochs — otherwise the experiment harnesses
  // upstream have no signal to work with.
  Rng rng(1);
  auto spec = data::mnist_like();
  spec.train_size = 256;
  spec.test_size = 128;
  const auto train_set = data::generate(spec, true);
  const auto val_set = data::generate(spec, false);

  models::LeNetConfig cfg;
  models::LeNet5 net(cfg, rng);
  TrainerOptions opts;
  opts.epochs = 3;
  opts.batch_size = 32;
  opts.lr = 2e-3F;
  Trainer trainer(net, train_set, val_set, opts);
  const auto history = trainer.fit();
  ASSERT_EQ(history.size(), 3u);
  EXPECT_GT(history.back().val_acc, 0.5F);  // chance is 0.1
  EXPECT_LT(history.back().train_loss, history.front().train_loss * 1.2F);
}

TEST(Trainer, WarmupObserversDoesNotChangeWeights) {
  Rng rng(2);
  auto spec = data::mnist_like();
  spec.train_size = 32;
  spec.test_size = 16;
  const auto train_set = data::generate(spec, true);
  const auto val_set = data::generate(spec, false);
  models::LeNetConfig cfg;
  cfg.qspec = quant::QuantSpec{8};
  models::LeNet5 net(cfg, rng);
  const auto before = net.state_dict();
  TrainerOptions opts;
  Trainer trainer(net, train_set, val_set, opts);
  trainer.warmup_observers();
  for (const auto& [name, t] : net.state_dict()) {
    if (name.find("running_") != std::string::npos) continue;  // BN buffers may move
    EXPECT_TRUE(Tensor::allclose(before.at(name), t, 0.F)) << name;
  }
}

TEST(Trainer, EvaluateIsDeterministic) {
  Rng rng(3);
  auto spec = data::mnist_like();
  spec.train_size = 32;
  spec.test_size = 32;
  const auto train_set = data::generate(spec, true);
  const auto val_set = data::generate(spec, false);
  models::LeNetConfig cfg;
  models::LeNet5 net(cfg, rng);
  TrainerOptions opts;
  Trainer trainer(net, train_set, val_set, opts);
  EXPECT_FLOAT_EQ(trainer.evaluate(val_set), trainer.evaluate(val_set));
}

using test_support::TeamSizeScope;

/// Losses of three Adam steps of a Winograd-aware QAT ResNet-18 (F4,
/// learned transforms, per-tap int8 scales), then a hash of every parameter
/// and gradient and of every buffer (batch-norm running statistics).
struct QatRun {
  std::vector<float> losses;
  std::uint64_t hash = test_support::kFnvOffset;
};

QatRun three_qat_steps() {
  auto spec = data::cifar10_like();
  spec.seed = 5;
  spec.height = 16;
  spec.width = 16;
  spec.train_size = 24;
  spec.test_size = 8;
  const auto ds = data::generate(spec, true);
  data::DataLoader loader(ds, 8, false);
  Rng rng(5);
  models::ResNetConfig cfg;
  cfg.width_mult = 0.125F;
  cfg.algo = nn::ConvAlgo::kWinograd4;
  cfg.qspec = quant::QuantSpec{8};
  cfg.flex_transforms = true;
  cfg.tap_group_size = 1;
  models::ResNet18 net(cfg, rng);
  net.set_training(true);
  Adam opt(net.parameters(), AdamOptions{});
  QatRun run;
  for (std::int64_t step = 0; step < 3; ++step) {
    const data::Batch b = loader.get(step);
    const ag::Variable loss =
        ag::softmax_cross_entropy(net.forward(ag::Variable(b.images, false)), b.labels);
    opt.zero_grad();
    loss.backward();
    opt.step();
    run.losses.push_back(loss.value().at(0));
  }
  for (const ag::Variable& p : net.parameters()) {
    run.hash = test_support::fnv_tensor(run.hash, p.value());
    run.hash = test_support::fnv_tensor(run.hash, p.grad());
  }
  for (const auto& [name, t] : net.state_dict()) run.hash = test_support::fnv_tensor(run.hash, t);
  return run;
}

TEST(QatDeterminism, WinogradAwareResNetStepsAreBitIdenticalAcrossTeamSizes) {
  // Every reduction of the step runs in a fixed order, so a team of 2 or 3
  // reproduces a team of 1 bit for bit (the transform-gradient sums used to
  // be added in thread-arrival order).
  QatRun one;
  {
    const TeamSizeScope team(1);
    one = three_qat_steps();
  }
  for (const int threads : {2, 3}) {
    const TeamSizeScope team(threads);
    const QatRun other = three_qat_steps();
    EXPECT_EQ(other.losses, one.losses) << "team " << threads;
    EXPECT_EQ(other.hash, one.hash) << "team " << threads;
  }
}

}  // namespace
}  // namespace wa::train
