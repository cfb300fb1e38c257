// Tests for the int8 deployment pipeline: integer ops, scale chaining, and
// the QAT-to-integer-inference contract on a full LeNet-5.
#include <gtest/gtest.h>

#include "data/synthetic.hpp"
#include "deploy/pipeline.hpp"
#include "train/trainer.hpp"

namespace wa::deploy {
namespace {

using backend::QTensor;

QTensor q_of(const Tensor& t, float scale = -1.F) { return backend::quantize_s8(t, scale); }

// ---- integer ops ------------------------------------------------------------

TEST(Int8Ops, ReluZeroesNegativeLevels) {
  QTensor x;
  x.shape = Shape{4};
  x.scale = 0.1F;
  x.data = {-5, 0, 3, -1};
  const QTensor y = relu_s8(x);
  EXPECT_EQ(y.data, (std::vector<std::int8_t>{0, 0, 3, 0}));
  EXPECT_FLOAT_EQ(y.scale, 0.1F);
}

TEST(Int8Ops, MaxPoolMatchesFloatPath) {
  Rng rng(1);
  const Tensor x = Tensor::randn({2, 3, 8, 8}, rng);
  const QTensor q = q_of(x);
  const QTensor pooled = max_pool_s8(q, 2, 2);
  EXPECT_EQ(pooled.shape, (Shape{2, 3, 4, 4}));
  // Max commutes with the (positive) scale: pool(dequant(q)) == dequant(pool(q)).
  const Tensor deq = backend::dequantize(q);
  for (std::int64_t n = 0; n < 2; ++n)
    for (std::int64_t c = 0; c < 3; ++c)
      for (std::int64_t i = 0; i < 4; ++i)
        for (std::int64_t j = 0; j < 4; ++j) {
          float best = -1e30F;
          for (int a = 0; a < 2; ++a)
            for (int b = 0; b < 2; ++b) best = std::max(best, deq(n, c, 2 * i + a, 2 * j + b));
          EXPECT_FLOAT_EQ(backend::dequantize(pooled)(n, c, i, j), best);
        }
}

TEST(Int8Ops, MaxPoolRejectsBadGeometry) {
  QTensor x;
  x.shape = Shape{1, 1, 2, 2};
  x.data.assign(4, 1);
  EXPECT_THROW(max_pool_s8(x, 3, 1), std::invalid_argument);
  EXPECT_THROW(max_pool_s8(x, 0, 1), std::invalid_argument);
  x.shape = Shape{4};
  EXPECT_THROW(max_pool_s8(x, 2, 2), std::invalid_argument);
}

TEST(Int8Ops, GlobalAvgPoolRoundsLevelMean) {
  QTensor x;
  x.shape = Shape{1, 2, 2, 2};
  x.scale = 1.F;
  x.data = {1, 2, 3, 4, 10, 10, 10, 11};
  const QTensor y = global_avg_pool_s8(x);
  EXPECT_EQ(y.shape, (Shape{1, 2}));
  EXPECT_EQ(y.data[0], 2);   // mean 2.5, round-half-to-even -> 2
  EXPECT_EQ(y.data[1], 10);  // mean 10.25 -> 10
}

TEST(Int8Ops, FlattenKeepsLevels) {
  QTensor x;
  x.shape = Shape{2, 3, 2, 2};
  x.scale = 0.5F;
  x.data.assign(24, 7);
  const QTensor y = flatten_s8(x);
  EXPECT_EQ(y.shape, (Shape{2, 12}));
  EXPECT_EQ(y.data.size(), 24u);
  EXPECT_FLOAT_EQ(y.scale, 0.5F);
}

TEST(Int8Ops, LinearMatchesFloatReference) {
  Rng rng(2);
  const Tensor x = Tensor::randn({3, 8}, rng);
  const Tensor w = Tensor::randn({5, 8}, rng, 0.5F);
  const Tensor b = Tensor::randn({5}, rng);
  const QTensor out = linear_s8_prepared(q_of(x), prepare_linear_weights_s8(q_of(w)), b);
  // Float reference.
  Tensor ref(Shape{3, 5});
  for (std::int64_t n = 0; n < 3; ++n)
    for (std::int64_t o = 0; o < 5; ++o) {
      float acc = b.at(o);
      for (std::int64_t f = 0; f < 8; ++f) acc += x(n, f) * w(o, f);
      ref(n, o) = acc;
    }
  const float rel = Tensor::max_abs_diff(ref, backend::dequantize(out)) /
                    std::max(ref.abs_max(), 1e-6F);
  EXPECT_LT(rel, 0.05F);
}

TEST(Int8Ops, LinearShapeMismatchThrows) {
  Rng rng(3);
  const QTensor x = q_of(Tensor::randn({2, 8}, rng));
  const QTensor w = q_of(Tensor::randn({5, 7}, rng));
  EXPECT_THROW(linear_s8_prepared(x, prepare_linear_weights_s8(w), Tensor()),
               std::invalid_argument);
}

// ---- pipeline ----------------------------------------------------------------

TEST(Pipeline, EmptyAndHeadlessPipelinesThrow) {
  Int8Pipeline empty;
  Rng rng(4);
  const Tensor x = Tensor::randn({1, 1, 8, 8}, rng);
  EXPECT_THROW(empty.run(x), std::invalid_argument);
  Int8Pipeline headless;
  headless.push(PoolStage{2, 2});
  EXPECT_THROW(headless.run(x), std::invalid_argument);
}

TEST(Pipeline, CompileRejectsUncalibratedModel) {
  Rng rng(5);
  models::LeNetConfig cfg;
  cfg.qspec = quant::QuantSpec{8};
  models::LeNet5 net(cfg, rng);  // never saw a batch: observers cold
  EXPECT_THROW(compile_lenet(net), std::invalid_argument);
}

TEST(Pipeline, CompiledLenetFreezesItsOnlyDynamicStage) {
  // compile_lenet leaves exactly one dynamic scale — the fc3 logits stage —
  // and freeze_scales() pins it, which is what the serving load path needs
  // before coalescing unrelated requests into one forward.
  Rng rng(7);
  models::LeNetConfig cfg;
  cfg.qspec = quant::QuantSpec{8};
  models::LeNet5 net(cfg, rng);
  net.set_training(true);
  for (int i = 0; i < 2; ++i) {
    net.forward(ag::Variable(Tensor::randn({4, 1, 28, 28}, rng), false));  // calibrate observers
  }
  Int8Pipeline pipe = compile_lenet(net);
  const auto dynamic = pipe.dynamic_scale_labels();
  ASSERT_EQ(dynamic.size(), 1u);
  EXPECT_EQ(dynamic[0], "fc3");

  pipe.freeze_scales(Tensor::randn({4, 1, 28, 28}, rng));
  EXPECT_TRUE(pipe.all_scales_frozen());
  const Tensor x = Tensor::randn({6, 1, 28, 28}, rng);
  EXPECT_EQ(Tensor::max_abs_diff(pipe.run_batched(x, 2), pipe.run(x)), 0.F)
      << "frozen pipeline must be independent of batch composition";
}

class LenetDeployContract : public ::testing::TestWithParam<nn::ConvAlgo> {};

TEST_P(LenetDeployContract, IntegerPipelineTracksQatModel) {
  // Train a small INT8 LeNet (any conv algorithm), compile it to the integer
  // pipeline, and check the deployed network classifies like the QAT model.
  // This is the paper's end-goal: winograd-aware INT8 training must survive
  // genuine integer execution.
  const nn::ConvAlgo algo = GetParam();
  Rng rng(6);
  models::LeNetConfig cfg;
  cfg.algo = algo;
  cfg.qspec = quant::QuantSpec{8};
  cfg.flex_transforms = nn::is_winograd(algo);
  models::LeNet5 net(cfg, rng);

  // The agreement check needs a confidently-trained model: near-tie logits
  // make argmax agreement meaningless. The Winograd variant uses t=6 tiles
  // whose intermediate requantization carries inherent ±1-level rounding
  // noise (amplified by the output transform — the same mechanism behind the
  // paper's Table 1), so small logit deviations are expected and the
  // contract is checked at the level of predictions and accuracy.
  auto spec = data::mnist_like();
  spec.train_size = 512;
  spec.test_size = 96;
  const auto train_set = data::generate(spec, true);
  const auto val_set = data::generate(spec, false);
  train::TrainerOptions topts;
  topts.epochs = 4;
  topts.batch_size = 16;
  topts.lr = 3e-3F;
  train::Trainer trainer(net, train_set, val_set, topts);
  trainer.fit();
  const float qat_acc = trainer.evaluate(val_set);

  Int8Pipeline pipe = compile_lenet(net);
  EXPECT_EQ(pipe.size(), 8u);

  std::int64_t agree = 0;
  std::int64_t correct = 0;
  data::DataLoader loader(val_set, 16, false);
  net.set_training(false);
  for (std::int64_t b = 0; b < loader.batches(); ++b) {
    const auto batch = loader.get(b);
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
    }
  }
  const float agreement = static_cast<float>(agree) / static_cast<float>(val_set.size());
  const float deployed_acc = static_cast<float>(correct) / static_cast<float>(val_set.size());
  EXPECT_GT(agreement, 0.85F) << "deployed disagrees with QAT model";
  EXPECT_GT(deployed_acc, qat_acc - 0.1F) << "deployment lost too much accuracy";
}

INSTANTIATE_TEST_SUITE_P(Algos, LenetDeployContract,
                         ::testing::Values(nn::ConvAlgo::kIm2row, nn::ConvAlgo::kWinograd2));

}  // namespace
}  // namespace wa::deploy
