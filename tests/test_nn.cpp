// Tests for the layer stack: module system, conv/pool/batch-norm ops.
#include <gtest/gtest.h>

#include "autograd/gradcheck.hpp"
#include "autograd/ops.hpp"
#include "nn/conv_ops.hpp"
#include "nn/layers.hpp"
#include "nn/module.hpp"
#include "test_support.hpp"

namespace wa::nn {
namespace {

backend::ConvGeometry geo(std::int64_t n, std::int64_t c, std::int64_t h, std::int64_t w,
                          std::int64_t k, std::int64_t kernel = 3, std::int64_t pad = 1,
                          std::int64_t groups = 1) {
  backend::ConvGeometry g;
  g.batch = n;
  g.in_channels = c;
  g.height = h;
  g.width = w;
  g.out_channels = k;
  g.kernel = kernel;
  g.pad = pad;
  g.groups = groups;
  return g;
}

ag::Variable leaf(Tensor t) { return ag::Variable(std::move(t), true); }

// ---- module system ----------------------------------------------------------

class TinyModule : public Module {
 public:
  explicit TinyModule(Rng& rng) {
    w_ = register_parameter("w", Tensor::randn({3, 2}, rng));
    buf_ = register_buffer("buf", Tensor::ones({2}));
  }
  ag::Variable forward(const ag::Variable& x) override { return x; }
  ag::Variable w_, buf_;
};

class NestedModule : public Module {
 public:
  explicit NestedModule(Rng& rng) { child_ = register_module<TinyModule>("child", rng); }
  ag::Variable forward(const ag::Variable& x) override { return child_->forward(x); }
  std::shared_ptr<TinyModule> child_;
};

TEST(Module, ParameterCollectionSkipsBuffers) {
  Rng rng(1);
  NestedModule m(rng);
  EXPECT_EQ(m.parameters().size(), 1u);
  EXPECT_EQ(m.parameter_count(), 6);
  const auto named = m.named_parameters();
  EXPECT_TRUE(named.contains("child.w"));
  EXPECT_TRUE(named.contains("child.buf"));  // buffers appear in state, not in parameters()
}

TEST(Module, TrainingModePropagates) {
  Rng rng(2);
  NestedModule m(rng);
  EXPECT_TRUE(m.training());
  m.set_training(false);
  EXPECT_FALSE(m.child_->training());
}

TEST(Module, StateDictRoundTrip) {
  Rng rng(3);
  NestedModule a(rng), b(rng);
  b.child_->w_.value().fill(0.F);
  b.load_state(a.state_dict());
  EXPECT_TRUE(Tensor::allclose(a.child_->w_.value(), b.child_->w_.value(), 0.F));
}

TEST(Module, LoadStateMissingKeyThrows) {
  Rng rng(4);
  NestedModule m(rng);
  EXPECT_THROW(m.load_state({}), std::runtime_error);
}

TEST(Module, LoadStateIntersectCountsMatches) {
  Rng rng(5);
  NestedModule a(rng), b(rng);
  auto partial = a.state_dict();
  partial.erase("child.buf");
  EXPECT_EQ(b.load_state_intersect(partial), 1u);
}

TEST(Sequential, RunsInOrder) {
  Rng rng(6);
  Sequential seq;
  seq.append("relu1", std::make_shared<ReLU>());
  seq.append("relu2", std::make_shared<ReLU>());
  EXPECT_EQ(seq.size(), 2u);
  ag::Variable x(Tensor(Shape{2}, {-1.F, 2.F}), false);
  EXPECT_FLOAT_EQ(seq.forward(x).value().at(0), 0.F);
}

// ---- conv op ----------------------------------------------------------------

TEST(Conv2dIm2row, ForwardMatchesBackendKernel) {
  Rng rng(7);
  const auto g = geo(2, 3, 8, 8, 4);
  Tensor x = Tensor::randn({2, 3, 8, 8}, rng);
  Tensor w = Tensor::randn({4, 3, 3, 3}, rng, 0.2F);
  ag::Variable out = conv2d_im2row(leaf(x), leaf(w), ag::Variable(), g);
  EXPECT_TRUE(Tensor::allclose(out.value(), backend::im2row_conv(x, w, g), 1e-5F));
}

TEST(Conv2dIm2row, BiasIsPerChannel) {
  Rng rng(8);
  const auto g = geo(1, 1, 4, 4, 2);
  Tensor x = Tensor::zeros({1, 1, 4, 4});
  Tensor w = Tensor::zeros({2, 1, 3, 3});
  Tensor b(Shape{2}, {1.F, -2.F});
  ag::Variable out = conv2d_im2row(leaf(x), leaf(w), leaf(b), g);
  EXPECT_FLOAT_EQ(out.value()(0, 0, 2, 2), 1.F);
  EXPECT_FLOAT_EQ(out.value()(0, 1, 2, 2), -2.F);
}

struct ConvGradCase {
  std::string name;
  std::int64_t n, c, h, w, k, kernel, pad, groups;
  bool bias;
};

class ConvGradCheck : public ::testing::TestWithParam<ConvGradCase> {};

TEST_P(ConvGradCheck, AnalyticMatchesNumeric) {
  const auto p = GetParam();
  const auto g = geo(p.n, p.c, p.h, p.w, p.k, p.kernel, p.pad, p.groups);
  Rng rng(static_cast<std::uint64_t>(p.c * 13 + p.h));
  std::vector<ag::Variable> inputs;
  inputs.push_back(leaf(Tensor::randn({p.n, p.c, p.h, p.w}, rng)));
  inputs.push_back(leaf(Tensor::randn({p.k, p.c / p.groups, p.kernel, p.kernel}, rng, 0.4F)));
  if (p.bias) inputs.push_back(leaf(Tensor::randn({p.k}, rng)));
  auto fn = [&g, &p](std::vector<ag::Variable>& in) {
    ag::Variable b = p.bias ? in[2] : ag::Variable();
    ag::Variable y = conv2d_im2row(in[0], in[1], b, g);
    return ag::mean(ag::mul(y, y));  // quadratic head exercises dY != const
  };
  const auto res = ag::grad_check(fn, inputs, 1e-2F, 6e-2F);
  EXPECT_TRUE(res.ok) << p.name << ": " << res.detail;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ConvGradCheck,
    ::testing::Values(ConvGradCase{"plain", 1, 2, 5, 5, 3, 3, 1, 1, false},
                      ConvGradCase{"bias", 1, 2, 4, 4, 2, 3, 1, 1, true},
                      ConvGradCase{"nopad", 1, 2, 5, 5, 2, 3, 0, 1, false},
                      ConvGradCase{"grouped", 1, 4, 4, 4, 4, 3, 1, 2, false},
                      ConvGradCase{"one_by_one", 2, 3, 3, 3, 4, 1, 0, 1, true},
                      ConvGradCase{"five_by_five", 1, 1, 7, 7, 2, 5, 2, 1, false}),
    [](const auto& info) { return info.param.name; });

TEST(Row2Im, AdjointOfIm2Row) {
  // <im2row(x), R> == <x, row2im(R)> for random R: the defining adjoint identity.
  Rng rng(9);
  const auto g = geo(1, 2, 5, 5, 1);
  Tensor x = Tensor::randn({1, 2, 5, 5}, rng);
  Tensor rows = backend::im2row_lower(x, g);
  Tensor r = Tensor::randn(rows.shape(), rng);
  Tensor back = row2im_accumulate(r, g);
  double lhs = 0, rhs = 0;
  for (std::int64_t i = 0; i < rows.numel(); ++i) lhs += static_cast<double>(rows.at(i)) * r.at(i);
  for (std::int64_t i = 0; i < x.numel(); ++i) rhs += static_cast<double>(x.at(i)) * back.at(i);
  EXPECT_NEAR(lhs, rhs, 1e-2);
}

// ---- pooling ------------------------------------------------------------------

TEST(MaxPool, ForwardPicksMaxima) {
  Tensor x(Shape{1, 1, 2, 2}, {1.F, 5.F, 3.F, 2.F});
  ag::Variable out = max_pool2d(leaf(x), 2, 2);
  EXPECT_EQ(out.shape(), (Shape{1, 1, 1, 1}));
  EXPECT_FLOAT_EQ(out.value().at(0), 5.F);
}

TEST(MaxPool, BackwardRoutesToArgmax) {
  Tensor x(Shape{1, 1, 2, 2}, {1.F, 5.F, 3.F, 2.F});
  ag::Variable in = leaf(x);
  ag::sum(max_pool2d(in, 2, 2)).backward();
  EXPECT_FLOAT_EQ(in.grad().at(1), 1.F);
  EXPECT_FLOAT_EQ(in.grad().at(0), 0.F);
}

TEST(MaxPool, GradCheck) {
  Rng rng(10);
  std::vector<ag::Variable> inputs{leaf(Tensor::randn({1, 2, 4, 4}, rng))};
  auto fn = [](std::vector<ag::Variable>& in) {
    auto y = max_pool2d(in[0], 2, 2);
    return ag::mean(ag::mul(y, y));
  };
  const auto res = ag::grad_check(fn, inputs, 1e-3F, 6e-2F);
  EXPECT_TRUE(res.ok) << res.detail;
}

TEST(GlobalAvgPool, ForwardAndGradCheck) {
  Rng rng(11);
  Tensor x = Tensor::randn({2, 3, 4, 4}, rng);
  ag::Variable out = global_avg_pool(leaf(x));
  EXPECT_EQ(out.shape(), (Shape{2, 3}));
  std::vector<ag::Variable> inputs{leaf(x)};
  auto fn = [](std::vector<ag::Variable>& in) {
    auto y = global_avg_pool(in[0]);
    return ag::sum(ag::mul(y, y));
  };
  const auto res = ag::grad_check(fn, inputs);
  EXPECT_TRUE(res.ok) << res.detail;
}

// ---- batch norm ----------------------------------------------------------------

TEST(BatchNorm, NormalizesToZeroMeanUnitVar) {
  Rng rng(12);
  Tensor x = Tensor::randn({4, 2, 8, 8}, rng, 3.F);
  BatchNormState st;
  st.running_mean = Tensor::zeros({2});
  st.running_var = Tensor::ones({2});
  ag::Variable out =
      batch_norm2d(leaf(x), leaf(Tensor::ones({2})), leaf(Tensor::zeros({2})), st, true);
  EXPECT_NEAR(out.value().mean(), 0.F, 1e-4F);
  // Per-element variance ~1.
  const float var = out.value().map([](float v) { return v * v; }).mean();
  EXPECT_NEAR(var, 1.F, 1e-2F);
}

TEST(BatchNorm, RunningStatsUpdate) {
  Rng rng(13);
  Tensor x = Tensor::randn({8, 1, 4, 4}, rng);
  BatchNormState st;
  st.running_mean = Tensor::zeros({1});
  st.running_var = Tensor::ones({1});
  st.momentum = 1.F;  // take the batch stats wholesale
  batch_norm2d(leaf(x), leaf(Tensor::ones({1})), leaf(Tensor::zeros({1})), st, true);
  EXPECT_NEAR(st.running_mean.at(0), x.mean(), 1e-4F);
}

TEST(BatchNorm, EvalUsesRunningStats) {
  Tensor x(Shape{1, 1, 1, 2}, {10.F, 10.F});
  BatchNormState st;
  st.running_mean = Tensor(Shape{1}, {10.F});
  st.running_var = Tensor::ones({1});
  ag::Variable out =
      batch_norm2d(leaf(x), leaf(Tensor::ones({1})), leaf(Tensor::zeros({1})), st, false);
  EXPECT_NEAR(out.value().at(0), 0.F, 1e-3F);
}

TEST(BatchNorm, GradCheckTrainingMode) {
  Rng rng(14);
  std::vector<ag::Variable> inputs{leaf(Tensor::randn({2, 2, 3, 3}, rng)),
                                   leaf(Tensor::rand({2}, rng, 0.5F, 1.5F)),
                                   leaf(Tensor::randn({2}, rng))};
  BatchNormState st;
  st.running_mean = Tensor::zeros({2});
  st.running_var = Tensor::ones({2});
  st.momentum = 0.F;  // keep state constant across grad_check re-evaluations
  auto fn = [&st](std::vector<ag::Variable>& in) {
    auto y = batch_norm2d(in[0], in[1], in[2], st, true);
    return ag::mean(ag::mul(y, y));
  };
  const auto res = ag::grad_check(fn, inputs, 1e-2F, 8e-2F);
  EXPECT_TRUE(res.ok) << res.detail;
}

// ---- pinned bits across team sizes --------------------------------------------
//
// Batch-norm sums each channel in its serial (n, h, w) order (double forward,
// float backward) and max-pool routes each plane on its own, so the bits are
// the same at every OpenMP team size. The pins are the team-1 bits of the code
// before these sweeps went team-parallel; inputs come from an integer
// generator and the ops use only IEEE basic operations and sqrt, so the pins
// do not depend on libm.

using test_support::BitGen;
using test_support::fnv_tensor;
using test_support::kFnvOffset;
using test_support::TeamSizeScope;

/// Two training-mode batch-norm steps (running statistics carried over),
/// then an eval-mode step, each followed by a 2x2 max-pool and a seeded
/// backward; hashes every output, input gradient and running statistic.
std::uint64_t batch_norm_pool_hash() {
  BitGen gen{0xb17ULL};
  const std::int64_t c = 32;
  const ag::Variable gamma = leaf(gen.tensor({c}, 2.F));
  const ag::Variable beta = leaf(gen.tensor({c}, 1.F));
  BatchNormState st;
  st.running_mean = gen.tensor({c}, 0.5F);
  st.running_var = Tensor::full({c}, 1.5F);
  std::uint64_t h = kFnvOffset;
  for (const bool training : {true, true, false}) {
    // [8, 32, 33, 33] holds 278,784 elements (>= kParallelSweepMin): every
    // sweep runs split.
    const ag::Variable x = leaf(gen.tensor({8, c, 33, 33}, 3.F));
    const ag::Variable y = batch_norm2d(x, gamma, beta, st, training);
    const ag::Variable p = max_pool2d(y, 2, 2);
    const Tensor dy = gen.tensor(p.shape(), 1.F);
    p.backward(&dy);
    h = fnv_tensor(h, y.value());
    h = fnv_tensor(h, p.value());
    h = fnv_tensor(h, x.grad());
    h = fnv_tensor(h, st.running_mean);
    h = fnv_tensor(h, st.running_var);
  }
  h = fnv_tensor(h, gamma.grad());
  return fnv_tensor(h, beta.grad());
}

TEST(BatchNormPinnedBits, SameBitsAtEveryTeamSize) {
  for (const int threads : {1, 2, 3}) {
    const TeamSizeScope team(threads);
    const std::uint64_t h = batch_norm_pool_hash();
    EXPECT_EQ(h, 0xa94462e3fee5da4aULL) << "team " << threads << ": 0x" << std::hex << h;
  }
}

// ---- layers -------------------------------------------------------------------

TEST(Conv2dLayer, RejectsWinogradAlgo) {
  Rng rng(15);
  Conv2dOptions opts;
  opts.algo = ConvAlgo::kWinograd4;
  EXPECT_THROW(Conv2d(opts, rng), std::invalid_argument);
}

TEST(Conv2dLayer, ForwardShape) {
  Rng rng(16);
  Conv2dOptions opts;
  opts.in_channels = 3;
  opts.out_channels = 8;
  Conv2d conv(opts, rng);
  ag::Variable x(Tensor::randn({2, 3, 16, 16}, rng), false);
  EXPECT_EQ(conv.forward(x).shape(), (Shape{2, 8, 16, 16}));
  EXPECT_EQ(conv.parameters().size(), 1u);  // no bias by default
}

TEST(Conv2dLayer, QuantizedForwardCloseToFloat) {
  Rng rng(17);
  Conv2dOptions opts;
  opts.in_channels = 2;
  opts.out_channels = 4;
  Conv2dOptions qopts = opts;
  qopts.qspec = quant::QuantSpec{8};
  Conv2d conv(opts, rng);
  Rng rng2(17);
  Conv2d qconv(qopts, rng2);  // same seed -> same weights
  ag::Variable x(Tensor::randn({1, 2, 8, 8}, rng), false);
  const Tensor a = conv.forward(x).value();
  const Tensor b = qconv.forward(x).value();
  EXPECT_LE(Tensor::max_abs_diff(a, b) / std::max(a.abs_max(), 1e-6F), 0.08F);
}

TEST(LinearLayer, ForwardShapeAndParams) {
  Rng rng(18);
  Linear fc(10, 4, quant::QuantSpec{32}, rng);
  ag::Variable x(Tensor::randn({3, 10}, rng), false);
  EXPECT_EQ(fc.forward(x).shape(), (Shape{3, 4}));
  EXPECT_EQ(fc.parameters().size(), 2u);
}

TEST(FlattenLayer, CollapsesSpatial) {
  Flatten f;
  ag::Variable x(Tensor::randn({2, 3, 4, 5}, global_rng()), false);
  EXPECT_EQ(f.forward(x).shape(), (Shape{2, 60}));
}

TEST(ConvAlgoNames, RoundTrip) {
  EXPECT_EQ(to_string(ConvAlgo::kIm2row), "im2row");
  EXPECT_EQ(to_string(ConvAlgo::kWinograd6), "F6");
  EXPECT_EQ(winograd_m(ConvAlgo::kWinograd4), 4);
  EXPECT_THROW(winograd_m(ConvAlgo::kIm2row), std::invalid_argument);
  EXPECT_TRUE(is_winograd(ConvAlgo::kWinograd2));
  EXPECT_FALSE(is_winograd(ConvAlgo::kIm2col));
}

}  // namespace
}  // namespace wa::nn
