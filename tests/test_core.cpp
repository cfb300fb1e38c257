// Tests for the Winograd-aware convolution op and layer — the paper's core.
//
// The two load-bearing properties:
//  1. with static Cook-Toom transforms and FP32, the op computes exactly a
//     standard convolution (so swapping algorithms preserves semantics);
//  2. gradients — including the bilinear-form gradients for the learnable
//     transforms G/Bᵀ/Aᵀ — match finite differences.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>

#include "autograd/gradcheck.hpp"
#include "autograd/ops.hpp"
#include "backend/conv_kernels.hpp"
#include "backend/simd/kernel_table.hpp"
#include "core/wa_conv2d.hpp"
#include "core/wa_conv_op.hpp"
#include "nn/layers.hpp"
#include "test_support.hpp"
#include "winograd/cook_toom.hpp"

namespace wa::core {
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

struct WaOpTestFixture {
  backend::ConvGeometry g;
  int m;
  ag::Variable x, w, gm, btm, atm;
  WaQuantStages stages;

  WaOpTestFixture(int m_out, backend::ConvGeometry geom, Rng& rng, bool flex = true)
      : g(geom), m(m_out) {
    const auto tr = wino::make_transforms(m, static_cast<int>(g.kernel));
    x = leaf(Tensor::randn({g.batch, g.in_channels, g.height, g.width}, rng));
    w = leaf(Tensor::randn({g.out_channels, g.in_channels / g.groups, g.kernel, g.kernel}, rng,
                           0.4F));
    gm = ag::Variable(tr.g_mat, flex, "G");
    btm = ag::Variable(tr.bt_mat, flex, "Bt");
    atm = ag::Variable(tr.at_mat, flex, "At");
  }

  ag::Variable run(bool training = true) {
    return winograd_aware_conv2d(x, w, ag::Variable(), gm, btm, atm, g, m, stages, training);
  }
};

// ---- forward equivalence ----------------------------------------------------

class WaForwardEquivalence
    : public ::testing::TestWithParam<std::tuple<int, std::int64_t, std::int64_t, std::int64_t>> {};

TEST_P(WaForwardEquivalence, Fp32MatchesDirectConv) {
  const auto [m, h, w, groups] = GetParam();
  Rng rng(static_cast<std::uint64_t>(m * 100 + h));
  const auto g = geo(2, 4, h, w, 4, 3, 1, groups);
  WaOpTestFixture fx(m, g, rng);
  const Tensor direct = backend::direct_conv(fx.x.value(), fx.w.value(), g);
  const Tensor got = fx.run().value();
  EXPECT_LE(Tensor::max_abs_diff(direct, got), 1e-2F)
      << "F" << m << " " << h << "x" << w << " groups=" << groups;
}

INSTANTIATE_TEST_SUITE_P(Configs, WaForwardEquivalence,
                         ::testing::Values(std::tuple{2, 8, 8, 1}, std::tuple{4, 8, 8, 1},
                                           std::tuple{6, 12, 12, 1}, std::tuple{4, 9, 11, 1},
                                           std::tuple{2, 8, 8, 2}, std::tuple{4, 10, 10, 4},
                                           std::tuple{6, 7, 9, 1}));

TEST(WaForward, FiveByFiveFilters) {
  // The LeNet configuration: F(m, 5x5) with 10x10 tiles at m=6.
  for (int m : {2, 4, 6}) {
    Rng rng(static_cast<std::uint64_t>(m));
    const auto g = geo(1, 2, 12, 12, 3, 5, 2, 1);
    WaOpTestFixture fx(m, g, rng);
    const Tensor direct = backend::direct_conv(fx.x.value(), fx.w.value(), g);
    EXPECT_LE(Tensor::max_abs_diff(direct, fx.run().value()), 5e-2F) << "F(" << m << ",5)";
  }
}

TEST(WaForward, BiasIsApplied) {
  Rng rng(3);
  const auto g = geo(1, 1, 4, 4, 2, 3, 1, 1);
  const auto tr = wino::make_transforms(2, 3);
  ag::Variable x = leaf(Tensor::zeros({1, 1, 4, 4}));
  ag::Variable w = leaf(Tensor::zeros({2, 1, 3, 3}));
  ag::Variable bias = leaf(Tensor(Shape{2}, {0.5F, -1.F}));
  WaQuantStages stages;
  ag::Variable out = winograd_aware_conv2d(x, w, bias, ag::Variable(tr.g_mat, false),
                                           ag::Variable(tr.bt_mat, false),
                                           ag::Variable(tr.at_mat, false), g, 2, stages, true);
  EXPECT_FLOAT_EQ(out.value()(0, 0, 1, 1), 0.5F);
  EXPECT_FLOAT_EQ(out.value()(0, 1, 1, 1), -1.F);
}

TEST(WaForward, RejectsMismatchedTransformShapes) {
  Rng rng(4);
  const auto g = geo(1, 1, 4, 4, 1);
  const auto tr = wino::make_transforms(4, 3);  // t=6 but we claim m=2
  WaQuantStages stages;
  EXPECT_THROW(winograd_aware_conv2d(leaf(Tensor::zeros({1, 1, 4, 4})),
                                     leaf(Tensor::zeros({1, 1, 3, 3})), ag::Variable(),
                                     ag::Variable(tr.g_mat, false), ag::Variable(tr.bt_mat, false),
                                     ag::Variable(tr.at_mat, false), g, 2, stages, true),
               std::invalid_argument);
}

// ---- gradient checks ---------------------------------------------------------

class WaGradCheck : public ::testing::TestWithParam<std::tuple<int, std::int64_t>> {};

TEST_P(WaGradCheck, AllInputsIncludingTransforms) {
  const auto [m, groups] = GetParam();
  Rng rng(static_cast<std::uint64_t>(m * 7 + groups));
  const auto g = geo(1, 2 * groups, 6, 6, 2 * groups, 3, 1, groups);
  WaOpTestFixture fx(m, g, rng, /*flex=*/true);
  std::vector<ag::Variable> inputs{fx.x, fx.w, fx.gm, fx.btm, fx.atm};
  auto fn = [&fx](std::vector<ag::Variable>& in) {
    WaQuantStages stages;  // fp32: observers unused
    ag::Variable y = winograd_aware_conv2d(in[0], in[1], ag::Variable(), in[2], in[3], in[4],
                                           fx.g, fx.m, stages, true);
    return ag::mean(ag::mul(y, y));
  };
  const auto res = ag::grad_check(fn, inputs, 1e-2F, 8e-2F);
  EXPECT_TRUE(res.ok) << "F" << m << " groups=" << groups << ": " << res.detail;
}

INSTANTIATE_TEST_SUITE_P(Configs, WaGradCheck,
                         ::testing::Values(std::tuple{2, 1}, std::tuple{4, 1}, std::tuple{2, 2}),
                         [](const auto& info) {
                           return "F" + std::to_string(std::get<0>(info.param)) + "_g" +
                                  std::to_string(std::get<1>(info.param));
                         });

TEST(WaGradCheckExtra, BiasGradient) {
  Rng rng(5);
  const auto g = geo(1, 1, 4, 4, 2);
  const auto tr = wino::make_transforms(2, 3);
  std::vector<ag::Variable> inputs{leaf(Tensor::randn({1, 1, 4, 4}, rng)),
                                   leaf(Tensor::randn({2, 1, 3, 3}, rng, 0.4F)),
                                   leaf(Tensor::randn({2}, rng))};
  auto fn = [&g, &tr](std::vector<ag::Variable>& in) {
    WaQuantStages stages;
    ag::Variable y = winograd_aware_conv2d(in[0], in[1], in[2], ag::Variable(tr.g_mat, false),
                                           ag::Variable(tr.bt_mat, false),
                                           ag::Variable(tr.at_mat, false), g, 2, stages, true);
    return ag::mean(ag::mul(y, y));
  };
  const auto res = ag::grad_check(fn, inputs, 1e-2F, 8e-2F);
  EXPECT_TRUE(res.ok) << res.detail;
}

TEST(WaGradCheckExtra, FiveByFiveFlexTransforms) {
  Rng rng(6);
  const auto g = geo(1, 1, 6, 6, 1, 5, 2, 1);
  WaOpTestFixture fx(2, g, rng, /*flex=*/true);
  std::vector<ag::Variable> inputs{fx.w, fx.gm, fx.btm, fx.atm};
  auto fn = [&fx](std::vector<ag::Variable>& in) {
    WaQuantStages stages;
    ag::Variable y = winograd_aware_conv2d(fx.x, in[0], ag::Variable(), in[1], in[2], in[3], fx.g,
                                           fx.m, stages, true);
    return ag::mean(ag::mul(y, y));
  };
  const auto res = ag::grad_check(fn, inputs, 1e-2F, 8e-2F);
  EXPECT_TRUE(res.ok) << res.detail;
}

// ---- quantized behaviour -------------------------------------------------------

TEST(WaQuantized, Int8OutputsTrackFp32ForF2) {
  Rng rng(7);
  const auto g = geo(1, 4, 8, 8, 4);
  WaOpTestFixture fp(2, g, rng, false);
  WaOpTestFixture q(2, g, rng, false);
  q.x.value() = fp.x.value();
  q.w.value() = fp.w.value();
  q.stages.spec = quant::QuantSpec{8};
  const Tensor a = fp.run().value();
  const Tensor b = q.run().value();
  EXPECT_LE(Tensor::max_abs_diff(a, b) / std::max(a.abs_max(), 1e-6F), 0.15F);
}

TEST(WaQuantized, ErrorGrowsWithTileSizeAtInt8) {
  Rng rng(8);
  const auto g = geo(1, 4, 12, 12, 4);
  auto rel_err = [&](int m) {
    Rng local(8);
    WaOpTestFixture fp(m, g, local, false);
    Rng local2(8);
    WaOpTestFixture q(m, g, local2, false);
    q.stages.spec = quant::QuantSpec{8};
    const Tensor a = fp.run().value();
    const Tensor b = q.run().value();
    return Tensor::max_abs_diff(a, b) / std::max(a.abs_max(), 1e-6F);
  };
  EXPECT_LT(rel_err(2), rel_err(6));
}

TEST(WaQuantized, TrainingUpdatesObservers) {
  Rng rng(9);
  const auto g = geo(1, 2, 8, 8, 2);
  WaOpTestFixture fx(2, g, rng, false);
  fx.stages.spec = quant::QuantSpec{8};
  EXPECT_FALSE(fx.stages.v.initialized());
  fx.run(/*training=*/true);
  EXPECT_TRUE(fx.stages.v.initialized());
  EXPECT_TRUE(fx.stages.m.initialized());
  EXPECT_TRUE(fx.stages.y.initialized());
}

TEST(WaQuantized, EvalDoesNotUpdateObservers) {
  Rng rng(10);
  const auto g = geo(1, 2, 8, 8, 2);
  WaOpTestFixture fx(2, g, rng, false);
  fx.stages.spec = quant::QuantSpec{8};
  fx.run(true);  // warm up
  const float before = fx.stages.v.tracked_abs_max();
  fx.x.value() *= 100.F;
  fx.run(/*training=*/false);
  EXPECT_FLOAT_EQ(fx.stages.v.tracked_abs_max(), before);
}

// ---- layer + factory ------------------------------------------------------------

TEST(WaLayer, FlexRegistersTransformsAsParameters) {
  Rng rng(11);
  nn::Conv2dOptions opts;
  opts.in_channels = 2;
  opts.out_channels = 2;
  opts.algo = nn::ConvAlgo::kWinograd4;
  opts.flex_transforms = true;
  WinogradAwareConv2d flex(opts, rng);
  opts.flex_transforms = false;
  Rng rng2(11);
  WinogradAwareConv2d fixed(opts, rng2);
  EXPECT_EQ(flex.parameters().size(), 4u);   // weight + G + Bt + At
  EXPECT_EQ(fixed.parameters().size(), 1u);  // weight only
  // Both still serialize the transforms.
  EXPECT_TRUE(flex.named_parameters().contains("g_mat"));
  EXPECT_TRUE(fixed.named_parameters().contains("g_mat"));
}

TEST(WaLayer, ForwardShapeAndTileSizes) {
  Rng rng(12);
  nn::Conv2dOptions opts;
  opts.in_channels = 3;
  opts.out_channels = 8;
  opts.algo = nn::ConvAlgo::kWinograd6;
  WinogradAwareConv2d conv(opts, rng);
  EXPECT_EQ(conv.output_tile(), 6);
  EXPECT_EQ(conv.input_tile(), 8);
  ag::Variable x(Tensor::randn({2, 3, 16, 16}, rng), false);
  EXPECT_EQ(conv.forward(x).shape(), (Shape{2, 8, 16, 16}));
}

TEST(WaLayer, RejectsNonWinogradOptions) {
  Rng rng(13);
  nn::Conv2dOptions opts;
  EXPECT_THROW(WinogradAwareConv2d(opts, rng), std::invalid_argument);
}

TEST(ConvFactory, DispatchesOnAlgo) {
  Rng rng(14);
  nn::Conv2dOptions opts;
  opts.in_channels = 2;
  opts.out_channels = 2;
  EXPECT_NE(std::dynamic_pointer_cast<nn::Conv2d>(make_conv(opts, rng)), nullptr);
  opts.algo = nn::ConvAlgo::kWinograd2;
  EXPECT_NE(std::dynamic_pointer_cast<WinogradAwareConv2d>(make_conv(opts, rng)), nullptr);
}

TEST(WaLayer, PerStageSpecOverridesFallBackToDefault) {
  WaQuantStages stages;
  stages.spec = quant::QuantSpec{8};
  EXPECT_EQ(stages.u_spec().bits, 8);
  stages.spec_m = quant::QuantSpec{16};
  EXPECT_EQ(stages.m_spec().bits, 16);
  EXPECT_EQ(stages.v_spec().bits, 8);  // untouched stages keep the default
  EXPECT_EQ(stages.y_spec().bits, 8);
}

TEST(WaLayer, StageDiversityReducesQuantizationError) {
  // Quantization diversity (§3.2): promoting the Hadamard stage to INT16
  // while the rest stays INT8 must bring the output closer to the FP32
  // Winograd result than the all-INT8 configuration.
  Rng rng(21);
  const auto g = geo(1, 8, 12, 12, 8);
  auto run_with = [&](quant::QuantSpec base, std::optional<quant::QuantSpec> m_override) {
    Rng local(21);  // identical weights/inputs across runs
    WaOpTestFixture fx(4, g, local, /*flex=*/false);
    fx.stages.spec = base;
    fx.stages.spec_m = m_override;
    return fx.run(/*training=*/true).value();
  };
  const Tensor fp32 = run_with(quant::QuantSpec{32}, {});
  const Tensor all8 = run_with(quant::QuantSpec{8}, {});
  const Tensor mixed = run_with(quant::QuantSpec{8}, quant::QuantSpec{16});
  EXPECT_LT(Tensor::max_abs_diff(fp32, mixed), Tensor::max_abs_diff(fp32, all8));
}

TEST(WaLayer, PerChannelWeightsForwardRuns) {
  Rng rng(22);
  nn::Conv2dOptions opts;
  opts.in_channels = 4;
  opts.out_channels = 6;
  opts.algo = nn::ConvAlgo::kWinograd4;
  opts.qspec = quant::QuantSpec{8};
  opts.per_channel_weights = true;
  WinogradAwareConv2d conv(opts, rng);
  ag::Variable x(Tensor::randn({2, 4, 8, 8}, rng), false);
  const auto out = conv.forward(x);
  EXPECT_EQ(out.shape(), (Shape{2, 6, 8, 8}));
}

TEST(WaLayer, PerChannelWeightsReduceErrorWithDisparateFilters) {
  // Scale filter k by 3^k: a per-layer scale sacrifices the small filters,
  // per-channel keeps each one's precision.
  Rng rng(23);
  nn::Conv2dOptions opts;
  opts.in_channels = 2;
  opts.out_channels = 4;
  opts.algo = nn::ConvAlgo::kWinograd2;
  opts.qspec = quant::QuantSpec{8};

  auto build = [&](bool per_channel) {
    Rng local(23);
    nn::Conv2dOptions o = opts;
    o.per_channel_weights = per_channel;
    auto conv = std::make_shared<WinogradAwareConv2d>(o, local);
    Tensor w = conv->weight().value();
    auto d = w.data();
    const std::int64_t per_filter = w.numel() / 4;
    for (std::int64_t k = 0; k < 4; ++k) {
      const float s = std::pow(3.F, static_cast<float>(k));
      for (std::int64_t i = 0; i < per_filter; ++i) d[static_cast<std::size_t>(k * per_filter + i)] *= s;
    }
    conv->weight().value() = w;
    return conv;
  };

  Rng xr(24);
  const Tensor xin = Tensor::randn({1, 2, 8, 8}, xr);

  nn::Conv2dOptions fp = opts;
  fp.qspec = quant::QuantSpec{32};
  Rng fr(23);
  WinogradAwareConv2d ref_conv(fp, fr);
  {
    Tensor w = build(false)->weight().value();
    ref_conv.weight().value() = w;
  }
  ref_conv.set_training(false);
  const Tensor ref = ref_conv.forward(ag::Variable(xin, false)).value();

  auto err = [&](bool per_channel) {
    auto conv = build(per_channel);
    conv->forward(ag::Variable(xin, false));  // calibrate observers
    conv->set_training(false);
    const Tensor y = conv->forward(ag::Variable(xin, false)).value();
    return Tensor::max_abs_diff(ref, y);
  };
  EXPECT_LT(err(true), err(false));
}

TEST(WaLayer, AdaptationLoadsConvWeightsOnly) {
  // Fig. 6 workflow: weights from a direct-conv layer transfer into the
  // Winograd-aware counterpart; transforms stay at their Cook-Toom values.
  Rng rng(15);
  nn::Conv2dOptions direct_opts;
  direct_opts.in_channels = 2;
  direct_opts.out_channels = 4;
  nn::Conv2d direct(direct_opts, rng);

  nn::Conv2dOptions wa_opts = direct_opts;
  wa_opts.algo = nn::ConvAlgo::kWinograd4;
  wa_opts.flex_transforms = true;
  Rng rng2(99);
  WinogradAwareConv2d wa(wa_opts, rng2);

  const Tensor g_before = wa.g_mat().value();
  const auto loaded = wa.load_state_intersect(direct.state_dict());
  EXPECT_EQ(loaded, 1u);  // just the weight
  EXPECT_TRUE(Tensor::allclose(wa.weight().value(), direct.weight().value(), 0.F));
  EXPECT_TRUE(Tensor::allclose(wa.g_mat().value(), g_before, 0.F));
}

// ---- pinned bits across team sizes and kernel tables -------------------------
//
// One forward and backward of the op must give the same bits at every OpenMP
// team size: each parallel sweep keeps its serial per-element order, and the
// transform-gradient partials are summed in a fixed index order. The pins
// are the team-1 bits of the code before the sweeps went team-parallel. The
// body uses only IEEE basic operations, nearbyint and the fp32 GEMM kernel
// (inputs come from an integer generator, not libm), so the pins hold on any
// conforming libm; they differ per kernel table only through the GEMM.

using test_support::BitGen;
using test_support::fnv_bytes;
using test_support::fnv_tensor;
using test_support::kFnvOffset;
using test_support::TeamSizeScope;

std::uint64_t fnv_observer(std::uint64_t h, const quant::RangeObserver& o) {
  const float r[2] = {o.tracked_min(), o.tracked_max()};
  h = fnv_bytes(h, r, sizeof(r));
  const bool init = o.initialized();
  return fnv_bytes(h, &init, sizeof(init));
}

struct PinnedCase {
  int m;
  backend::ConvGeometry g;
  std::int64_t tap_group_size;
};

/// One training step (forward, seeded backward) of the op with every
/// transform learnable; hashes the output, all seven gradients and every
/// observer's tracked range.
std::uint64_t pinned_case_hash(const PinnedCase& pc) {
  BitGen gen{0x5eedULL + static_cast<std::uint64_t>(pc.m)};
  const backend::ConvGeometry& g = pc.g;
  const auto tr = wino::make_transforms(pc.m, static_cast<int>(g.kernel));
  const ag::Variable x = leaf(gen.tensor({g.batch, g.in_channels, g.height, g.width}, 1.F));
  const ag::Variable w =
      leaf(gen.tensor({g.out_channels, g.in_channels / g.groups, g.kernel, g.kernel}, 0.5F));
  const ag::Variable b = leaf(gen.tensor({g.out_channels}, 0.25F));
  const ag::Variable gm(tr.g_mat, true), btm(tr.bt_mat, true), atm(tr.at_mat, true);
  WaQuantStages stages;
  stages.spec = quant::QuantSpec{8};
  stages.tap_group_size = pc.tap_group_size;
  const ag::Variable y =
      winograd_aware_conv2d(x, w, b, gm, btm, atm, g, pc.m, stages, /*training=*/true);
  const Tensor dy = gen.tensor(y.shape(), 1.F);
  y.backward(&dy);
  std::uint64_t h = fnv_tensor(kFnvOffset, y.value());
  for (const ag::Variable* v : {&x, &w, &b, &gm, &btm, &atm}) h = fnv_tensor(h, v->grad());
  if (stages.per_tap()) {
    for (const quant::TapRangeObserver* o : {&stages.u_taps, &stages.v_taps, &stages.m_taps}) {
      for (const quant::RangeObserver& grp : o->groups()) h = fnv_observer(h, grp);
    }
  } else {
    for (const quant::RangeObserver* o : {&stages.u, &stages.v, &stages.m}) {
      h = fnv_observer(h, *o);
    }
  }
  return fnv_observer(h, stages.y);
}

TEST(WaPinnedBits, SameBitsAtEveryTeamSizeOnScalarAndAvx2Tables) {
  // Tile counts 243 and 450 leave a partial lane block, the bottom/right
  // tiles are clipped, 84 and 90 input channels per group leave a partial
  // weight lane block, and every swept tensor (x, U, V, M, Y) holds at least
  // kParallelSweepMin (2^18) elements, so each parallel sweep runs split.
  const PinnedCase f4_per_tap{4, geo(3, 84, 33, 33, 96), /*tap_group_size=*/5};
  const PinnedCase f2_grouped{2, geo(2, 180, 29, 29, 184, 3, 1, /*groups=*/2), 0};
  struct Pin {
    const char* backend;
    std::uint64_t f4, f2;
  };
  const Pin pins[] = {
      {"scalar", 0xaadba025ce9c63d7ULL, 0xcacfe6c9e613ec03ULL},
      {"avx2", 0x24eb5521af4d5a6cULL, 0x1d1a92affa2c0902ULL},
  };
  const std::vector<std::string> avail = backend::simd::available_backends();
  const std::string active = backend::simd::active_backend();
  for (const Pin& pin : pins) {
    if (std::find(avail.begin(), avail.end(), pin.backend) == avail.end()) {
      std::printf("[ SKIPPED  ] %s table not available on this CPU\n", pin.backend);
      continue;
    }
    ASSERT_TRUE(backend::simd::set_backend(pin.backend));
    for (const int threads : {1, 2, 3}) {
      const TeamSizeScope team(threads);
      EXPECT_EQ(pinned_case_hash(f4_per_tap), pin.f4)
          << pin.backend << " F4 per-tap, team " << threads << ": 0x" << std::hex
          << pinned_case_hash(f4_per_tap);
      EXPECT_EQ(pinned_case_hash(f2_grouped), pin.f2)
          << pin.backend << " F2 groups=2, team " << threads << ": 0x" << std::hex
          << pinned_case_hash(f2_grouped);
    }
  }
  backend::simd::set_backend(active);
}

}  // namespace
}  // namespace wa::core
