// Equivalence tests across the deployment convolution kernels, plus the int8
// bias path and batch-norm folding.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "backend/bn_fold.hpp"
#include "backend/conv_kernels.hpp"
#include "backend/conv_kernels_s8.hpp"
#include "backend/qtensor.hpp"
#include "winograd/cook_toom.hpp"

namespace wa::backend {
namespace {

ConvGeometry geo(std::int64_t n, std::int64_t c, std::int64_t h, std::int64_t w, std::int64_t k,
                 std::int64_t kernel = 3, std::int64_t pad = 1, std::int64_t groups = 1) {
  ConvGeometry g;
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

TEST(ConvGeometry, Validation) {
  EXPECT_NO_THROW(geo(1, 3, 8, 8, 4).validate());
  EXPECT_THROW(geo(0, 3, 8, 8, 4).validate(), std::invalid_argument);
  EXPECT_THROW(geo(1, 3, 8, 8, 4, 3, 1, 2).validate(), std::invalid_argument);  // 3 % 2 != 0
  ConvGeometry g = geo(1, 3, 1, 1, 4, 3, 0);
  EXPECT_THROW(g.validate(), std::invalid_argument);  // empty output
}

TEST(ConvGeometry, OutputDims) {
  const auto g = geo(1, 3, 32, 32, 8);
  EXPECT_EQ(g.out_height(), 32);
  EXPECT_EQ(g.out_width(), 32);
  const auto valid = geo(1, 3, 32, 32, 8, 3, 0);
  EXPECT_EQ(valid.out_height(), 30);
}

TEST(DirectConv, IdentityKernelPassesThrough) {
  // 1x1 kernel with single 1.0 weight: output == input channel mix.
  auto g = geo(1, 1, 4, 4, 1, 1, 0);
  Rng rng(1);
  Tensor in = Tensor::randn({1, 1, 4, 4}, rng);
  Tensor w = Tensor::ones({1, 1, 1, 1});
  Tensor out = direct_conv(in, w, g);
  EXPECT_TRUE(Tensor::allclose(in, out, 0.F));
}

TEST(DirectConv, ShapeMismatchThrows) {
  auto g = geo(1, 2, 4, 4, 1);
  EXPECT_THROW(direct_conv(Tensor::ones({1, 3, 4, 4}), Tensor::ones({1, 2, 3, 3}), g),
               std::invalid_argument);
  EXPECT_THROW(direct_conv(Tensor::ones({1, 2, 4, 4}), Tensor::ones({1, 2, 5, 5}), g),
               std::invalid_argument);
}

struct KernelCase {
  std::int64_t n, c, h, w, k, kernel, pad, groups;
};

class KernelEquivalence : public ::testing::TestWithParam<KernelCase> {};

TEST_P(KernelEquivalence, Im2RowIm2ColMatchDirect) {
  const auto p = GetParam();
  const auto g = geo(p.n, p.c, p.h, p.w, p.k, p.kernel, p.pad, p.groups);
  Rng rng(static_cast<std::uint64_t>(p.c * 31 + p.h));
  const Tensor in = Tensor::randn({p.n, p.c, p.h, p.w}, rng);
  const Tensor w = Tensor::randn({p.k, p.c / p.groups, p.kernel, p.kernel}, rng, 0.2F);
  const Tensor ref = direct_conv(in, w, g);
  EXPECT_LE(Tensor::max_abs_diff(ref, im2row_conv(in, w, g)), 2e-3F);
  EXPECT_LE(Tensor::max_abs_diff(ref, im2col_conv(in, w, g)), 2e-3F);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, KernelEquivalence,
    ::testing::Values(KernelCase{1, 1, 5, 5, 1, 3, 1, 1}, KernelCase{2, 3, 8, 8, 4, 3, 1, 1},
                      KernelCase{1, 4, 7, 9, 6, 3, 1, 1}, KernelCase{1, 3, 8, 8, 4, 5, 2, 1},
                      KernelCase{1, 8, 6, 6, 8, 3, 1, 4},   // grouped (ResNeXt-style)
                      KernelCase{2, 4, 8, 8, 4, 1, 0, 1},   // 1x1 (SqueezeNet squeeze)
                      KernelCase{1, 2, 16, 16, 3, 3, 0, 1}  // no padding
                      ));

class WinogradKernelEquivalence : public ::testing::TestWithParam<std::pair<int, KernelCase>> {};

TEST_P(WinogradKernelEquivalence, WinogradMatchesDirect) {
  const auto [m, p] = GetParam();
  const auto g = geo(p.n, p.c, p.h, p.w, p.k, p.kernel, p.pad, 1);
  const auto tr = wino::make_transforms(m, static_cast<int>(p.kernel));
  Rng rng(static_cast<std::uint64_t>(m * 17 + p.h));
  const Tensor in = Tensor::randn({p.n, p.c, p.h, p.w}, rng);
  const Tensor w = Tensor::randn({p.k, p.c, p.kernel, p.kernel}, rng, 0.2F);
  const Tensor ref = direct_conv(in, w, g);
  const Tensor got = winograd_conv(in, w, g, tr);
  const float tol = 2e-3F * static_cast<float>(m) * static_cast<float>(std::max<std::int64_t>(p.c, 1));
  EXPECT_LE(Tensor::max_abs_diff(ref, got), tol);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, WinogradKernelEquivalence,
    ::testing::Values(std::pair{2, KernelCase{1, 2, 8, 8, 3, 3, 1, 1}},
                      std::pair{4, KernelCase{1, 2, 8, 8, 3, 3, 1, 1}},
                      std::pair{6, KernelCase{1, 2, 16, 16, 3, 3, 1, 1}},
                      std::pair{4, KernelCase{2, 3, 9, 11, 4, 3, 1, 1}},  // ragged tiles
                      std::pair{2, KernelCase{1, 4, 6, 6, 2, 3, 0, 1}},   // no padding
                      std::pair{2, KernelCase{1, 1, 10, 10, 1, 5, 2, 1}}  // 5x5 filter
                      ));

TEST(WinogradConv, RejectsGroupsAndKernelMismatch) {
  const auto tr = wino::make_transforms(2, 3);
  auto g = geo(1, 4, 8, 8, 4, 3, 1, 2);
  EXPECT_THROW(winograd_conv(Tensor::ones({1, 4, 8, 8}), Tensor::ones({4, 2, 3, 3}), g, tr),
               std::invalid_argument);
  auto g2 = geo(1, 2, 8, 8, 2, 5, 2, 1);
  EXPECT_THROW(winograd_conv(Tensor::ones({1, 2, 8, 8}), Tensor::ones({2, 2, 5, 5}), g2, tr),
               std::invalid_argument);
}

TEST(WinogradTransformWeights, ShapeAndAmortization) {
  const auto tr = wino::make_transforms(4, 3);
  Rng rng(3);
  const Tensor w = Tensor::randn({8, 4, 3, 3}, rng);
  const Tensor u = winograd_transform_weights(w, tr);
  EXPECT_EQ(u.shape(), (Shape{36, 8, 4}));  // t*t = 36: the 4x memory blow-up of F4
}

// ---- transform sets the kernels cannot run ---------------------------------

/// A stage cache the call checks accept for `tr`: U sized for tr.tile, every
/// level offset-binary zero.
WinogradWeightsS8 cache_for(const wino::Transforms& tr, std::int64_t c, std::int64_t k) {
  WinogradWeightsS8 w;
  w.out_channels = k;
  w.in_channels = c;
  w.tile = tr.tile;
  w.scale = 0.02F;
  w.u_blocked.assign(static_cast<std::size_t>(w.tile * w.tile * k * w.padded_in_channels()), 128);
  return w;
}

TEST(WinogradS8, EntryPointsRejectTransformSetsTheKernelsCannotRun) {
  // Hand-built sets whose cache still matches tr.tile: the kernels would
  // size tile buffers by kMaxTile and index Bᵀ/Aᵀ as [t, t]/[m, t]
  // unchecked, so each entry point must refuse them before any kernel runs.
  std::vector<std::pair<std::string, wino::Transforms>> bad;
  {
    wino::Transforms tr;  // F(11, 3): tile 13 > kMaxTile, matrices of the right shapes
    tr.m = 11;
    tr.r = 3;
    tr.tile = 13;
    tr.g_mat = Tensor::zeros({13, 3});
    tr.bt_mat = Tensor::zeros({13, 13});
    tr.at_mat = Tensor::zeros({11, 13});
    bad.emplace_back("tile 13", tr);
  }
  {
    wino::Transforms tr = wino::make_transforms(2, 3);
    tr.bt_mat = Tensor::zeros({1, 1});
    bad.emplace_back("[1, 1] Bt", tr);
  }
  {
    wino::Transforms tr = wino::make_transforms(4, 3);
    tr.at_mat = Tensor::zeros({1, 1});
    bad.emplace_back("[1, 1] At", tr);
  }
  {
    wino::Transforms tr = wino::make_transforms(2, 3);
    tr.tile = 5;  // not m + r - 1
    tr.bt_mat = Tensor::zeros({5, 5});
    tr.g_mat = Tensor::zeros({5, 3});
    tr.at_mat = Tensor::zeros({2, 5});
    bad.emplace_back("tile != m + r - 1", tr);
  }
  Rng rng(17);
  const std::int64_t c = 5, k = 4;
  const ConvGeometry g = geo(1, c, 8, 8, k);
  const QTensor in = quantize_s8(Tensor::randn({1, c, 8, 8}, rng));
  const Tensor w = Tensor::randn({k, c, 3, 3}, rng);
  const WinogradStageScales frozen{.weights_transformed = 0.02F,
                                   .input_transformed = 0.1F,
                                   .hadamard = 0.05F,
                                   .output = 0.1F};
  for (const auto& [name, tr] : bad) {
    SCOPED_TRACE(name);
    const WinogradWeightsS8 cache = cache_for(tr, c, k);
    EXPECT_THROW(winograd_conv_s8_prepared(in, cache, g, tr, frozen), std::invalid_argument);
    EXPECT_THROW(winograd_conv_s8_flat(in, cache, g, tr, frozen), std::invalid_argument);
    EXPECT_THROW(prepare_winograd_weights_s8(w, tr), std::invalid_argument);
    EXPECT_THROW(winograd_transform_weights(w, tr), std::invalid_argument);
    EXPECT_THROW(winograd_conv_prepared(Tensor::randn({1, c, 8, 8}, rng),
                                        Tensor::zeros({tr.tile * tr.tile, k, c}), g, tr),
                 std::invalid_argument);
  }
  // The stride-2 entry points take an F(m, 2) set for the polyphase phase.
  wino::Transforms tr22 = wino::make_transforms(2, 2);
  StridedWinogradWeightsS8 sw = prepare_strided_winograd_weights_s8(w, tr22);
  tr22.bt_mat = Tensor::zeros({1, 1});
  ConvGeometry g2 = g;
  g2.stride = 2;
  EXPECT_THROW(strided_winograd_conv_s8_prepared(in, sw, g2, tr22), std::invalid_argument);
  EXPECT_THROW(prepare_strided_winograd_weights_s8(w, tr22), std::invalid_argument);
}

// ---- int8 kernels -----------------------------------------------------------

TEST(QTensor, QuantizeDequantizeRoundTrip) {
  Rng rng(4);
  Tensor t = Tensor::randn({2, 3, 4, 4}, rng);
  const QTensor q = quantize_s8(t);
  const Tensor back = dequantize(q);
  EXPECT_LE(Tensor::max_abs_diff(t, back), q.scale / 2.F + 1e-6F);
}

TEST(GemmS8, MatchesFloatGemmOnSmallInts) {
  const std::int64_t m = 3, n = 4, k = 5;
  std::vector<std::int8_t> a(static_cast<std::size_t>(m * k)), b(static_cast<std::size_t>(k * n));
  Rng rng(5);
  for (auto& v : a) v = static_cast<std::int8_t>(rng.randint(-20, 20));
  for (auto& v : b) v = static_cast<std::int8_t>(rng.randint(-20, 20));
  std::vector<std::int32_t> c(static_cast<std::size_t>(m * n));
  gemm_s8_s32(m, n, k, a.data(), b.data(), c.data());
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      std::int32_t want = 0;
      for (std::int64_t kk = 0; kk < k; ++kk) {
        want += static_cast<std::int32_t>(a[static_cast<std::size_t>(i * k + kk)]) *
                b[static_cast<std::size_t>(kk * n + j)];
      }
      EXPECT_EQ(c[static_cast<std::size_t>(i * n + j)], want);
    }
  }
}

TEST(Im2RowS8, CloseToFloatReference) {
  const auto g = geo(1, 3, 8, 8, 4);
  Rng rng(6);
  const Tensor in = Tensor::randn({1, 3, 8, 8}, rng);
  const Tensor w = Tensor::randn({4, 3, 3, 3}, rng, 0.3F);
  const Tensor ref = im2row_conv(in, w, g);

  const QTensor qin = quantize_s8(in);
  const QTensor qw = quantize_s8(w);
  const QTensor qout = im2row_conv_s8_prepared(qin, prepare_im2row_weights_s8(qw), g);
  const Tensor got = dequantize(qout);
  // int8 end-to-end: expect small relative error vs the fp32 result.
  EXPECT_LE(Tensor::max_abs_diff(ref, got) / std::max(ref.abs_max(), 1e-6F), 0.06F);
}

TEST(WinogradS8, F2CloseToFloatReference) {
  const auto g = geo(1, 4, 8, 8, 4);
  const auto tr = wino::make_transforms(2, 3);
  Rng rng(7);
  const Tensor in = Tensor::randn({1, 4, 8, 8}, rng);
  const Tensor w = Tensor::randn({4, 4, 3, 3}, rng, 0.3F);
  const Tensor ref = im2row_conv(in, w, g);
  const QTensor qout =
      winograd_conv_s8_prepared(quantize_s8(in), prepare_winograd_weights_s8(w, tr), g, tr);
  const Tensor got = dequantize(qout);
  EXPECT_LE(Tensor::max_abs_diff(ref, got) / std::max(ref.abs_max(), 1e-6F), 0.12F);
}

TEST(WinogradS8, F6WorseThanF2AtInt8) {
  // The deployment kernels show the same error-vs-tile-size behaviour the
  // training study is built around.
  const auto g = geo(1, 4, 16, 16, 4);
  Rng rng(8);
  const Tensor in = Tensor::randn({1, 4, 16, 16}, rng);
  const Tensor w = Tensor::randn({4, 4, 3, 3}, rng, 0.3F);
  const Tensor ref = im2row_conv(in, w, g);

  auto rel_err = [&](int m) {
    const auto tr = wino::make_transforms(m, 3);
    const Tensor got = dequantize(
        winograd_conv_s8_prepared(quantize_s8(in), prepare_winograd_weights_s8(w, tr), g, tr));
    return Tensor::max_abs_diff(ref, got) / std::max(ref.abs_max(), 1e-6F);
  };
  EXPECT_GT(rel_err(6), rel_err(2));
}

// ---- int8 conv bias path -----------------------------------------------------

float rel_err(const Tensor& ref, const Tensor& got) {
  return Tensor::max_abs_diff(ref, got) / std::max(ref.abs_max(), 1e-6F);
}

TEST(S8ConvBias, Im2rowBiasMatchesFp32) {
  Rng rng(7);
  const auto g = geo(1, 4, 8, 8, 6);
  const Tensor x = Tensor::randn({1, 4, 8, 8}, rng);
  const Tensor w = Tensor::randn({6, 4, 3, 3}, rng, 0.3F);
  const Tensor b = Tensor::randn({6}, rng);
  Tensor ref = im2row_conv(x, w, g);
  for (std::int64_t k = 0; k < 6; ++k)
    for (std::int64_t i = 0; i < ref.size(2); ++i)
      for (std::int64_t j = 0; j < ref.size(3); ++j) ref(0, k, i, j) += b.at(k);
  const QTensor out = im2row_conv_s8_prepared(
      quantize_s8(x), prepare_im2row_weights_s8(quantize_s8(w)), g, -1.F, &b);
  EXPECT_LT(rel_err(ref, dequantize(out)), 0.05F);
}

TEST(S8ConvBias, WinogradBiasMatchesFp32) {
  Rng rng(8);
  const auto g = geo(1, 4, 8, 8, 4);
  const Tensor x = Tensor::randn({1, 4, 8, 8}, rng);
  const Tensor w = Tensor::randn({4, 4, 3, 3}, rng, 0.3F);
  const Tensor b = Tensor::randn({4}, rng);
  Tensor ref = im2row_conv(x, w, g);
  for (std::int64_t k = 0; k < 4; ++k)
    for (std::int64_t i = 0; i < ref.size(2); ++i)
      for (std::int64_t j = 0; j < ref.size(3); ++j) ref(0, k, i, j) += b.at(k);
  const auto tr = wino::make_transforms(2, 3);
  const QTensor out =
      winograd_conv_s8_prepared(quantize_s8(x), prepare_winograd_weights_s8(w, tr), g, tr, {}, &b);
  EXPECT_LT(rel_err(ref, dequantize(out)), 0.06F);
}

TEST(S8ConvBias, MismatchedBiasThrows) {
  Rng rng(9);
  const auto g = geo(1, 2, 6, 6, 4);
  const Tensor x = Tensor::randn({1, 2, 6, 6}, rng);
  const Tensor w = Tensor::randn({4, 2, 3, 3}, rng);
  const Tensor bad = Tensor::randn({3}, rng);
  EXPECT_THROW(im2row_conv_s8_prepared(quantize_s8(x), prepare_im2row_weights_s8(quantize_s8(w)),
                                       g, -1.F, &bad),
               std::invalid_argument);
}

// ---- batch-norm folding ---------------------------------------------------------

TEST(BnFold, FoldedConvMatchesConvPlusBn) {
  Rng rng(10);
  const auto g = geo(2, 3, 8, 8, 5);
  const Tensor x = Tensor::randn({2, 3, 8, 8}, rng);
  const Tensor w = Tensor::randn({5, 3, 3, 3}, rng, 0.4F);
  const Tensor gamma = Tensor::rand({5}, rng, 0.5F, 1.5F);
  const Tensor beta = Tensor::randn({5}, rng);
  const Tensor mean = Tensor::randn({5}, rng, 0.2F);
  Tensor var = Tensor::rand({5}, rng, 0.25F, 2.F);

  // Reference: conv, then affine batch-norm with the running stats.
  Tensor ref = im2row_conv(x, w, g);
  for (std::int64_t k = 0; k < 5; ++k) {
    const float inv_std = 1.F / std::sqrt(var.at(k) + 1e-5F);
    for (std::int64_t n = 0; n < 2; ++n)
      for (std::int64_t i = 0; i < ref.size(2); ++i)
        for (std::int64_t j = 0; j < ref.size(3); ++j) {
          ref(n, k, i, j) = gamma.at(k) * (ref(n, k, i, j) - mean.at(k)) * inv_std + beta.at(k);
        }
  }

  const FoldedConv folded = fold_batchnorm(w, Tensor(), gamma, beta, mean, var);
  Tensor got = im2row_conv(x, folded.weights, g);
  for (std::int64_t k = 0; k < 5; ++k)
    for (std::int64_t n = 0; n < 2; ++n)
      for (std::int64_t i = 0; i < got.size(2); ++i)
        for (std::int64_t j = 0; j < got.size(3); ++j) got(n, k, i, j) += folded.bias.at(k);

  EXPECT_LE(Tensor::max_abs_diff(ref, got), 1e-4F);
}

TEST(BnFold, ExistingBiasFoldsThrough) {
  Rng rng(11);
  const Tensor w = Tensor::randn({2, 1, 3, 3}, rng);
  const Tensor b = Tensor({2}, {1.F, -2.F});
  const Tensor gamma = Tensor({2}, {2.F, 0.5F});
  const Tensor beta = Tensor({2}, {0.F, 1.F});
  const Tensor mean = Tensor({2}, {0.5F, -0.5F});
  const Tensor var = Tensor({2}, {1.F, 4.F});
  const FoldedConv f = fold_batchnorm(w, b, gamma, beta, mean, var, 0.F);
  // channel 0: s = 2/1 = 2 -> bias = 0 + 2*(1 - 0.5) = 1
  EXPECT_NEAR(f.bias.at(0), 1.F, 1e-6F);
  // channel 1: s = 0.5/2 = 0.25 -> bias = 1 + 0.25*(-2 + 0.5) = 0.625
  EXPECT_NEAR(f.bias.at(1), 0.625F, 1e-6F);
}

TEST(BnFold, ShapeMismatchThrows) {
  Rng rng(12);
  const Tensor w = Tensor::randn({2, 1, 3, 3}, rng);
  const Tensor ok = Tensor::ones({2});
  const Tensor bad = Tensor::ones({3});
  EXPECT_THROW(fold_batchnorm(w, Tensor(), bad, ok, ok, ok), std::invalid_argument);
  EXPECT_THROW(fold_batchnorm(w, bad, ok, ok, ok, ok), std::invalid_argument);
}

TEST(BnFold, RejectsImpossibleStatisticsNamingTheLayer) {
  // 1/sqrt(var + eps) is NaN for var + eps <= 0 and a NaN or infinite
  // statistic poisons the fold, so both throw instead of folding garbage.
  Rng rng(13);
  const Tensor w = Tensor::randn({3, 1, 3, 3}, rng);
  const Tensor ok = Tensor::ones({3});
  const Tensor negative_var = Tensor({3}, {1.F, -0.5F, 1.F});
  try {
    fold_batchnorm(w, Tensor(), ok, ok, ok, negative_var, 1e-5F, "block0.conv1.bn");
    ADD_FAILURE() << "a negative running variance folded";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("block0.conv1.bn"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("channel 1"), std::string::npos) << e.what();
  }
  // var + eps == 0 exactly, then each statistic non-finite in turn.
  EXPECT_THROW(fold_batchnorm(w, Tensor(), ok, ok, ok, Tensor({3}, {1.F, 0.F, 1.F}), 0.F),
               std::invalid_argument);
  const Tensor nan = Tensor({3}, {1.F, 1.F, std::nanf("")});
  const Tensor inf = Tensor({3}, {1.F, INFINITY, 1.F});
  EXPECT_THROW(fold_batchnorm(w, Tensor(), nan, ok, ok, ok), std::invalid_argument);
  EXPECT_THROW(fold_batchnorm(w, Tensor(), ok, inf, ok, ok), std::invalid_argument);
  EXPECT_THROW(fold_batchnorm(w, Tensor(), ok, ok, nan, ok), std::invalid_argument);
  EXPECT_THROW(fold_batchnorm(w, Tensor(), ok, ok, ok, inf), std::invalid_argument);
  EXPECT_NO_THROW(fold_batchnorm(w, Tensor(), ok, ok, ok, Tensor({3}, {1.F, 0.F, 1.F})));
}

TEST(StridedWinogradS8, RejectsRectWeightsOfTheWrongSize) {
  // A hand-built cache whose u00 is valid but whose rect-phase weights are
  // 8 bytes instead of [5*C, K]: the kernel must refuse it before its GEMM
  // reads rect_wt as a 5*C x K matrix.
  Rng rng(41);
  const std::int64_t c = 8, k = 8;
  const auto tr = wino::make_transforms(2, 2);
  StridedWinogradWeightsS8 w =
      prepare_strided_winograd_weights_s8(Tensor::randn({k, c, 3, 3}, rng, 0.3F), tr);
  ConvGeometry g = geo(1, c, 8, 8, k);
  g.stride = 2;
  const QTensor in = quantize_s8(Tensor::randn({1, c, 8, 8}, rng));
  EXPECT_NO_THROW(strided_winograd_conv_s8_prepared(in, w, g, tr));
  w.rect_wt.assign(8, 1);
  EXPECT_THROW(strided_winograd_conv_s8_prepared(in, w, g, tr), std::invalid_argument);
}

}  // namespace
}  // namespace wa::backend
