// Tests for the int8 deployment pipeline: integer ops, the level maps
// against the per-element formulas they replaced, im2row output bytes pinned
// across team sizes, scale chaining, and the QAT-to-integer-inference
// contract on a full LeNet-5.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <new>
#include <random>
#include <utility>

#include "backend/simd/kernel_table.hpp"
#include "data/synthetic.hpp"
#include "deploy/pipeline.hpp"
#include "test_support.hpp"
#include "train/trainer.hpp"

// Every heap allocation in this binary passes through these replacements,
// so a test can count what one forward allocates. They stay out of line:
// inlined, GCC would pair their malloc() and free() with `new` and `delete`
// expressions and warn of a mismatch.
namespace {
std::atomic<std::int64_t> g_allocations{0};
}  // namespace

[[gnu::noinline]] void* operator new(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](std::size_t n) { return ::operator new(n); }
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

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

// ---- level maps against the per-element formulas they replaced -------------

// The reference loops below are the per-element passes the level maps
// replaced, kept verbatim. Each map must return exactly what its formula
// returns at every one of the 256 input levels.

std::int32_t apply_ratio(std::int32_t v, const RequantRatio& r) {
  return r.identity ? v : quant::apply_multiplier(v, r.mult);
}

void reference_affine_rows_s8(const std::int8_t* src, std::int8_t* dst, std::int64_t n,
                              std::int64_t c, std::int64_t hw, const ChannelAffineS8& p,
                              bool relu) {
  for (std::int64_t ni = 0; ni < n; ++ni) {
    for (std::int64_t ci = 0; ci < c; ++ci) {
      const auto k = static_cast<std::size_t>(ci);
      const std::int64_t m = p.m0[k];
      const int e = p.exp[k];
      const std::int64_t bq = p.bias_q[k];
      const std::int64_t half = e == 0 ? 0 : std::int64_t{1} << (e - 1);
      const std::int8_t* s = src + (ni * c + ci) * hw;
      std::int8_t* d = dst + (ni * c + ci) * hw;
      for (std::int64_t i = 0; i < hw; ++i) {
        const std::int64_t v = m * s[i] + bq;
        // Round half away from zero, one single rounding for the whole affine.
        std::int64_t q = e == 0 ? v : (v >= 0 ? v + half : v - half) / (std::int64_t{1} << e);
        if (relu && q < 0) q = 0;
        d[i] = static_cast<std::int8_t>(q > 127 ? 127 : (q < -127 ? -127 : q));
      }
    }
  }
}

void reference_requant_s8_(QTensor& x, const RequantRatio& ratio, float out_scale) {
  for (auto& v : x.data) {
    const std::int32_t q = apply_ratio(v, ratio);
    v = static_cast<std::int8_t>(q > 127 ? 127 : (q < -127 ? -127 : q));
  }
  x.scale = out_scale;
}

QTensor reference_concat_s8(const QTensor& lhs, const QTensor& rhs, const RequantRatio& lhs_ratio,
                            const RequantRatio& rhs_ratio, float out_scale, bool relu) {
  const std::int64_t n = lhs.shape[0], c1 = lhs.shape[1], c2 = rhs.shape[1];
  const std::int64_t hw = lhs.shape[2] * lhs.shape[3];
  QTensor out;
  out.shape = Shape{n, c1 + c2, lhs.shape[2], lhs.shape[3]};
  out.scale = out_scale;
  out.data.resize(static_cast<std::size_t>(n * (c1 + c2) * hw));
  const auto remap_rows = [&](const std::int8_t* src, std::int8_t* dst, std::int64_t count,
                              const RequantRatio& ratio) {
    for (std::int64_t i = 0; i < count; ++i) {
      std::int32_t q = apply_ratio(src[i], ratio);
      if (relu && q < 0) q = 0;
      dst[i] = static_cast<std::int8_t>(q > 127 ? 127 : (q < -127 ? -127 : q));
    }
  };
  for (std::int64_t b = 0; b < n; ++b) {
    remap_rows(lhs.data.data() + b * c1 * hw, out.data.data() + b * (c1 + c2) * hw, c1 * hw,
               lhs_ratio);
    remap_rows(rhs.data.data() + b * c2 * hw, out.data.data() + (b * (c1 + c2) + c1) * hw,
               c2 * hw, rhs_ratio);
  }
  return out;
}

QTensor reference_rescale_s8(QTensor x, float target_scale) {
  if (target_scale <= 0.F || std::fabs(x.scale - target_scale) < 1e-12F) return x;
  const float ratio = x.scale / target_scale;
  for (auto& v : x.data) {
    const float q = std::nearbyint(static_cast<float>(v) * ratio);
    v = static_cast<std::int8_t>(std::min(127.F, std::max(-127.F, q)));
  }
  x.scale = target_scale;
  return x;
}

/// Levels in which each channel takes all 256 values, rotated per channel
/// (and per sample): every [16, 16] plane of an [N, C, 16, 16] shape, or
/// every column of a [256, C] shape.
QTensor every_level(const Shape& shape, float scale) {
  QTensor q;
  q.shape = shape;
  q.scale = scale;
  q.data.resize(static_cast<std::size_t>(numel(shape)));
  const bool planes = shape.size() == 4;
  const std::int64_t c = shape[1], hw = planes ? shape[2] * shape[3] : 1;
  for (std::int64_t i = 0; i < numel(shape); ++i) {
    const std::int64_t ni = i / (c * hw), ci = (i / hw) % c;
    const std::int64_t pos = planes ? i % hw + 7 * ni : ni;
    q.data[static_cast<std::size_t>(i)] = static_cast<std::int8_t>((pos + 29 * ci) % 256 - 128);
  }
  return q;
}

/// Empty when `got` equals `want`, else where and how they first differ.
std::string first_difference(const std::vector<std::int8_t>& got,
                             const std::vector<std::int8_t>& want) {
  if (got.size() != want.size()) return "sizes differ";
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got[i] != want[i]) {
      return "element " + std::to_string(i) + ": got " + std::to_string(got[i]) + ", want " +
             std::to_string(want[i]);
    }
  }
  return "";
}

/// One channel per (exp, m0, bias_q) case: exp at both ends of each shift
/// regime, m0 at 0, ±1, the ±INT32_MAX rail, a power of two (which puts a
/// tie bias on a tie at every level) and a random value; bias_q at the ±1e17
/// clamp, at exact k·2^exp ± 2^(exp-1) ties and random.
ChannelAffineS8 affine_edge_cases() {
  std::mt19937_64 gen(17);
  constexpr std::int32_t kMax = std::numeric_limits<std::int32_t>::max();
  constexpr std::int64_t kRail = 100000000000000000;  // prepare's 1e17 clamp
  std::uniform_int_distribution<std::int32_t> any_m0(-kMax, kMax);
  std::uniform_int_distribution<std::int64_t> any_k(-100, 100);
  ChannelAffineS8 p;
  p.out_scale = 0.5F;
  for (const int e : {0, 1, 30, 31, 45, 46}) {
    const std::int64_t unit = std::int64_t{1} << e, half = unit / 2;
    std::uniform_int_distribution<std::int64_t> any_bias(-200 * unit, 200 * unit);
    const auto pow2 = static_cast<std::int32_t>(std::int64_t{1} << std::min(e, 30));
    for (const std::int32_t m : {0, 1, -1, kMax, -kMax, pow2, any_m0(gen)}) {
      std::vector<std::int64_t> biases = {kRail, -kRail, any_bias(gen)};
      if (e > 0) {
        const std::int64_t k = any_k(gen);
        biases.insert(biases.end(), {k * unit + half, k * unit - half, -k * unit - half});
      }
      for (const std::int64_t b : biases) {
        p.m0.push_back(m);
        p.exp.push_back(static_cast<std::int8_t>(e));
        p.bias_q.push_back(b);
      }
    }
  }
  fill_affine_levels(p);
  return p;
}

TEST(LevelMaps, AffineMatchesItsFormulaAtEveryLevel) {
  const ChannelAffineS8 p = affine_edge_cases();
  const auto c = static_cast<std::int64_t>(p.m0.size());
  for (const Shape& shape : {Shape{2, c, 16, 16}, Shape{256, c}}) {
    const QTensor x = every_level(shape, 0.1F);
    const std::int64_t hw = shape.size() == 4 ? 256 : 1;
    for (const bool relu : {false, true}) {
      SCOPED_TRACE(to_string(shape) + (relu ? " relu" : ""));
      std::vector<std::int8_t> want(x.data.size());
      reference_affine_rows_s8(x.data.data(), want.data(), shape[0], c, hw, p, relu);
      const QTensor got = channel_affine_s8(x, p, relu);
      EXPECT_EQ(first_difference(got.data, want), "");
      EXPECT_EQ(got.scale, p.out_scale);
      QTensor in_place = x;
      channel_affine_s8_(in_place, p, relu);
      EXPECT_EQ(first_difference(in_place.data, want), "");
    }
  }
  ChannelAffineS8 unfilled = p;
  unfilled.levels.clear();
  EXPECT_THROW(channel_affine_s8(every_level({256, c}, 0.1F), unfilled, false),
               std::invalid_argument);
}

/// Requant ratios across every regime apply_multiplier has: the default and
/// exact identities, ratio >= 1 (shift <= 0, up to past the int32 rail at
/// shift <= -31), ratio < 2^-31 (shift > 31), ordinary ratios and random
/// ones from 1e-11 to 1e9.
std::vector<RequantRatio> requant_edge_cases() {
  std::vector<RequantRatio> out = {RequantRatio{}};
  const std::pair<float, float> scales[] = {
      {0.1F, 0.1F}, {1.F, 1.F},    {2.F, 1.F},   {1.5F, 1.F},  {3.7F, 1.F},
      {127.3F, 1.F}, {1e6F, 1.F},  {3e9F, 1.F},  {1e-10F, 1.F}, {3e-12F, 1.F},
      {0.3F, 1.F},  {0.07F, 0.11F}, {1.F, 3.F}};
  for (const auto& [from, to] : scales) out.push_back(make_requant_ratio(from, to));
  std::mt19937_64 gen(23);
  std::uniform_real_distribution<float> log10_ratio(-11.F, 9.F);
  for (int i = 0; i < 8; ++i) {
    out.push_back(make_requant_ratio(std::pow(10.F, log10_ratio(gen)), 1.F));
  }
  return out;
}

TEST(LevelMaps, RequantMatchesItsFormulaAtEveryLevel) {
  const std::vector<RequantRatio> ratios = requant_edge_cases();
  bool left_shift = false, deep_shift = false;
  for (const RequantRatio& r : ratios) {
    left_shift |= !r.identity && r.mult.shift <= 0;
    deep_shift |= !r.identity && r.mult.shift > 31;
    SCOPED_TRACE("m0 " + std::to_string(r.mult.m0) + " shift " + std::to_string(r.mult.shift) +
                 (r.identity ? " identity" : ""));
    const QTensor x = every_level({2, 3, 16, 16}, 0.1F);
    QTensor want = x;
    reference_requant_s8_(want, r, 0.25F);
    QTensor got = x;
    requant_s8_(got, r, 0.25F);
    EXPECT_EQ(first_difference(got.data, want.data), "");
    EXPECT_EQ(got.scale, 0.25F);
  }
  EXPECT_TRUE(left_shift && deep_shift) << "a shift regime went untested";
}

TEST(LevelMaps, ConcatMatchesItsFormulaAtEveryLevel) {
  const std::vector<RequantRatio> ratios = requant_edge_cases();
  const QTensor lhs = every_level({2, 3, 16, 16}, 0.1F);
  const QTensor rhs = every_level({2, 5, 16, 16}, 0.2F);
  for (std::size_t i = 0; i < ratios.size(); ++i) {
    const RequantRatio& lr = ratios[i];
    const RequantRatio& rr = ratios[(i + 3) % ratios.size()];
    for (const bool relu : {false, true}) {
      SCOPED_TRACE("ratio pair " + std::to_string(i) + (relu ? " relu" : ""));
      const QTensor want = reference_concat_s8(lhs, rhs, lr, rr, 0.3F, relu);
      const QTensor got = concat_s8(lhs, rhs, lr, rr, 0.3F, relu);
      ASSERT_EQ(got.shape, want.shape);
      EXPECT_EQ(first_difference(got.data, want.data), "");
      EXPECT_EQ(got.scale, 0.3F);
    }
  }
}

TEST(LevelMaps, RescaleMatchesItsFormulaAtEveryLevel) {
  // Ratios x.scale / target from 1e-6 to 1e6. 0.5, 1.5 and 2.5 put every odd
  // level on a .5 product, which nearbyint rounds to even. Equal scales and
  // a non-positive target are the identity.
  const std::pair<float, float> scales[] = {
      {1e-6F, 1.F}, {1e-3F, 1.F}, {0.07F, 0.11F}, {0.5F, 1.F},   {1.5F, 1.F},
      {2.5F, 1.F},  {3.F, 2.F},   {1.F, 3.F},     {127.F, 1.F},  {1e3F, 1.F},
      {1e6F, 1.F},  {0.1F, 0.1F}, {0.1F, -1.F},   {1.F, 1.0000001F}};
  for (const auto& [from, to] : scales) {
    SCOPED_TRACE(std::to_string(from) + " -> " + std::to_string(to));
    const QTensor x = every_level({2, 3, 16, 16}, from);
    const QTensor want = reference_rescale_s8(x, to);
    const QTensor got = rescale_s8(x, to);
    EXPECT_EQ(first_difference(got.data, want.data), "");
    EXPECT_EQ(got.scale, want.scale);
  }
}

// ---- im2row: output bytes pinned across team sizes and kernel tables --------

/// FNV-1a 64 over one prepared im2row conv's output levels, then its scale:
/// batch 2, 6 -> 8 channels on a 9x9 input with a bias; a frozen output
/// scale at stride 1, one derived from the accumulators at stride 2.
std::uint64_t im2row_output_hash(std::int64_t groups, std::int64_t kernel, std::int64_t stride) {
  test_support::BitGen gen{static_cast<std::uint64_t>(100 * groups + 10 * kernel + stride)};
  backend::ConvGeometry g;
  g.batch = 2;
  g.in_channels = 6;
  g.height = 9;
  g.width = 9;
  g.out_channels = 8;
  g.kernel = kernel;
  g.pad = kernel / 2;
  g.groups = groups;
  g.stride = stride;
  const QTensor w = backend::quantize_s8(gen.tensor({8, 6 / groups, kernel, kernel}, 0.5F));
  const QTensor x = backend::quantize_s8(gen.tensor({2, 6, 9, 9}, 1.F), 1.F / 128.F);
  const Tensor bias = gen.tensor({8}, 0.25F);
  const QTensor out =
      backend::im2row_conv_s8_prepared(x, backend::prepare_im2row_weights_s8(w, groups), g,
                                       stride == 1 ? 1.F / 32.F : -1.F, &bias);
  const std::uint64_t h =
      test_support::fnv_bytes(test_support::kFnvOffset, out.data.data(), out.data.size());
  return test_support::fnv_bytes(h, &out.scale, sizeof out.scale);
}

TEST(Im2rowS8, PinnedBytesAcrossTeamSizes) {
  struct Pin {
    std::int64_t groups, kernel, stride;
    std::uint64_t want;
  };
  // Taken before the per-channel bias levels and the plane-per-thread
  // transpose, which must not move a byte.
  const Pin pins[] = {
      {1, 1, 1, 0xd79d12faf60df420ULL}, {1, 1, 2, 0xe0aaaf5c51ad8c51ULL},
      {1, 3, 1, 0xd37b0c89bf128ca8ULL}, {1, 3, 2, 0xb874fab450e3079fULL},
      {2, 1, 1, 0xfa156ef8df282a06ULL}, {2, 1, 2, 0x5c76dd89eb1b78e4ULL},
      {2, 3, 1, 0x70c5623b8e921521ULL}, {2, 3, 2, 0xc1b3e85430088eb1ULL},
  };
  const std::string caller = backend::simd::active_backend();
  for (const std::string& table : {caller, std::string("scalar")}) {
    ASSERT_TRUE(backend::simd::set_backend(table));
    for (const int team : {1, 2, 3}) {
      test_support::TeamSizeScope scope(team);
      for (const Pin& p : pins) {
        const std::uint64_t got = im2row_output_hash(p.groups, p.kernel, p.stride);
        EXPECT_EQ(got, p.want) << table << " table, team of " << team << ", groups " << p.groups
                               << ", " << p.kernel << "x" << p.kernel << ", stride " << p.stride
                               << ": 0x" << std::hex << got;
      }
    }
  }
  backend::simd::set_backend(caller);
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

TEST(Pipeline, UntracedForwardBuildsNoStageLabels) {
  // Stage labels are read only by a failed check, a timing or a trace span,
  // so an untraced forward allocates the same whether its labels are empty
  // (the "stage <i> (<type>)" fallback) or longer than any small-string
  // buffer.
  Rng rng(8);
  models::LeNetConfig cfg;
  cfg.qspec = quant::QuantSpec{8};
  models::LeNet5 net(cfg, rng);
  net.set_training(true);
  for (int i = 0; i < 2; ++i) {
    net.forward(ag::Variable(Tensor::randn({4, 1, 28, 28}, rng), false));
  }
  Int8Pipeline compiled = compile_lenet(net);
  const Tensor x = Tensor::randn({2, 1, 28, 28}, rng);
  compiled.freeze_scales(x);
  const std::vector<Int8Pipeline::Node> nodes = compiled.take_nodes();
  const auto relabeled = [&nodes](bool long_labels) {
    Int8Pipeline p;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      StageIO io = nodes[i].io;
      io.label = long_labels ? "a stage label well past any small-string buffer, #" +
                                   std::to_string(i)
                             : "";
      p.push(nodes[i].op, std::move(io), nodes[i].epilogue);
    }
    return p;
  };
  const Int8Pipeline unlabeled = relabeled(false), labeled = relabeled(true);
  const auto allocations = [&x](const Int8Pipeline& p) {
    p.run(x);  // first use grows the scratch arenas
    const std::int64_t before = g_allocations.load();
    const Tensor y = p.run(x);
    return g_allocations.load() - before;
  };
  const std::int64_t unlabeled_count = allocations(unlabeled);
  EXPECT_EQ(allocations(labeled), unlabeled_count);
  EXPECT_EQ(allocations(unlabeled), unlabeled_count) << "the count is not reproducible";
  EXPECT_EQ(Tensor::max_abs_diff(labeled.run(x), unlabeled.run(x)), 0.F);

  std::vector<StageTiming> timings;
  unlabeled.run(x, &timings);
  ASSERT_EQ(timings.size(), nodes.size());
  EXPECT_EQ(timings[1].label, "stage 1 (max-pool)");
  labeled.run(x, &timings);
  EXPECT_EQ(timings[1].label, "a stage label well past any small-string buffer, #1");
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
