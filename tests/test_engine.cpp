// Tests for the cached-weight, arena-backed inference engine: the prepared
// fp32 Winograd kernel must match its per-call path bit-for-bit, U = G g Gᵀ
// must be computed once per layer (never per forward), and the scratch arena
// must reuse its capacity across calls.
#include <gtest/gtest.h>

#include "backend/conv_kernels.hpp"
#include "backend/conv_kernels_s8.hpp"
#include "backend/perf_counters.hpp"
#include "core/wa_conv_op.hpp"
#include "deploy/pipeline.hpp"
#include "tensor/arena.hpp"
#include "winograd/cook_toom.hpp"

namespace wa {
namespace {

using backend::ConvGeometry;
using backend::PerfCounters;
using backend::QTensor;

ConvGeometry geo(std::int64_t n, std::int64_t c, std::int64_t hw, std::int64_t k) {
  ConvGeometry g;
  g.batch = n;
  g.in_channels = c;
  g.height = hw;
  g.width = hw;
  g.out_channels = k;
  g.kernel = 3;
  g.pad = 1;
  return g;
}

std::uint64_t transforms_run() {
  return PerfCounters::weight_transforms.load(std::memory_order_relaxed);
}

// ---- arena ------------------------------------------------------------------

TEST(ScratchArena, ReusesCapacityAcrossScopes) {
  ScratchArena arena;
  float* first = nullptr;
  {
    ScratchArena::Scope frame(arena);
    first = arena.alloc<float>(1000);
    ASSERT_NE(first, nullptr);
    first[999] = 1.F;  // the span is writable
  }
  const std::size_t cap = arena.capacity();
  EXPECT_GT(cap, 0u);
  {
    ScratchArena::Scope frame(arena);
    float* second = arena.alloc<float>(1000);
    EXPECT_EQ(second, first) << "rewound arena should hand back the same storage";
  }
  EXPECT_EQ(arena.capacity(), cap) << "no growth for a repeated identical pass";
}

TEST(ScratchArena, GrowsAndAligns) {
  ScratchArena arena;
  ScratchArena::Scope frame(arena);
  for (const std::int64_t n : {3, 17, 100000, 5}) {
    auto* p = arena.alloc<std::int32_t>(n);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % 64, 0u);
    p[n - 1] = 7;
  }
}

TEST(ScratchArena, NestedScopesRewindToTheirOwnMark) {
  ScratchArena arena;
  ScratchArena::Scope outer(arena);
  float* a = arena.alloc<float>(64);
  float* inner_ptr = nullptr;
  {
    ScratchArena::Scope inner(arena);
    inner_ptr = arena.alloc<float>(64);
    EXPECT_NE(inner_ptr, a);
  }
  EXPECT_EQ(arena.alloc<float>(64), inner_ptr) << "inner frame should have been rewound";
}

// ---- prepared fp32 kernel == per-call fp32 kernel ---------------------------

TEST(Engine, PreparedFp32WinogradMatchesPerCall) {
  Rng rng(23);
  const auto g = geo(2, 3, 10, 4);
  const auto tr = wino::make_transforms(4, 3);
  const Tensor w = Tensor::randn({g.out_channels, g.in_channels, 3, 3}, rng, 0.4F);
  const Tensor x = Tensor::randn({g.batch, g.in_channels, g.height, g.width}, rng);

  const Tensor seed = backend::winograd_conv(x, w, g, tr);
  const Tensor u = backend::winograd_transform_weights(w, tr);
  const Tensor cached = backend::winograd_conv_prepared(x, u, g, tr);
  EXPECT_EQ(Tensor::max_abs_diff(seed, cached), 0.F);
}

TEST(Engine, PreparedKernelsRejectMismatchedGeometry) {
  Rng rng(24);
  const auto g = geo(1, 4, 8, 6);
  const auto tr = wino::make_transforms(2, 3);
  const Tensor w = Tensor::randn({g.out_channels, g.in_channels, 3, 3}, rng);
  const auto prepared = backend::prepare_winograd_weights_s8(w, tr);
  auto bad = geo(1, 4, 8, 5);  // wrong out_channels
  QTensor qx = backend::quantize_s8(Tensor::randn({1, 4, 8, 8}, rng));
  EXPECT_THROW(backend::winograd_conv_s8_prepared(qx, prepared, bad, tr),
               std::invalid_argument);
}

// ---- no per-forward weight transforms --------------------------------------

TEST(Engine, PreparedPathNeverRetransformsWeights) {
  Rng rng(25);
  const auto g = geo(1, 6, 12, 8);
  const auto tr = wino::make_transforms(2, 3);
  const Tensor w = Tensor::randn({g.out_channels, g.in_channels, 3, 3}, rng, 0.4F);
  const QTensor qx = backend::quantize_s8(Tensor::randn({1, 6, 12, 12}, rng));

  const auto prepared = backend::prepare_winograd_weights_s8(w, tr);
  const std::uint64_t before = transforms_run();
  for (int i = 0; i < 5; ++i) backend::winograd_conv_s8_prepared(qx, prepared, g, tr);
  EXPECT_EQ(transforms_run(), before) << "prepared forwards must not rebuild U";
}

TEST(Engine, PipelinePreparesWeightsAtLoadOnly) {
  Rng rng(26);
  const auto tr = wino::make_transforms(2, 3);
  deploy::ConvStage st;
  st.algo = nn::ConvAlgo::kWinograd2;
  st.in_channels = 3;
  st.out_channels = 5;
  st.kernel = 3;
  st.pad = 1;
  st.input_scale = 0.05F;
  st.weights_f = Tensor::randn({5, 3, 3, 3}, rng, 0.4F);
  st.transforms = tr;
  st.output_scale = 0.1F;

  deploy::Int8Pipeline pipe;
  const std::uint64_t before = transforms_run();
  pipe.push(std::move(st));
  EXPECT_EQ(transforms_run(), before + 1) << "push() builds U exactly once";

  const Tensor x = Tensor::randn({2, 3, 8, 8}, rng);
  const Tensor y1 = pipe.run(x);
  const Tensor y2 = pipe.run(x);
  EXPECT_EQ(transforms_run(), before + 1) << "forwards must reuse the cached U";
  EXPECT_EQ(Tensor::max_abs_diff(y1, y2), 0.F);
}

TEST(Engine, CoreOpCachesUAcrossEvalForwards) {
  Rng rng(27);
  backend::ConvGeometry g = geo(1, 3, 8, 4);
  const auto tr = wino::make_transforms(2, 3);
  ag::Variable x(Tensor::randn({1, 3, 8, 8}, rng), false);
  ag::Variable w(Tensor::randn({4, 3, 3, 3}, rng, 0.4F), false);
  ag::Variable gm(tr.g_mat, false), btm(tr.bt_mat, false), atm(tr.at_mat, false);
  core::WaQuantStages stages;
  stages.spec = quant::QuantSpec{8};

  // Warm the observers once (training), then eval twice: one transform for
  // the warm-up, one for the first eval forward, none for the second.
  core::winograd_aware_conv2d(x, w, ag::Variable(), gm, btm, atm, g, 2, stages, true);
  const std::uint64_t before = transforms_run();
  const Tensor y1 =
      core::winograd_aware_conv2d(x, w, ag::Variable(), gm, btm, atm, g, 2, stages, false).value();
  EXPECT_EQ(transforms_run(), before + 1);
  const Tensor y2 =
      core::winograd_aware_conv2d(x, w, ag::Variable(), gm, btm, atm, g, 2, stages, false).value();
  EXPECT_EQ(transforms_run(), before + 1) << "second eval forward must hit the U cache";
  EXPECT_EQ(Tensor::max_abs_diff(y1, y2), 0.F);

  // Editing the weights must invalidate the cache (content-keyed).
  w.value().at(0) += 0.25F;
  const Tensor y3 =
      core::winograd_aware_conv2d(x, w, ag::Variable(), gm, btm, atm, g, 2, stages, false).value();
  EXPECT_EQ(transforms_run(), before + 2) << "weight edit must recompute U";
  EXPECT_GT(Tensor::max_abs_diff(y1, y3), 0.F);

  // Training forwards never consult the cache (observers must observe).
  core::winograd_aware_conv2d(x, w, ag::Variable(), gm, btm, atm, g, 2, stages, true);
  core::winograd_aware_conv2d(x, w, ag::Variable(), gm, btm, atm, g, 2, stages, true);
  EXPECT_EQ(transforms_run(), before + 4);
}

// ---- batched engine ---------------------------------------------------------

TEST(Engine, RunBatchedMatchesRun) {
  Rng rng(28);
  const auto tr = wino::make_transforms(2, 3);
  deploy::ConvStage st;
  st.algo = nn::ConvAlgo::kWinograd2;
  st.in_channels = 2;
  st.out_channels = 4;
  st.kernel = 3;
  st.pad = 1;
  st.input_scale = 0.05F;
  st.weights_f = Tensor::randn({4, 2, 3, 3}, rng, 0.4F);
  st.transforms = tr;
  // Freeze every stage scale so micro-batches cannot re-derive them from
  // their own chunk statistics.
  st.stage_scales.input_transformed = 0.06F;
  st.stage_scales.hadamard = 0.02F;
  st.stage_scales.output = 0.08F;
  st.output_scale = 0.08F;

  deploy::Int8Pipeline pipe;
  pipe.push(std::move(st));

  const Tensor x = Tensor::randn({7, 2, 8, 8}, rng);
  const Tensor whole = pipe.run(x);
  for (const std::int64_t mb : {1, 2, 3, 7, 100}) {
    const Tensor chunked = pipe.run_batched(x, mb);
    ASSERT_EQ(chunked.shape(), whole.shape());
    EXPECT_EQ(Tensor::max_abs_diff(whole, chunked), 0.F) << "micro_batch=" << mb;
  }
}

deploy::ConvStage dynamic_output_conv(Rng& rng) {
  deploy::ConvStage st;
  st.algo = nn::ConvAlgo::kIm2row;
  st.in_channels = 2;
  st.out_channels = 4;
  st.kernel = 3;
  st.pad = 1;
  st.input_scale = 0.05F;
  st.output_scale = -1.F;  // dynamic: requantized from each batch's abs-max
  st.weights_q = backend::quantize_s8(Tensor::randn({4, 2, 3, 3}, rng, 0.4F));
  return st;
}

TEST(Engine, RunBatchedRejectsSplittingAcrossDynamicScales) {
  // A dynamic output scale makes a sample's logits depend on which
  // neighbours shared its chunk — run_batched must refuse to split rather
  // than silently perturb results (the serving-coalescing hazard).
  Rng rng(29);
  deploy::Int8Pipeline pipe;
  pipe.push(dynamic_output_conv(rng));
  ASSERT_FALSE(pipe.all_scales_frozen());

  const Tensor x = Tensor::randn({6, 2, 8, 8}, rng);
  EXPECT_NO_THROW(pipe.run_batched(x, 0));   // whole batch: no split, fine
  EXPECT_NO_THROW(pipe.run_batched(x, 6));   // micro_batch >= n: no split
  try {
    pipe.run_batched(x, 2);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("freeze_scales"), std::string::npos) << e.what();
  }
}

TEST(Engine, FreezeScalesMakesRunBatchedBitExact) {
  Rng rng(30);
  deploy::Int8Pipeline pipe;
  pipe.push(dynamic_output_conv(rng));
  const Tensor calib = Tensor::randn({5, 2, 8, 8}, rng);
  const Tensor before = pipe.run(calib);

  pipe.freeze_scales(calib);
  EXPECT_TRUE(pipe.all_scales_frozen());
  // The captured scale is exactly the scale the calibration forward derived,
  // so the calibration batch itself must be bit-identical before/after.
  EXPECT_EQ(Tensor::max_abs_diff(pipe.run(calib), before), 0.F);

  const Tensor x = Tensor::randn({7, 2, 8, 8}, rng);
  const Tensor whole = pipe.run(x);
  for (const std::int64_t mb : {1, 2, 3}) {
    EXPECT_EQ(Tensor::max_abs_diff(pipe.run_batched(x, mb), whole), 0.F)
        << "micro_batch=" << mb;
  }
}

TEST(Engine, FreezeScalesCapturesDynamicInputQuantizer) {
  // input_scale <= 0 means the input quantizer derives its scale from the
  // whole submitted batch — also batch-composition dependent, also frozen.
  Rng rng(31);
  deploy::ConvStage st = dynamic_output_conv(rng);
  st.input_scale = -1.F;
  deploy::Int8Pipeline pipe;
  pipe.push(std::move(st));
  const auto dynamic = pipe.dynamic_scale_labels();
  ASSERT_EQ(dynamic.size(), 2u);
  EXPECT_NE(dynamic[0].find("input-quantizer"), std::string::npos) << dynamic[0];

  pipe.freeze_scales(Tensor::randn({4, 2, 8, 8}, rng));
  EXPECT_TRUE(pipe.all_scales_frozen());
  const Tensor x = Tensor::randn({6, 2, 8, 8}, rng);
  EXPECT_EQ(Tensor::max_abs_diff(pipe.run_batched(x, 2), pipe.run(x)), 0.F);
}

TEST(Engine, FreezeScalesRejectsDynamicInternalWinogradScales) {
  // The V/M scales live inside the kernel; a calibration forward cannot
  // capture them, so freezing must fail loudly instead of half-freezing.
  Rng rng(32);
  deploy::ConvStage st;
  st.algo = nn::ConvAlgo::kWinograd2;
  st.in_channels = 2;
  st.out_channels = 4;
  st.kernel = 3;
  st.pad = 1;
  st.input_scale = 0.05F;
  st.weights_f = Tensor::randn({4, 2, 3, 3}, rng, 0.4F);
  st.transforms = wino::make_transforms(2, 3);
  // stage_scales left fully dynamic (V, M, Y all derived per call).
  deploy::Int8Pipeline pipe;
  pipe.push(std::move(st));
  EXPECT_THROW(pipe.freeze_scales(Tensor::randn({2, 2, 8, 8}, rng)), std::invalid_argument);
}

}  // namespace
}  // namespace wa
