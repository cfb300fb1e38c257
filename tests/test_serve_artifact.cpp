// Tests for the .wam compiled-model artifact: save/load must round-trip a
// compiled pipeline bit-exactly WITHOUT recomputing any weight cache (the
// weight_transforms / weight_repacks counters stay flat across a load), and
// the loader must reject corrupted, truncated and wrong-version artifacts
// before materializing anything.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <sstream>

#include "backend/perf_counters.hpp"
#include "backend/simd/kernel_table.hpp"
#include "deploy/passes/passes.hpp"
#include "deploy/pipeline.hpp"
#include "serve/artifact.hpp"
#include "tensor/io.hpp"
#include "test_support.hpp"
#include "winograd/cook_toom.hpp"

namespace wa::serve {
namespace {

using backend::PerfSnapshot;
using backend::snapshot_counters;
using deploy::AddStage;
using deploy::ConcatStage;
using deploy::ConvStage;
using deploy::Int8Pipeline;
using deploy::StageIO;

// Calibrate (observer warm-up, no full training needed — "compiled" is the
// contract under test, not accuracy) and compile the two paper models.

Int8Pipeline compiled_lenet(nn::ConvAlgo algo, Rng& rng) {
  models::LeNetConfig cfg;
  cfg.algo = algo;
  cfg.qspec = quant::QuantSpec{8};
  models::LeNet5 net(cfg, rng);
  net.set_training(true);
  for (int i = 0; i < 2; ++i) {
    net.forward(ag::Variable(Tensor::randn({4, 1, 28, 28}, rng), false));
  }
  Int8Pipeline pipe = deploy::compile_lenet(net);
  // The logits stage keeps a dynamic scale out of the compiler; serving (and
  // bit-stable round-trip comparison across batches) wants it frozen.
  pipe.freeze_scales(Tensor::randn({4, 1, 28, 28}, rng));
  return pipe;
}

Int8Pipeline compiled_resnet18(nn::ConvAlgo algo, Rng& rng, std::int64_t tap_group_size = 0) {
  models::ResNetConfig cfg;
  cfg.width_mult = 0.125F;
  cfg.algo = algo;
  cfg.qspec = quant::QuantSpec{8};
  cfg.tap_group_size = tap_group_size;
  models::ResNet18 net(cfg, rng);
  net.set_training(true);
  for (int i = 0; i < 2; ++i) {
    net.forward(ag::Variable(Tensor::randn({4, 3, 32, 32}, rng), false));
  }
  Int8Pipeline pipe = deploy::compile_resnet18(net);
  pipe.freeze_scales(Tensor::randn({4, 3, 32, 32}, rng));
  return pipe;
}

std::string saved_bytes(const Int8Pipeline& pipe) {
  std::ostringstream os(std::ios::binary);
  save_pipeline(os, pipe);
  return os.str();
}

Int8Pipeline loaded_from(const std::string& bytes) {
  std::istringstream is(bytes, std::ios::binary);
  return load_pipeline(is);
}

// ---- round trips ------------------------------------------------------------

TEST(WamArtifact, LenetRoundTripIsBitExactAndTransformFree) {
  for (const nn::ConvAlgo algo : {nn::ConvAlgo::kIm2row, nn::ConvAlgo::kWinograd2}) {
    Rng rng(31);
    const Int8Pipeline pipe = compiled_lenet(algo, rng);
    const std::string bytes = saved_bytes(pipe);

    const PerfSnapshot before = snapshot_counters();
    const Int8Pipeline loaded = loaded_from(bytes);
    EXPECT_EQ(snapshot_counters(), before)
        << "load must deserialize the prepared caches, not rebuild them";

    ASSERT_EQ(loaded.size(), pipe.size());
    EXPECT_TRUE(loaded.all_scales_frozen());
    const Tensor x = Tensor::randn({5, 1, 28, 28}, rng);
    const Tensor want = pipe.run(x);
    const Tensor got = loaded.run(x);
    ASSERT_EQ(got.shape(), want.shape());
    EXPECT_EQ(Tensor::max_abs_diff(got, want), 0.F)
        << "algo " << nn::to_string(algo) << ": loaded pipeline must match bit-exactly";
    EXPECT_EQ(snapshot_counters(), before)
        << "forwards after load must stay on the cached hot path";
  }
}

TEST(WamArtifact, ResNet18RoundTripIsBitExactAndTransformFree) {
  // The full graph surface in one artifact: Winograd block convs with frozen
  // Qx scales + integer BnStages, folded GEMM stem/shortcut convs, pool
  // stages, level-aligned AddStages reading named slots, global avg-pool and
  // the final linear stage.
  Rng rng(32);
  const Int8Pipeline pipe = compiled_resnet18(nn::ConvAlgo::kWinograd2, rng);
  const std::string bytes = saved_bytes(pipe);

  const PerfSnapshot before = snapshot_counters();
  const Int8Pipeline loaded = loaded_from(bytes);
  EXPECT_EQ(snapshot_counters(), before) << "zero weight transforms/repacks during load";

  ASSERT_EQ(loaded.size(), pipe.size());
  const Tensor x = Tensor::randn({3, 3, 32, 32}, rng);
  const Tensor want = pipe.run(x);
  const Tensor got = loaded.run(x);
  ASSERT_EQ(got.shape(), want.shape());
  EXPECT_EQ(Tensor::max_abs_diff(got, want), 0.F);
  loaded.run(x);
  EXPECT_EQ(snapshot_counters(), before);
}

TEST(WamArtifact, FileRoundTripPreservesGraphWiringAndTimingLabels) {
  Rng rng(33);
  const Int8Pipeline pipe = compiled_resnet18(nn::ConvAlgo::kIm2row, rng);
  const std::string path = "test_artifact_roundtrip.wam";
  save_pipeline(path, pipe);
  const Int8Pipeline loaded = load_pipeline(path);
  std::remove(path.c_str());

  const Tensor x = Tensor::randn({2, 3, 32, 32}, rng);
  std::vector<deploy::StageTiming> want_t, got_t;
  const Tensor want = pipe.run(x, &want_t);
  const Tensor got = loaded.run(x, &got_t);
  EXPECT_EQ(Tensor::max_abs_diff(got, want), 0.F);
  ASSERT_EQ(got_t.size(), want_t.size());
  for (std::size_t i = 0; i < got_t.size(); ++i) {
    EXPECT_EQ(got_t[i].label, want_t[i].label) << "stage " << i;
  }
}

// ---- rejection --------------------------------------------------------------

TEST(WamArtifact, RejectsForeignAndGarbageFiles) {
  {
    std::istringstream is(std::string("not a wam file at all, sorry"), std::ios::binary);
    EXPECT_THROW(load_pipeline(is), std::runtime_error);
  }
  {
    std::istringstream is(std::string(), std::ios::binary);  // empty
    EXPECT_THROW(load_pipeline(is), std::runtime_error);
  }
}

TEST(WamArtifact, RejectsWrongVersion) {
  // The reader handles exactly kWamVersion: older headers (1-6 were written
  // by earlier serializers) and newer ones are refused, naming the version.
  Rng rng(34);
  const std::string bytes = saved_bytes(compiled_lenet(nn::ConvAlgo::kIm2row, rng));
  for (const std::uint32_t version : {0U, 1U, 2U, 3U, 4U, 5U, 6U, kWamVersion + 1}) {
    SCOPED_TRACE("version=" + std::to_string(version));
    std::string other = bytes;
    std::memcpy(other.data() + 4, &version, sizeof(version));  // follows the magic
    try {
      loaded_from(other);
      FAIL() << "expected runtime_error";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("unsupported .wam version " + std::to_string(version)),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(WamArtifact, RejectsTruncation) {
  Rng rng(35);
  const std::string bytes = saved_bytes(compiled_lenet(nn::ConvAlgo::kIm2row, rng));
  // Cut inside the header, inside the stage list, and one byte short.
  for (const std::size_t keep :
       {std::size_t{2}, std::size_t{11}, bytes.size() / 3, bytes.size() - 1}) {
    SCOPED_TRACE("keep=" + std::to_string(keep));
    EXPECT_THROW(loaded_from(bytes.substr(0, keep)), std::runtime_error);
  }
}

TEST(WamArtifact, RejectsCorruptedPayload) {
  Rng rng(36);
  const std::string bytes = saved_bytes(compiled_lenet(nn::ConvAlgo::kWinograd2, rng));
  const std::size_t header = 4 + 4 + 8 + 8;
  for (const std::size_t victim : {header, header + (bytes.size() - header) / 2, bytes.size() - 1}) {
    SCOPED_TRACE("victim=" + std::to_string(victim));
    std::string corrupt = bytes;
    corrupt[victim] = static_cast<char>(corrupt[victim] ^ 0x5A);
    try {
      loaded_from(corrupt);
      FAIL() << "expected runtime_error";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos) << e.what();
    }
  }
}

TEST(WamArtifact, RejectsPayloadLargerThanTheStageList) {
  Rng rng(37);
  const std::string bytes = saved_bytes(compiled_lenet(nn::ConvAlgo::kIm2row, rng));
  EXPECT_NO_THROW(loaded_from(bytes));  // sanity: intact artifact loads
  // Declare 16 extra payload bytes (header offset 8 holds payload_bytes as a
  // little-endian u64) and append them: the stage list then fails to consume
  // the full payload. The checksum guard fires first unless we recompute it,
  // so corrupting only the size field must still reject — via either check.
  std::string padded = bytes + std::string(16, '\0');
  auto declared = static_cast<std::uint64_t>(bytes.size() - (4 + 4 + 8 + 8)) + 16;
  for (int i = 0; i < 8; ++i) {
    padded[8 + i] = static_cast<char>((declared >> (8 * i)) & 0xFF);
  }
  EXPECT_THROW(loaded_from(padded), std::runtime_error);
}

// ---- golden fixtures ----------------------------------------------------------

// Checked-in artifacts, each with a pinned input and the logits it must
// produce (tests/data/<stem>.wam, <stem>_input.bin, <stem>_logits.bin):
//  - golden_handwired: a hand-wired graph covering both conv kinds, integer
//    batch-norm, a residual join, pooling and a linear head, saved
//    unoptimized (no epilogues, no memory plan);
//  - golden_resnet18_f2: an optimized F(2,3) Winograd ResNet-18 with
//    per-tensor stage scales, saved with its memory plan;
//  - golden_resnet18_f4_pertap: an optimized ResNet-18 whose Winograd
//    stages (F4, and F2 in the last stage) carry per-tap scale vectors,
//    saved with its memory plan.
// A reader, writer or kernel change that moves any of these logits has
// changed what a deployed artifact means.
struct GoldenFixture {
  const char* stem;
  std::size_t stages;
  bool planned;  // saved optimized, with its memory plan
  bool per_tap;  // Winograd stages carry t²-entry tap-scale vectors
};

constexpr GoldenFixture kGoldenFixtures[] = {
    {"golden_handwired", 8, false, false},
    {"golden_resnet18_f2", 37, true, false},
    {"golden_resnet18_f4_pertap", 37, true, true},
};

std::string fixture_path(const std::string& name) {
  return std::string(WA_SOURCE_DIR) + "/tests/data/" + name;
}

Tensor load_fixture_tensor(const std::string& name) {
  std::ifstream is(fixture_path(name), std::ios::binary);
  EXPECT_TRUE(is.good()) << "missing fixture " << name;
  return load_tensor(is);
}

TEST(WamArtifact, GoldenFixturesLoadBitExactly) {
  for (const GoldenFixture& f : kGoldenFixtures) {
    SCOPED_TRACE(f.stem);
    const std::string stem = f.stem;
    const PerfSnapshot before = snapshot_counters();
    const Int8Pipeline pipe = load_pipeline(fixture_path(stem + ".wam"));
    EXPECT_EQ(snapshot_counters(), before) << "load must not rebuild any weight cache";
    EXPECT_EQ(pipe.size(), f.stages);
    EXPECT_EQ(pipe.plan() != nullptr, f.planned);

    std::size_t wino_stages = 0;
    for (const auto& node : pipe.nodes()) {
      const auto* st = std::get_if<ConvStage>(&node.op);
      if (st == nullptr || st->wino_cache.empty()) continue;
      const std::size_t taps =
          f.per_tap ? static_cast<std::size_t>(st->transforms.tile * st->transforms.tile) : 0;
      EXPECT_FALSE(st->wino_cache.u_blocked.empty());
      EXPECT_EQ(st->stage_scales.weights_transformed_taps.size(), taps);
      EXPECT_EQ(st->stage_scales.input_transformed_taps.size(), taps);
      EXPECT_EQ(st->stage_scales.hadamard_taps.size(), taps);
      EXPECT_EQ(st->wino_cache.tap_scales.size(), taps);
      ++wino_stages;
    }
    EXPECT_GT(wino_stages, 0u) << "every golden fixture must contain Winograd stages";

    const Tensor input = load_fixture_tensor(stem + "_input.bin");
    const Tensor want = load_fixture_tensor(stem + "_logits.bin");
    const Tensor got = pipe.run(input);
    ASSERT_EQ(got.shape(), want.shape());
    EXPECT_EQ(Tensor::max_abs_diff(got, want), 0.F) << "the artifact's logits moved";
  }
}

TEST(WamArtifact, GoldenFixturesSurviveRewrite) {
  // Loading and re-saving an artifact reproduces its bytes exactly: nothing
  // is dropped, re-derived or re-ordered on the way through memory.
  for (const GoldenFixture& f : kGoldenFixtures) {
    SCOPED_TRACE(f.stem);
    const std::string path = fixture_path(std::string(f.stem) + ".wam");
    std::ifstream is(path, std::ios::binary);
    const std::string file_bytes((std::istreambuf_iterator<char>(is)),
                                 std::istreambuf_iterator<char>());
    EXPECT_EQ(saved_bytes(load_pipeline(path)), file_bytes);
  }
}

TEST(WamArtifact, GoldenHandwiredFixtureSurvivesOptimization) {
  Int8Pipeline pipe = load_pipeline(fixture_path("golden_handwired.wam"));
  const Tensor input = load_fixture_tensor("golden_handwired_input.bin");
  const Tensor want = load_fixture_tensor("golden_handwired_logits.bin");

  // Optimized (fusion + plan) it still means the same thing, and the plan
  // round-trips with it.
  deploy::passes::OptimizeOptions opts;
  opts.reference_input = input.shape();
  deploy::passes::optimize_pipeline(pipe, opts);
  ASSERT_NE(pipe.plan(), nullptr);
  const Int8Pipeline opt_loaded = loaded_from(saved_bytes(pipe));
  ASSERT_NE(opt_loaded.plan(), nullptr);
  EXPECT_EQ(opt_loaded.plan()->peak_bytes, pipe.plan()->peak_bytes);
  EXPECT_EQ(opt_loaded.plan()->in_place, pipe.plan()->in_place);
  EXPECT_EQ(Tensor::max_abs_diff(opt_loaded.run(input), want), 0.F);
}

// ---- compiler output pins ---------------------------------------------------
//
// What each zoo compiler emits, pinned byte for byte: the stages, their order,
// labels, slots, scales and prepared weights. The models take integer-generated
// parameters and run their training-mode forwards on the scalar kernel table,
// which keeps libm (bar sqrt, which IEEE rounds exactly) and fused multiply-adds
// out of the path, so the pins hold on any x86-64 host at any team size. They
// also pin the QAT forward's bits on that table; a change that alters either on
// purpose re-takes them.

/// Overwrites every named tensor except the Winograd transforms (`*_mat`) from
/// BitGen{seed} at scale 0.25, batch-norm gamma and running variance at 1 plus
/// that value (so no variance reaches the compiler negative), runs three
/// training-mode forwards over BitGen{seed + 1} inputs and hashes the compiled
/// pipeline's .wam bytes.
template <class Model>
std::uint64_t compiled_bytes_hash(Model& net, std::uint64_t seed, const Shape& input,
                                  Int8Pipeline (*compile)(Model&)) {
  test_support::BitGen params{seed}, inputs{seed + 1};
  for (auto& [name, p] : net.named_parameters()) {
    if (name.ends_with("_mat")) continue;
    const float base = name.ends_with("gamma") || name.ends_with("running_var") ? 1.F : 0.F;
    for (float& v : p.value().data()) v = base + params.next(0.25F);
  }
  net.set_training(true);
  for (int i = 0; i < 3; ++i) net.forward(ag::Variable(inputs.tensor(input, 1.F), false));
  const std::string bytes = saved_bytes(compile(net));
  return test_support::fnv_bytes(test_support::kFnvOffset, bytes.data(), bytes.size());
}

TEST(WamArtifact, GoldenCompilerOutputsMatchPinnedHashes) {
  using nn::ConvAlgo;
  const Shape cifar{4, 3, 32, 32};
  const auto lenet = [](ConvAlgo algo) {
    Rng rng(1);
    models::LeNetConfig cfg;
    cfg.algo = algo;
    cfg.qspec = quant::QuantSpec{8};
    models::LeNet5 net(cfg, rng);
    return compiled_bytes_hash(net, 11, {4, 1, 28, 28}, deploy::compile_lenet);
  };
  const auto resnet18 = [&](ConvAlgo algo, bool per_tap_flex) {
    Rng rng(2);
    models::ResNetConfig cfg;
    cfg.width_mult = 0.125F;
    cfg.algo = algo;
    cfg.qspec = quant::QuantSpec{8};
    cfg.flex_transforms = per_tap_flex;
    cfg.tap_group_size = per_tap_flex ? 1 : 0;
    models::ResNet18 net(cfg, rng);
    return compiled_bytes_hash(net, 21, cifar, deploy::compile_resnet18);
  };
  const auto squeezenet = [&](ConvAlgo algo) {
    Rng rng(3);
    models::SqueezeNetConfig cfg;
    cfg.width_mult = 0.25F;
    cfg.algo = algo;
    cfg.qspec = quant::QuantSpec{8};
    models::SqueezeNet net(cfg, rng);
    return compiled_bytes_hash(net, 31, cifar, deploy::compile_squeezenet);
  };
  const auto resnext = [&](ConvAlgo algo) {
    Rng rng(4);
    models::ResNeXtConfig cfg;
    cfg.width_mult = 0.25F;
    cfg.algo = algo;
    cfg.qspec = quant::QuantSpec{8};
    models::ResNeXt20 net(cfg, rng);
    return compiled_bytes_hash(net, 41, cifar, deploy::compile_resnext);
  };

  struct Pin {
    const char* config;
    std::uint64_t got, want;
  };
  const std::string caller = backend::simd::active_backend();
  ASSERT_TRUE(backend::simd::set_backend("scalar"));
  const Pin pins[] = {
      {"LeNet-5 F2", lenet(ConvAlgo::kWinograd2), 0x967e9e36ebf17912ULL},
      {"ResNet-18 w0.125 im2row", resnet18(ConvAlgo::kIm2row, false), 0x51d4c35823c9bea0ULL},
      {"ResNet-18 w0.125 F4 per-tap flex", resnet18(ConvAlgo::kWinograd4, true),
       0xe1676ed5a8aa5cebULL},
      {"SqueezeNet w0.25 im2row", squeezenet(ConvAlgo::kIm2row), 0x3b5afe1ea72c5e23ULL},
      {"SqueezeNet w0.25 F2", squeezenet(ConvAlgo::kWinograd2), 0x0ba5e29f2eb0c111ULL},
      {"ResNeXt-20 w0.25 im2row", resnext(ConvAlgo::kIm2row), 0xfdb0b233332d0fd8ULL},
      {"ResNeXt-20 w0.25 F2", resnext(ConvAlgo::kWinograd2), 0xe2e8d3cb35028044ULL},
  };
  backend::simd::set_backend(caller);
  for (const Pin& p : pins) {
    EXPECT_EQ(p.got, p.want) << p.config << ": 0x" << std::hex << p.got;
  }
}

// ---- plan round trip and corrupted-plan rejection ---------------------------

std::uint64_t test_fnv1a64(const char* data, std::size_t n) {
  std::uint64_t h = 14695981039346656037ULL;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 1099511628211ULL;
  }
  return h;
}

constexpr std::size_t kHeaderBytes = 4 + 4 + 8 + 8;

/// Re-seal a tampered artifact: recompute the payload checksum so the
/// corruption reaches the PLAN validator instead of the checksum guard.
void reseal(std::string& bytes) {
  const std::uint64_t sum = test_fnv1a64(bytes.data() + kHeaderBytes, bytes.size() - kHeaderBytes);
  for (int i = 0; i < 8; ++i) bytes[16 + i] = static_cast<char>((sum >> (8 * i)) & 0xFF);
}

TEST(WamArtifact, RoundTripPreservesEpiloguesAndPlan) {
  Rng rng(39);
  Int8Pipeline pipe = compiled_resnet18(nn::ConvAlgo::kWinograd2, rng);
  deploy::passes::OptimizeOptions opts;
  opts.reference_input = {2, 3, 32, 32};
  const auto report = deploy::passes::optimize_pipeline(pipe, opts);
  ASSERT_GT(report.fused_stages, 0u);
  ASSERT_NE(pipe.plan(), nullptr);

  const PerfSnapshot before = snapshot_counters();
  const Int8Pipeline loaded = loaded_from(saved_bytes(pipe));
  EXPECT_EQ(snapshot_counters(), before);
  ASSERT_EQ(loaded.size(), pipe.size());
  ASSERT_NE(loaded.plan(), nullptr);
  EXPECT_EQ(loaded.plan()->peak_bytes, pipe.plan()->peak_bytes);
  EXPECT_EQ(loaded.plan()->naive_peak_bytes, pipe.plan()->naive_peak_bytes);
  EXPECT_EQ(loaded.plan()->in_place, pipe.plan()->in_place);

  const Tensor x = Tensor::randn({3, 3, 32, 32}, rng);
  deploy::RunStats a{}, b{};
  const Tensor want = pipe.run(x, nullptr, &a);
  const Tensor got = loaded.run(x, nullptr, &b);
  EXPECT_EQ(Tensor::max_abs_diff(got, want), 0.F);
  EXPECT_EQ(a.peak_activation_bytes, b.peak_activation_bytes)
      << "the loaded plan must reproduce the planned memory behavior";
}

// ---- the pre-blocked Winograd U cache --------------------------------------

TEST(WamArtifact, RoundTripCarriesTheBlockedUCacheVerbatim) {
  // The saver writes u_blocked, the stage's one U; the reader must
  // deserialize it (counters stay flat — the round-trip tests above pin
  // that), byte-identical to the compiled original, so the loaded pipeline
  // starts on the fused streaming path with zero repacking.
  Rng rng(41);
  const Int8Pipeline pipe = compiled_resnet18(nn::ConvAlgo::kWinograd2, rng);
  const Int8Pipeline loaded = loaded_from(saved_bytes(pipe));
  ASSERT_EQ(loaded.size(), pipe.size());
  std::size_t wino_stages = 0;
  for (std::size_t i = 0; i < pipe.size(); ++i) {
    const auto* want = std::get_if<ConvStage>(&pipe.nodes()[i].op);
    if (want == nullptr || want->wino_cache.empty()) continue;
    const auto* got = std::get_if<ConvStage>(&loaded.nodes()[i].op);
    ASSERT_NE(got, nullptr);
    EXPECT_FALSE(want->wino_cache.u_blocked.empty())
        << "stage " << i << ": compile must pre-block the Winograd U";
    EXPECT_EQ(got->wino_cache.u_blocked, want->wino_cache.u_blocked);
    EXPECT_EQ(got->wino_cache.in_channels, want->wino_cache.in_channels);
    ++wino_stages;
  }
  EXPECT_GT(wino_stages, 0u) << "the fixture model must exercise Winograd stages";
}

// ---- per-tap scale vectors --------------------------------------------------

TEST(WamArtifact, RoundTripCarriesPerTapScaleVectorsVerbatim) {
  // A fully tap-wise F4 pipeline (one scale per transform-domain tap): the
  // saver writes the U/V/M tap vectors and the per-tap U-cache scales; the
  // loader must bring every entry back bit-exactly, and the loaded pipeline
  // must produce the same bytes.
  Rng rng(42);
  const Int8Pipeline pipe = compiled_resnet18(nn::ConvAlgo::kWinograd4, rng, /*tap_group_size=*/1);

  const PerfSnapshot before = snapshot_counters();
  const Int8Pipeline loaded = loaded_from(saved_bytes(pipe));
  EXPECT_EQ(snapshot_counters(), before) << "load must not rebuild any weight cache";
  ASSERT_EQ(loaded.size(), pipe.size());

  std::size_t per_tap_stages = 0;
  for (std::size_t i = 0; i < pipe.size(); ++i) {
    const auto* want = std::get_if<ConvStage>(&pipe.nodes()[i].op);
    if (want == nullptr || want->wino_cache.empty()) continue;
    const auto* got = std::get_if<ConvStage>(&loaded.nodes()[i].op);
    ASSERT_NE(got, nullptr);
    const std::int64_t t2 = want->transforms.tile * want->transforms.tile;
    ASSERT_EQ(static_cast<std::int64_t>(want->stage_scales.weights_transformed_taps.size()), t2)
        << "stage " << i << ": per-tap compile must emit a full U tap vector";
    EXPECT_EQ(got->stage_scales.weights_transformed_taps,
              want->stage_scales.weights_transformed_taps);
    EXPECT_EQ(got->stage_scales.input_transformed_taps, want->stage_scales.input_transformed_taps);
    EXPECT_EQ(got->stage_scales.hadamard_taps, want->stage_scales.hadamard_taps);
    EXPECT_EQ(got->wino_cache.tap_scales, want->wino_cache.tap_scales);
    EXPECT_EQ(got->wino_cache.u_blocked, want->wino_cache.u_blocked);
    ++per_tap_stages;
  }
  EXPECT_GT(per_tap_stages, 0u) << "the fixture model must exercise per-tap Winograd stages";

  const Tensor x = Tensor::randn({3, 3, 32, 32}, rng);
  EXPECT_EQ(Tensor::max_abs_diff(loaded.run(x), pipe.run(x)), 0.F);
  EXPECT_EQ(snapshot_counters(), before);
}

TEST(WamArtifact, RejectsInconsistentTapVectors) {
  // A checksum-valid artifact whose U tap vector disagrees with the cached
  // U's tap scales (or carries a wrong-sized / non-positive vector) must be
  // rejected at load — the executor trusts these unchecked.
  Rng rng(43);
  const Int8Pipeline pipe = compiled_resnet18(nn::ConvAlgo::kWinograd4, rng, /*tap_group_size=*/1);
  const std::string bytes = saved_bytes(pipe);
  EXPECT_NO_THROW(loaded_from(bytes));  // sanity: intact artifact loads

  // Find the first per-tap U stage-scale vector in the payload byte stream by
  // searching for its exact float pattern, then perturb one entry.
  const ConvStage* wino = nullptr;
  for (const auto& node : pipe.nodes()) {
    if (const auto* st = std::get_if<ConvStage>(&node.op);
        st != nullptr && !st->wino_cache.empty()) {
      wino = st;
      break;
    }
  }
  ASSERT_NE(wino, nullptr);
  ASSERT_FALSE(wino->stage_scales.weights_transformed_taps.empty());
  const auto& taps = wino->stage_scales.weights_transformed_taps;
  const std::string needle(reinterpret_cast<const char*>(taps.data()),
                           taps.size() * sizeof(float));
  const std::size_t pos = bytes.find(needle);
  ASSERT_NE(pos, std::string::npos);
  std::string corrupt = bytes;
  const float bumped = taps.front() * 2.F;
  std::memcpy(corrupt.data() + pos, &bumped, sizeof(float));
  reseal(corrupt);
  try {
    loaded_from(corrupt);
    FAIL() << "expected runtime_error for the inconsistent tap vector";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("tap"), std::string::npos) << e.what();
  }
}

TEST(WamArtifact, RejectsCorruptedPlanSection) {
  Rng rng(40);
  Int8Pipeline pipe = compiled_lenet(nn::ConvAlgo::kIm2row, rng);
  deploy::passes::OptimizeOptions opts;
  opts.reference_input = {1, 1, 28, 28};
  deploy::passes::optimize_pipeline(pipe, opts);
  ASSERT_NE(pipe.plan(), nullptr);
  const std::string bytes = saved_bytes(pipe);
  const std::size_t stages = pipe.size();
  EXPECT_NO_THROW(loaded_from(bytes));  // sanity: intact artifact loads

  // The plan tail layout (docs/WAM_FORMAT.md): [in_place len u64][marks
  // stages][peak i64][naive i64]. Both corruptions below keep the
  // artifact checksummed-valid, so the PLAN validator must reject them.
  {
    std::string corrupt = bytes;  // negative byte total
    for (std::size_t i = corrupt.size() - 8; i < corrupt.size(); ++i) {
      corrupt[i] = static_cast<char>(0xFF);
    }
    reseal(corrupt);
    try {
      loaded_from(corrupt);
      FAIL() << "expected runtime_error for the corrupted plan";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("plan"), std::string::npos) << e.what();
    }
  }
  {
    std::string corrupt = bytes;  // in_place mark out of range
    corrupt[corrupt.size() - 16 - stages] = static_cast<char>(9);
    reseal(corrupt);
    try {
      loaded_from(corrupt);
      FAIL() << "expected runtime_error for the corrupted plan";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("plan"), std::string::npos) << e.what();
    }
  }
  // And without resealing, the checksum guard still fires first.
  {
    std::string corrupt = bytes;
    corrupt[corrupt.size() - 1] = static_cast<char>(corrupt.back() ^ 0x5A);
    EXPECT_THROW(loaded_from(corrupt), std::runtime_error);
  }
}

// ---- hand-built graph with explicit slots -----------------------------------

TEST(WamArtifact, HandWiredResidualGraphRoundTrips) {
  Rng rng(38);
  const auto conv = [&rng](std::int64_t in_ch, std::int64_t out_ch, float in_s, float out_s,
                           bool relu, std::int64_t kernel, std::int64_t pad) {
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
  };
  const auto io = [](const char* in, const char* in2, const char* out, const char* label) {
    StageIO o;
    o.input = in;
    o.input2 = in2;
    o.output = out;
    o.label = label;
    return o;
  };

  Int8Pipeline pipe;
  pipe.push(conv(3, 4, 0.05F, 0.1F, true, 3, 1), io("", "", "x", "stem"));
  pipe.push(conv(4, 6, 0.1F, 0.12F, false, 1, 0), io("x", "", "skip", "proj"));
  pipe.push(conv(4, 6, 0.1F, 0.09F, false, 3, 1), io("x", "", "", "main"));
  AddStage add;
  add.lhs_scale = 0.09F;
  add.rhs_scale = 0.12F;
  add.output_scale = 0.08F;
  add.relu_after = true;
  pipe.push(std::move(add), io("", "skip", "", "join"));
  // The standalone relu and requant tags ride along on the chained output.
  pipe.push(deploy::ReluStage{}, io("", "", "", "relu"));
  deploy::RequantStage requant;
  requant.input_scale = 0.08F;
  requant.output_scale = 0.05F;
  pipe.push(std::move(requant), io("", "", "", "requant"));

  const Int8Pipeline loaded = loaded_from(saved_bytes(pipe));
  ASSERT_EQ(loaded.size(), pipe.size());
  EXPECT_TRUE(std::holds_alternative<deploy::ReluStage>(loaded.nodes()[4].op));
  EXPECT_TRUE(std::holds_alternative<deploy::RequantStage>(loaded.nodes()[5].op));
  const Tensor x = Tensor::randn({2, 3, 8, 8}, rng);
  EXPECT_EQ(Tensor::max_abs_diff(loaded.run(x), pipe.run(x)), 0.F);
}

// ---- the model-zoo stage shapes --------------------------------------------

StageIO make_io(const char* in, const char* in2, const char* out, const char* label) {
  StageIO io;
  io.input = in;
  io.input2 = in2;
  io.output = out;
  io.label = label;
  return io;
}

TEST(WamArtifact, RoundTripCarriesGroupedCachesVerbatim) {
  // Grouped im2row and grouped Winograd conv stages: the loader must bring
  // back the groups field and the per-group caches byte-identically, with
  // the counters flat and the loaded pipeline bit-exact.
  Rng rng(60);
  Int8Pipeline pipe;
  {
    ConvStage st;  // grouped 3x3 im2row, 6ch -> 8ch in 2 groups
    st.algo = nn::ConvAlgo::kIm2row;
    st.in_channels = 6;
    st.out_channels = 8;
    st.kernel = 3;
    st.pad = 1;
    st.groups = 2;
    st.input_scale = 0.05F;
    st.output_scale = 0.08F;
    st.relu_after = true;
    st.weights_q = backend::quantize_s8(Tensor::randn({8, 3, 3, 3}, rng, 0.3F));
    pipe.push(std::move(st), make_io("", "", "", "g-im2row"));
  }
  {
    ConvStage st;  // grouped F(2,3) Winograd, 8ch -> 4ch in 2 groups
    st.algo = nn::ConvAlgo::kWinograd2;
    st.in_channels = 8;
    st.out_channels = 4;
    st.kernel = 3;
    st.pad = 1;
    st.groups = 2;
    st.input_scale = 0.08F;
    st.output_scale = 0.09F;
    st.weights_f = Tensor::randn({4, 4, 3, 3}, rng, 0.3F);
    st.transforms = wino::make_transforms(2, 3);
    st.stage_scales.weights_transformed = 0.02F;
    st.stage_scales.input_transformed = 0.05F;
    st.stage_scales.hadamard = 0.1F;
    st.stage_scales.output = 0.09F;
    pipe.push(std::move(st), make_io("", "", "", "g-wino"));
  }

  const PerfSnapshot before = snapshot_counters();
  const Int8Pipeline loaded = loaded_from(saved_bytes(pipe));
  EXPECT_EQ(snapshot_counters(), before) << "load must not rebuild any weight cache";
  ASSERT_EQ(loaded.size(), pipe.size());

  const auto* want_gemm = std::get_if<ConvStage>(&pipe.nodes()[0].op);
  const auto* got_gemm = std::get_if<ConvStage>(&loaded.nodes()[0].op);
  ASSERT_NE(got_gemm, nullptr);
  EXPECT_EQ(got_gemm->groups, 2);
  EXPECT_EQ(got_gemm->im2row_cache.groups, 2);
  EXPECT_EQ(got_gemm->im2row_cache.out_channels, want_gemm->im2row_cache.out_channels)
      << "im2row out_channels is per-group";
  EXPECT_EQ(got_gemm->im2row_cache.patch, want_gemm->im2row_cache.patch);
  EXPECT_EQ(got_gemm->im2row_cache.wt, want_gemm->im2row_cache.wt);

  const auto* want_wino = std::get_if<ConvStage>(&pipe.nodes()[1].op);
  const auto* got_wino = std::get_if<ConvStage>(&loaded.nodes()[1].op);
  ASSERT_NE(got_wino, nullptr);
  EXPECT_EQ(got_wino->groups, 2);
  EXPECT_EQ(got_wino->wino_cache.groups, 2);
  EXPECT_EQ(got_wino->wino_cache.in_channels, want_wino->wino_cache.in_channels)
      << "wino in_channels is per-group (C/g)";
  EXPECT_EQ(got_wino->wino_cache.u_blocked, want_wino->wino_cache.u_blocked);

  const Tensor x = Tensor::randn({2, 6, 12, 12}, rng);
  EXPECT_EQ(Tensor::max_abs_diff(loaded.run(x), pipe.run(x)), 0.F);
  EXPECT_EQ(snapshot_counters(), before);
}

TEST(WamArtifact, RoundTripCarriesTheStridedPolyphaseCacheVerbatim) {
  // A stride-2 Winograd stage serializes as cache kind 2: the F(m,2) u00
  // cache plus the rect-phase im2row weights. Every byte must come back.
  // 3->5 channels sit below the selection crossover, so the stage builds its
  // polyphase cache before push(): the subject here is the kind-2 wire
  // format, not the cost model.
  Rng rng(61);
  Int8Pipeline pipe;
  {
    ConvStage st;
    st.algo = nn::ConvAlgo::kWinograd2;
    st.in_channels = 3;
    st.out_channels = 5;
    st.kernel = 3;
    st.pad = 1;
    st.stride = 2;
    st.input_scale = 0.05F;
    st.output_scale = 0.08F;
    st.weights_f = Tensor::randn({5, 3, 3, 3}, rng, 0.3F);
    st.transforms = wino::make_transforms(2, 3);  // prepare_polyphase() swaps in F(2,2)
    st.stage_scales.weights_transformed = 0.02F;
    st.stage_scales.output = 0.08F;
    st.bias = Tensor::randn({5}, rng, 0.1F);
    st.prepare_polyphase();
    pipe.push(std::move(st), make_io("", "", "", "strided"));
  }
  const auto* want = std::get_if<ConvStage>(&pipe.nodes()[0].op);
  ASSERT_NE(want, nullptr);
  ASSERT_FALSE(want->strided_cache.empty()) << "stride-2 Winograd fell back to im2row";

  const PerfSnapshot before = snapshot_counters();
  const Int8Pipeline loaded = loaded_from(saved_bytes(pipe));
  EXPECT_EQ(snapshot_counters(), before) << "load must not rebuild any weight cache";
  const auto* got = std::get_if<ConvStage>(&loaded.nodes()[0].op);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->stride, 2);
  ASSERT_FALSE(got->strided_cache.empty());
  EXPECT_EQ(got->transforms.r, 2) << "the strided stage loads with its canonical F(m,2) set";
  EXPECT_EQ(got->strided_cache.u00.u_blocked, want->strided_cache.u00.u_blocked);
  EXPECT_EQ(got->strided_cache.u00.scale, want->strided_cache.u00.scale);
  EXPECT_EQ(got->strided_cache.rect_wt, want->strided_cache.rect_wt);
  EXPECT_EQ(got->strided_cache.rect_scale, want->strided_cache.rect_scale);

  const Tensor x = Tensor::randn({2, 3, 11, 11}, rng);
  EXPECT_EQ(Tensor::max_abs_diff(loaded.run(x), pipe.run(x)), 0.F);
  EXPECT_EQ(snapshot_counters(), before);
}

TEST(WamArtifact, RoundTripCarriesTheSparseTapMaskVerbatim) {
  // A Winograd stage pruned by a whole-tap-zero mask caches tap_mask != {};
  // the loaded stage must skip the same taps (same mask, same zeroed levels,
  // same bytes out).
  Rng rng(62);
  const std::int64_t in_ch = 4, out_ch = 4, t = 4;  // F(2,3): tile 4
  Int8Pipeline pipe;
  {
    ConvStage st;
    st.algo = nn::ConvAlgo::kWinograd2;
    st.in_channels = in_ch;
    st.out_channels = out_ch;
    st.kernel = 3;
    st.pad = 1;
    st.input_scale = 0.05F;
    st.output_scale = 0.08F;
    st.weights_f = Tensor::randn({out_ch, in_ch, 3, 3}, rng, 0.3F);
    st.transforms = wino::make_transforms(2, 3);
    st.stage_scales.weights_transformed = 0.02F;
    st.stage_scales.input_transformed = 0.05F;
    st.stage_scales.hadamard = 0.1F;
    st.stage_scales.output = 0.08F;
    // Kill taps 5 and 10 outright, plus one (k, c) slice of tap 0.
    Tensor mask(Shape{1, t * t, out_ch, in_ch});
    for (std::int64_t i = 0; i < mask.numel(); ++i) mask.at(i) = 1.F;
    for (std::int64_t i = 0; i < out_ch * in_ch; ++i) {
      mask.at(5 * out_ch * in_ch + i) = 0.F;
      mask.at(10 * out_ch * in_ch + i) = 0.F;
    }
    mask.at(0) = 0.F;
    st.sparse_mask = std::move(mask);
    pipe.push(std::move(st), make_io("", "", "", "sparse"));
  }
  const auto* want = std::get_if<ConvStage>(&pipe.nodes()[0].op);
  ASSERT_NE(want, nullptr);
  ASSERT_EQ(static_cast<std::int64_t>(want->wino_cache.tap_mask.size()), t * t)
      << "whole-tap-dead slices must materialize the skip mask";
  EXPECT_EQ(want->wino_cache.tap_mask[5], 1);
  EXPECT_EQ(want->wino_cache.tap_mask[10], 1);
  EXPECT_EQ(want->wino_cache.tap_mask[0], 0) << "a partially dead tap is not skippable";

  const PerfSnapshot before = snapshot_counters();
  const Int8Pipeline loaded = loaded_from(saved_bytes(pipe));
  EXPECT_EQ(snapshot_counters(), before) << "load must not rebuild any weight cache";
  const auto* got = std::get_if<ConvStage>(&loaded.nodes()[0].op);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->wino_cache.tap_mask, want->wino_cache.tap_mask);
  EXPECT_EQ(got->wino_cache.u_blocked, want->wino_cache.u_blocked);

  const Tensor x = Tensor::randn({2, in_ch, 12, 12}, rng);
  EXPECT_EQ(Tensor::max_abs_diff(loaded.run(x), pipe.run(x)), 0.F);
}

TEST(WamArtifact, HandWiredConcatGraphRoundTrips) {
  // A fire-style fan-out/concat graph: stem publishes, two expand branches
  // read it, a kConcat stage joins them. The writer serializes the concat
  // stage; the loaded graph must produce the same bytes.
  Rng rng(63);
  const auto conv = [&rng](std::int64_t in_ch, std::int64_t out_ch, float in_s, float out_s,
                           bool relu, std::int64_t kernel, std::int64_t pad) {
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
  };

  Int8Pipeline pipe;
  pipe.push(conv(3, 4, 0.05F, 0.1F, true, 3, 1), make_io("", "", "s", "squeeze"));
  pipe.push(conv(4, 6, 0.1F, 0.12F, false, 1, 0), make_io("s", "", "e1", "expand1"));
  pipe.push(conv(4, 6, 0.1F, 0.09F, false, 3, 1), make_io("s", "", "", "expand3"));
  ConcatStage cat;
  cat.lhs_scale = 0.09F;
  cat.rhs_scale = 0.12F;
  cat.output_scale = 0.08F;
  cat.relu_after = true;
  pipe.push(std::move(cat), make_io("", "e1", "", "join"));

  const Int8Pipeline loaded = loaded_from(saved_bytes(pipe));
  ASSERT_EQ(loaded.size(), pipe.size());
  const auto* got = std::get_if<ConcatStage>(&loaded.nodes()[3].op);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->lhs_scale, 0.09F);
  EXPECT_EQ(got->rhs_scale, 0.12F);
  EXPECT_EQ(got->output_scale, 0.08F);
  EXPECT_TRUE(got->relu_after);
  const Tensor x = Tensor::randn({2, 3, 8, 8}, rng);
  EXPECT_EQ(Tensor::max_abs_diff(loaded.run(x), pipe.run(x)), 0.F);
}

TEST(WamArtifact, RejectsCorruptedZooFields) {
  // Checksum-valid artifacts whose zoo fields are internally inconsistent
  // must be rejected by the field validators, not executed. The payload
  // offsets below follow docs/WAM_FORMAT.md for a single-stage graph with
  // all-empty StageIO strings: header 24B, stage count 8B, four empty
  // strings 32B, stage tag 1B, algo 1B, then four i64 geometry fields
  // before groups (offset 98) and stride (offset 106); the cache-kind byte
  // sits after two f32 scales + relu byte + four f32 stage scales (139).
  constexpr std::size_t kGroupsOff = 24 + 8 + 32 + 1 + 1 + 4 * 8;
  constexpr std::size_t kStrideOff = kGroupsOff + 8;
  constexpr std::size_t kKindOff = kStrideOff + 8 + 4 + 4 + 1 + 4 * 4;

  Rng rng(65);
  Int8Pipeline pipe;
  {
    ConvStage st;  // dense stride-1 F(2,3) Winograd stage, kind byte = 1
    st.algo = nn::ConvAlgo::kWinograd2;
    st.in_channels = 4;
    st.out_channels = 4;
    st.kernel = 3;
    st.pad = 1;
    st.input_scale = 0.05F;
    st.output_scale = 0.08F;
    st.weights_f = Tensor::randn({4, 4, 3, 3}, rng, 0.3F);
    st.transforms = wino::make_transforms(2, 3);
    st.stage_scales.weights_transformed = 0.02F;
    st.stage_scales.output = 0.08F;
    pipe.push(std::move(st), StageIO{});
  }
  const std::string bytes = saved_bytes(pipe);
  EXPECT_NO_THROW(loaded_from(bytes));  // sanity: intact artifact loads
  ASSERT_EQ(static_cast<unsigned>(bytes[kKindOff]), 1u) << "offset map drifted";

  const auto expect_rejected = [&](std::size_t off, std::int64_t value, const char* needle) {
    std::string corrupt = bytes;
    std::memcpy(corrupt.data() + off, &value, sizeof(value));
    reseal(corrupt);
    try {
      loaded_from(corrupt);
      FAIL() << "expected runtime_error for corrupted field at offset " << off;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos) << e.what();
    }
  };
  // groups = 3 does not divide the 4-channel counts.
  expect_rejected(kGroupsOff, 3, "groups");
  // stride = 0 is not a convolution.
  expect_rejected(kStrideOff, 0, "stride");
  // stride = 2 on a kind-1 (dense Winograd) cache: the polyphase kind is 2.
  expect_rejected(kStrideOff, 2, "dense Winograd cache requires stride 1");
  {
    std::string corrupt = bytes;  // kind 0 (im2row) under a Winograd algo
    corrupt[kKindOff] = 0;
    reseal(corrupt);
    try {
      loaded_from(corrupt);
      FAIL() << "expected runtime_error for the flipped cache kind";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("kind"), std::string::npos) << e.what();
    }
  }
}

// ---- crafted Winograd transform sets ------------------------------------------

/// A one-stage F(2,3) Winograd artifact whose prepared stage `craft` edited
/// between prepare() and save: the writer serializes whatever it is handed,
/// so this is how a buggy or hostile writer produces a checksum-valid file.
/// Each craft below keeps every cache check of the loader satisfied, so only
/// the transform-set validation stands between the file and the executors.
std::string crafted_wino_artifact(const std::function<void(ConvStage&)>& craft) {
  Rng rng(66);
  ConvStage st;
  st.algo = nn::ConvAlgo::kWinograd2;
  st.in_channels = 4;
  st.out_channels = 4;
  st.kernel = 3;
  st.pad = 1;
  st.input_scale = 0.05F;
  st.output_scale = 0.08F;
  st.weights_f = Tensor::randn({4, 4, 3, 3}, rng, 0.3F);
  st.transforms = wino::make_transforms(2, 3);
  st.stage_scales.weights_transformed = 0.02F;
  st.stage_scales.input_transformed = 0.05F;
  st.stage_scales.hadamard = 0.1F;
  st.stage_scales.output = 0.08F;
  st.prepare();
  craft(st);
  Int8Pipeline pipe;
  pipe.push(std::move(st), StageIO{});
  return saved_bytes(pipe);
}

/// Replace the stage's transform set with zero matrices of the F(m, r) shapes
/// and resize its U cache to match a t = m + r - 1 tile.
void set_transform_shape(ConvStage& st, int m, int r) {
  const int t = m + r - 1;
  st.transforms.m = m;
  st.transforms.r = r;
  st.transforms.tile = t;
  st.transforms.g_mat = Tensor::zeros({t, r});
  st.transforms.bt_mat = Tensor::zeros({t, t});
  st.transforms.at_mat = Tensor::zeros({m, t});
  auto& u = st.wino_cache;
  u.tile = t;
  u.u_blocked.assign(static_cast<std::size_t>(t * t * u.out_channels * u.padded_in_channels()),
                     128);
}

void expect_load_rejected(const std::string& bytes, const std::string& needle) {
  try {
    loaded_from(bytes);
    FAIL() << "expected runtime_error naming '" << needle << "'";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos) << e.what();
  }
}

TEST(WamArtifact, RejectsTransformSetsOfTheWrongShape) {
  // Bᵀ and Aᵀ of shape [1, 1] under F(2,3): the scatter and gather kernels
  // would read [4, 4] and [2, 4] matrices past the end of the heap buffers.
  expect_load_rejected(crafted_wino_artifact([](ConvStage& st) {
                         st.transforms.bt_mat = Tensor::zeros({1, 1});
                         st.transforms.at_mat = Tensor::zeros({1, 1});
                       }),
                       "transform matrices disagree with F(2, 3)");
  // A tile field that is not m + r - 1.
  expect_load_rejected(
      crafted_wino_artifact([](ConvStage& st) { st.transforms.tile = 5; }),
      "tile 5 is not m + r - 1 for F(2, 3)");
}

TEST(WamArtifact, RejectsATileAboveTheSupportedMaximum) {
  // F(11,3) has tile 13 > wino::kMaxTile: the kernels' fixed-size tile
  // buffers on the stack would be overrun.
  expect_load_rejected(
      crafted_wino_artifact([](ConvStage& st) { set_transform_shape(st, 11, 3); }),
      "tile 13 exceeds the supported maximum 12");
}

TEST(WamArtifact, RejectsAZeroOutputTile) {
  // F(0,3): the executors count tiles by dividing the output extent by m.
  expect_load_rejected(
      crafted_wino_artifact([](ConvStage& st) { set_transform_shape(st, 0, 3); }),
      "F(0, 3) needs m >= 1");
}

// ---- crafted conv geometry ---------------------------------------------------

TEST(WamArtifact, RejectsConvSizesThatOverflowInt64) {
  // 2^40 channels on both sides: every equality check before the U-cache
  // size holds, and t*t*out*in = 2^84 would wrap (signed-overflow UB).
  constexpr std::int64_t kHuge = std::int64_t{1} << 40;
  expect_load_rejected(crafted_wino_artifact([](ConvStage& st) {
                         st.in_channels = kHuge;
                         st.out_channels = kHuge;
                         st.wino_cache.in_channels = kHuge;
                         st.wino_cache.out_channels = kHuge;
                       }),
                       "Winograd U cache size overflows int64");
}

TEST(WamArtifact, RejectsNonPositiveConvGeometry) {
  // A negative in/out pair, consistent between the stage and its cache: the
  // geometry check must name it before any cache size is formed from it.
  expect_load_rejected(crafted_wino_artifact([](ConvStage& st) {
                         st.in_channels = -4;
                         st.out_channels = -4;
                         st.wino_cache.in_channels = -4;
                         st.wino_cache.out_channels = -4;
                       }),
                       "conv in_channels must be positive");
  expect_load_rejected(crafted_wino_artifact([](ConvStage& st) { st.out_channels = 0; }),
                       "conv out_channels must be positive");
  expect_load_rejected(crafted_wino_artifact([](ConvStage& st) { st.kernel = 0; }),
                       "conv kernel must be positive");
  expect_load_rejected(crafted_wino_artifact([](ConvStage& st) { st.pad = -1; }),
                       "conv pad must not be negative");
}

}  // namespace
}  // namespace wa::serve
