// Conformance suite for the multi-backend SIMD dispatch layer
// (backend/simd/kernel_table.hpp), parametrized over every compiled-in
// backend (unavailable ISAs are skipped at runtime).
//
// Two layers of guarantees:
//   1. Kernel conformance: every dispatched kernel reproduces the scalar
//      reference exactly — random shapes, odd vector tails, saturation
//      edges, the shift regimes the vector requant code falls back on.
//   2. End-to-end bit-identity: a compiled LeNet-5 and ResNet-18 produce
//      bit-identical Int8Pipeline logits under every available backend.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "backend/conv_kernels_s8.hpp"
#include "backend/simd/kernel_table.hpp"
#include "deploy/pipeline.hpp"
#include "quant/requant.hpp"
#include "test_support.hpp"
#include "winograd/cook_toom.hpp"

namespace wa::backend::simd {
namespace {

std::vector<std::string> backend_names() {
  std::vector<std::string> names;
  for (const BackendDesc& b : registered_backends()) names.push_back(b.name);
  return names;
}

bool backend_available(const std::string& name) {
  for (const BackendDesc& b : registered_backends()) {
    if (b.name == name) return b.available;
  }
  return false;
}

class SimdBackendTest : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    previous_ = active_backend();
    if (!backend_available(GetParam())) {
      GTEST_SKIP() << "backend " << GetParam() << " is compiled in but this CPU cannot run it";
    }
    ASSERT_TRUE(set_backend(GetParam()));
  }
  void TearDown() override { set_backend(previous_); }

 private:
  std::string previous_;
};

// ---- registry ---------------------------------------------------------------

// MUST run first in this binary: its threads race through the one-time lazy
// resolution of the active table while it is still unresolved. ensure_active
// serializes that resolution with std::call_once; this test locks down the
// regression where two concurrent first users could each run pick_default
// and disagree about the active table (or one could observe a half-written
// pointer). Every thread must land on the same fully-resolved table.
TEST(SimdRegistry, AAConcurrentFirstUseResolvesExactlyOnce) {
  constexpr int kThreads = 8;
  std::vector<const KernelTable*> tables(kThreads, nullptr);
  std::vector<std::string> names(kThreads);
  {
    std::vector<std::thread> pool;
    pool.reserve(kThreads);
    for (int i = 0; i < kThreads; ++i) {
      pool.emplace_back([&tables, &names, i] {
        tables[static_cast<std::size_t>(i)] = &kernels();  // first call resolves
        names[static_cast<std::size_t>(i)] = active_backend();
      });
    }
    for (auto& th : pool) th.join();
  }
  for (int i = 1; i < kThreads; ++i) {
    EXPECT_EQ(tables[static_cast<std::size_t>(i)], tables[0]) << "thread " << i;
    EXPECT_EQ(names[static_cast<std::size_t>(i)], names[0]) << "thread " << i;
  }
  ASSERT_NE(tables[0], nullptr);
  EXPECT_NE(tables[0]->gemm_s8_s32, nullptr) << "winner published an unresolved table";
}

// Runs second, after the concurrent test above forced resolution: whichever
// thread won the call_once race, a WA_BACKEND pin must have been honored.
// This is what makes the CI jobs that pin WA_BACKEND=avx2 / WA_BACKEND=scalar
// fail loudly if the override ever regresses to a silent fallback.
TEST(SimdRegistry, AWaBackendEnvPinIsHonoredOnFirstResolution) {
  const char* env = std::getenv("WA_BACKEND");
  const std::string active = active_backend();  // forces resolution if first
  if (env != nullptr && *env != '\0' && backend_available(env)) {
    EXPECT_EQ(active, std::string(env))
        << "WA_BACKEND=" << env << " is available but was not selected";
  }
  // Pinned or not, the active table must be one of the available backends.
  const auto avail = available_backends();
  EXPECT_NE(std::find(avail.begin(), avail.end(), active), avail.end());
}

TEST(SimdRegistry, ScalarIsAlwaysFirstAndAvailable) {
  const auto regs = registered_backends();
  ASSERT_FALSE(regs.empty());
  EXPECT_EQ(regs.front().name, "scalar");
  EXPECT_TRUE(regs.front().available);
  const auto avail = available_backends();
  EXPECT_FALSE(avail.empty());
  EXPECT_EQ(avail.front(), "scalar");
}

TEST(SimdRegistry, UnknownBackendIsRejectedWithoutSideEffects) {
  const std::string before = active_backend();
  EXPECT_FALSE(set_backend("sse42-from-the-future"));
  EXPECT_EQ(active_backend(), before);
}

TEST(SimdRegistry, UnavailableBackendIsRejectedWithoutSideEffects) {
  // A backend that is compiled in but that this CPU cannot run (e.g. the
  // avx512 table on a pre-Ice-Lake host) must behave exactly like an unknown
  // name: set_backend refuses, the active table is untouched. The matching
  // WA_BACKEND=avx512 env path warns and falls back in pick_default; CI's
  // avx512 job exercises that on hosts without the ISA.
  const std::string before = active_backend();
  for (const BackendDesc& b : registered_backends()) {
    if (b.available) continue;
    EXPECT_FALSE(set_backend(b.name)) << b.name;
    EXPECT_EQ(active_backend(), before) << b.name;
  }
  EXPECT_EQ(active_backend(), before);
}

TEST(SimdRegistry, EveryResolvedEntryIsCallable) {
  // Per-kernel scalar fallback: even a backend that only accelerates the
  // GEMM must expose a full table.
  const std::string before = active_backend();
  for (const std::string& name : available_backends()) {
    ASSERT_TRUE(set_backend(name));
    const KernelTable& t = kernels();
    EXPECT_NE(t.gemm_s8_s32, nullptr);
    EXPECT_NE(t.gemm_f32_packed_nn, nullptr);
    EXPECT_NE(t.quantize_f32_s8, nullptr);
    EXPECT_NE(t.requant_s32_s8, nullptr);
    EXPECT_NE(t.residual_add_s8, nullptr);
    EXPECT_NE(t.wino_gather_f32, nullptr);
    EXPECT_NE(t.wino_scatter_block_f32, nullptr);
    EXPECT_NE(t.wino_scatter_q4_s8, nullptr);
    EXPECT_NE(t.gemm_u8s8_s32_k4, nullptr);
    EXPECT_NE(t.wino_gather_q_s8, nullptr);
  }
  set_backend(before);
}

// ---- kernel conformance -----------------------------------------------------

std::vector<std::int8_t> random_s8(Rng& rng, std::int64_t n, bool with_rails = true) {
  std::vector<std::int8_t> v(static_cast<std::size_t>(n));
  for (auto& x : v) {
    const double u = rng.uniform();
    if (with_rails && u < 0.05) {
      x = (u < 0.025) ? std::int8_t{127} : std::int8_t{-127};
    } else {
      x = static_cast<std::int8_t>(std::lround(rng.uniform() * 254.0 - 127.0));
    }
  }
  return v;
}

TEST_P(SimdBackendTest, GemmS8MatchesScalarOnRandomShapesAndTails) {
  Rng rng(91);
  // Shapes chosen to hit every tail: m % 4, n % 16 and k % 2 all nonzero
  // somewhere, plus degenerate 1s and GEMM-bound sizes.
  const std::int64_t shapes[][3] = {{1, 1, 1},   {1, 16, 2},  {3, 5, 7},    {4, 16, 8},
                                    {5, 17, 3},  {7, 48, 9},  {8, 33, 13},  {2, 15, 1},
                                    {13, 31, 27}, {64, 64, 32}, {16, 128, 65}, {33, 19, 40}};
  for (const auto& s : shapes) {
    const std::int64_t m = s[0], n = s[1], k = s[2];
    SCOPED_TRACE("m=" + std::to_string(m) + " n=" + std::to_string(n) + " k=" + std::to_string(k));
    const auto a = random_s8(rng, m * k);
    const auto b = random_s8(rng, k * n);
    std::vector<std::int32_t> got(static_cast<std::size_t>(m * n), -1);
    std::vector<std::int32_t> want(static_cast<std::size_t>(m * n), -2);
    kernels().gemm_s8_s32(m, n, k, a.data(), b.data(), got.data());
    scalar_kernels().gemm_s8_s32(m, n, k, a.data(), b.data(), want.data());
    EXPECT_EQ(got, want);
  }
}

TEST_P(SimdBackendTest, GemmS8SaturationHeadroom) {
  // All-rail operands at the longest k the engine meets (512 channels * 25
  // patch) stay far inside int32, and every backend agrees exactly.
  const std::int64_t m = 3, n = 17, k = 12800;
  std::vector<std::int8_t> a(static_cast<std::size_t>(m * k), std::int8_t{127});
  std::vector<std::int8_t> b(static_cast<std::size_t>(k * n), std::int8_t{-127});
  std::vector<std::int32_t> got(static_cast<std::size_t>(m * n));
  kernels().gemm_s8_s32(m, n, k, a.data(), b.data(), got.data());
  for (const std::int32_t v : got) EXPECT_EQ(v, -127 * 127 * k);
}

TEST_P(SimdBackendTest, QuantizeMatchesScalarIncludingSaturationAndTails) {
  Rng rng(92);
  for (const std::int64_t n : {std::int64_t{1}, std::int64_t{7}, std::int64_t{31},
                               std::int64_t{32}, std::int64_t{33}, std::int64_t{1023}}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    std::vector<float> src(static_cast<std::size_t>(n));
    for (std::size_t i = 0; i < src.size(); ++i) {
      switch (i % 9) {
        case 0: src[i] = static_cast<float>(rng.normal()) * 100.F; break;
        case 1: src[i] = static_cast<float>(rng.normal()) * 1e6F; break;  // saturates
        case 2: src[i] = static_cast<float>(rng.normal()) * 1e-6F; break;
        case 3: src[i] = 126.5F; break;   // round-to-even boundary
        case 4: src[i] = -127.5F; break;  // rounds to -128 pre-clamp in fp
        case 5: src[i] = 0.F; break;
        case 6:  // non-finite: every backend must clamp like the scalar
                 // reference (NaN -> -127 via std::max's argument order)
          src[i] = std::numeric_limits<float>::quiet_NaN();
          break;
        case 7:
          src[i] = (i % 2 != 0) ? std::numeric_limits<float>::infinity()
                                : -std::numeric_limits<float>::infinity();
          break;
        default: src[i] = static_cast<float>(rng.normal()); break;
      }
    }
    for (const float inv : {1.F, 0.37F, 113.7F, 1e-8F, 1e8F}) {
      std::vector<std::int8_t> got(src.size(), 99), want(src.size(), -99);
      kernels().quantize_f32_s8(src.data(), got.data(), n, inv);
      scalar_kernels().quantize_f32_s8(src.data(), want.data(), n, inv);
      EXPECT_EQ(got, want) << "inv_scale=" << inv;
    }
  }
}

TEST_P(SimdBackendTest, RequantMatchesScalarAcrossShiftRegimesAndRails) {
  Rng rng(93);
  std::vector<std::int32_t> acc;
  acc.push_back(0);
  acc.push_back(1);
  acc.push_back(-1);
  acc.push_back(std::numeric_limits<std::int32_t>::max());
  acc.push_back(std::numeric_limits<std::int32_t>::min());
  acc.push_back(std::numeric_limits<std::int32_t>::min() + 1);
  acc.push_back(127);
  acc.push_back(-128);
  while (acc.size() < 1031) {  // odd size: exercises the vector tail
    acc.push_back(static_cast<std::int32_t>(std::lround((rng.uniform() * 2.0 - 1.0) *
                                                        2147483000.0)));
  }
  // Ratios covering: vector path (shift 1..31), ratio >= 1 (shift <= 0,
  // scalar fallback), sub-2^-31 ratios (shift > 31, the historical UB bug).
  for (const double ratio : {1e-12, 1e-10, 4.7e-10, 1e-6, 1e-3, 0.25, 0.5, 0.77, 0.9999, 1.0,
                             1.0001, 2.0, 1e3, 1e9}) {
    SCOPED_TRACE("ratio=" + std::to_string(ratio));
    const auto mult = quant::quantize_multiplier(ratio);
    std::vector<std::int8_t> got(acc.size(), 5), want(acc.size(), -5);
    kernels().requant_s32_s8(acc.data(), got.data(), static_cast<std::int64_t>(acc.size()), mult);
    scalar_kernels().requant_s32_s8(acc.data(), want.data(),
                                    static_cast<std::int64_t>(acc.size()), mult);
    EXPECT_EQ(got, want);
  }
}

TEST_P(SimdBackendTest, WinogradGatherMatchesScalarOnEdgeTilesAndBias) {
  Rng rng(95);
  struct Cfg {
    int m, r;
    std::int64_t oh;
  };
  // oh not a multiple of m forces clipped edge tiles; oh = 4/16 exercises
  // the full-vector interior; oh = 34 a partial last vector group.
  for (const Cfg cfg : {Cfg{2, 3, 8}, Cfg{2, 3, 7}, Cfg{2, 3, 34}, Cfg{4, 3, 16}, Cfg{4, 3, 13},
                        Cfg{4, 5, 12}}) {
    SCOPED_TRACE("m=" + std::to_string(cfg.m) + " r=" + std::to_string(cfg.r) +
                 " oh=" + std::to_string(cfg.oh));
    const auto tr = wino::make_transforms(cfg.m, cfg.r);
    const std::int64_t t = tr.tile, m = tr.m;
    const std::int64_t th = (cfg.oh + m - 1) / m, tw = th;
    const std::int64_t tiles = th * tw;
    const auto levels = random_s8(rng, t * t * tiles);
    // Splat and per-tap M-scale vectors — the gather dequantizes each tap at
    // its own entry, so distinct entries catch any tap-index mix-up.
    std::vector<float> sm_splat(static_cast<std::size_t>(t * t), 0.0217F);
    std::vector<float> sm_taps(static_cast<std::size_t>(t * t));
    for (std::size_t ab = 0; ab < sm_taps.size(); ++ab) {
      sm_taps[ab] = 0.01F + 0.003F * static_cast<float>(ab);
    }
    for (const auto* sm : {&sm_splat, &sm_taps}) {
      for (const float bias : {0.F, -1.375F}) {
        std::vector<float> got(static_cast<std::size_t>(cfg.oh * cfg.oh), 1e9F);
        std::vector<float> want(static_cast<std::size_t>(cfg.oh * cfg.oh), -1e9F);
        kernels().wino_gather_f32(levels.data(), tiles, sm->data(), tr.at_mat.raw(), t, m, th, tw,
                                  cfg.oh, cfg.oh, bias, got.data());
        scalar_kernels().wino_gather_f32(levels.data(), tiles, sm->data(), tr.at_mat.raw(), t, m,
                                         th, tw, cfg.oh, cfg.oh, bias, want.data());
        for (std::size_t i = 0; i < got.size(); ++i) {
          ASSERT_EQ(got[i], want[i]) << "element " << i << " bias " << bias;
        }
      }
    }
  }
}

// ---- blocked-layout kernels (the fused Winograd streaming executor) ---------

TEST_P(SimdBackendTest, WinogradScatterBlockMatchesScalarOnTileRanges) {
  Rng rng(194);
  struct Cfg {
    int m, r;
    std::int64_t hw, pad;
  };
  for (const Cfg cfg : {Cfg{2, 3, 8, 1}, Cfg{2, 3, 7, 1}, Cfg{2, 3, 34, 1}, Cfg{4, 3, 13, 1},
                        Cfg{4, 3, 32, 1}, Cfg{2, 3, 6, 0}, Cfg{4, 5, 16, 2}}) {
    const auto tr = wino::make_transforms(cfg.m, cfg.r);
    const std::int64_t t = tr.tile, m = tr.m;
    const std::int64_t oh = cfg.hw + 2 * cfg.pad - cfg.r + 1;
    const std::int64_t th = (oh + m - 1) / m, tw = th;
    const std::int64_t tiles = th * tw;
    const auto plane = random_s8(rng, cfg.hw * cfg.hw);
    // Block starts that land mid-row, at row boundaries and on the last
    // partial block, mirroring how the streaming executor walks tile ranges;
    // the full-range block (bs = tiles) is the flat executor's call.
    for (const std::int64_t bs : {std::int64_t{1}, std::int64_t{3}, tiles}) {
      SCOPED_TRACE("m=" + std::to_string(cfg.m) + " hw=" + std::to_string(cfg.hw) +
                   " block=" + std::to_string(bs));
      for (std::int64_t tile0 = 0; tile0 < tiles; tile0 += bs) {
        const std::int64_t nt = std::min(bs, tiles - tile0);
        std::vector<float> got(static_cast<std::size_t>(t * t * nt), 1e9F);
        std::vector<float> want(static_cast<std::size_t>(t * t * nt), -1e9F);
        kernels().wino_scatter_block_f32(plane.data(), cfg.hw, cfg.hw, cfg.pad, 0.043F,
                                         tr.bt_mat.raw(), t, m, th, tw, tile0, nt, got.data(), nt);
        scalar_kernels().wino_scatter_block_f32(plane.data(), cfg.hw, cfg.hw, cfg.pad, 0.043F,
                                                tr.bt_mat.raw(), t, m, th, tw, tile0, nt,
                                                want.data(), nt);
        for (std::size_t i = 0; i < got.size(); ++i) {
          ASSERT_EQ(got[i], want[i]) << "tile0=" << tile0 << " element " << i;
        }
      }
    }
  }
}

TEST_P(SimdBackendTest, WinogradScatterQ4MatchesScalarOnTileRanges) {
  // The blocked executor's fused V producer: one channel quad's input
  // transform, per-tap quantize and k4 interleave. The vector lanes run
  // across the quad's channels and across consecutive block tiles, so the
  // cases cover tile rows 1, 2 and 3 tiles wide and at least 8 wide, blocks
  // that start mid-row and span rows, a pad lane in each position, and V
  // values that saturate at ±127.
  Rng rng(204);
  struct Cfg {
    int m, r;
    std::int64_t hw, pad;
  };
  // Tile rows (tw): F2 1/2/3/9, F4 1/2/3/4/9, F6 1/3/9, F4 r=5 2/9; F6 r=5
  // (t = 10) is wider than the vector kernels take.
  for (const Cfg cfg : {Cfg{2, 3, 3, 0}, Cfg{2, 3, 4, 1}, Cfg{2, 3, 6, 1}, Cfg{2, 3, 17, 1},
                        Cfg{4, 3, 4, 1}, Cfg{4, 3, 8, 1}, Cfg{4, 3, 11, 1}, Cfg{4, 3, 13, 2},
                        Cfg{4, 3, 34, 1}, Cfg{6, 3, 8, 0}, Cfg{6, 3, 15, 1}, Cfg{6, 3, 50, 1},
                        Cfg{4, 5, 8, 2}, Cfg{4, 5, 36, 2}, Cfg{6, 5, 16, 2}}) {
    const auto tr = wino::make_transforms(cfg.m, cfg.r);
    const std::int64_t t = tr.tile, m = tr.m, t2 = t * t;
    const std::int64_t oh = cfg.hw + 2 * cfg.pad - cfg.r + 1;
    const std::int64_t th = (oh + m - 1) / m, tw = th;
    const std::int64_t tiles = th * tw;
    // Four planes; pads = 0 is a full quad, bit l drops lane l.
    std::vector<std::vector<std::int8_t>> data;
    for (int lane = 0; lane < 4; ++lane) data.push_back(random_s8(rng, cfg.hw * cfg.hw));
    // Splat reciprocals (a per-tensor V scale), distinct per-tap ones, and
    // ones large enough that most V values clamp at ±127.
    std::vector<float> splat(static_cast<std::size_t>(t2), 1.F / 0.9F);
    std::vector<float> taps(static_cast<std::size_t>(t2)), hot(static_cast<std::size_t>(t2));
    for (std::size_t ab = 0; ab < taps.size(); ++ab) {
      taps[ab] = 1.F / (0.05F + 0.11F * static_cast<float>(ab));
      hot[ab] = 40.F + static_cast<float>(ab);
    }
    for (const std::int64_t bs : {std::int64_t{1}, std::int64_t{3}, std::int64_t{5}, tiles}) {
      for (const unsigned pads : {0U, 1U, 2U, 4U, 8U, 7U}) {
        for (const auto* v_inv : {&splat, &taps, &hot}) {
          SCOPED_TRACE("m=" + std::to_string(cfg.m) + " r=" + std::to_string(cfg.r) +
                       " hw=" + std::to_string(cfg.hw) + " pad=" + std::to_string(cfg.pad) +
                       " block=" + std::to_string(bs) + " pad lanes=" + std::to_string(pads) +
                       " v_inv=" + (v_inv == &splat ? "splat" : v_inv == &taps ? "taps" : "hot"));
          const std::int8_t* planes[4];
          for (unsigned lane = 0; lane < 4; ++lane) {
            planes[lane] = (pads >> lane & 1U) != 0 ? nullptr : data[lane].data();
          }
          for (std::int64_t tile0 = 0; tile0 < tiles; tile0 += bs) {
            const std::int64_t nt = std::min(bs, tiles - tile0);
            // Taps sit tap_stride = 4 * nt + 8 bytes apart: the gap bytes
            // must survive, so neither kernel writes outside its quad.
            const std::int64_t stride = 4 * nt + 8;
            std::vector<std::int8_t> got(static_cast<std::size_t>(t2 * stride), 99);
            std::vector<std::int8_t> want(got);
            kernels().wino_scatter_q4_s8(planes, cfg.hw, cfg.hw, cfg.pad, 0.043F, tr.bt_mat.raw(),
                                         t, m, tw, tile0, nt, v_inv->data(), got.data(), stride);
            scalar_kernels().wino_scatter_q4_s8(planes, cfg.hw, cfg.hw, cfg.pad, 0.043F,
                                                tr.bt_mat.raw(), t, m, tw, tile0, nt,
                                                v_inv->data(), want.data(), stride);
            ASSERT_EQ(got, want) << "tile0=" << tile0;
          }
        }
      }
    }
  }
  {
    // A learned Bᵀ has no zero entry to skip. All-positive entries at an
    // infinite input scale also make the zero padding's arithmetic visible:
    // the scalar kernel's padding is 0, so every V element sums to +inf and
    // clamps to 127, where a padding of 0 * inf would give NaN and -127. An
    // infinite reciprocal does the same to a pad lane, which stores 0. The
    // geometry is F(4, 3) on an 8x8 plane, pad 1: a 2x2 tile grid.
    const std::int64_t m = 4, t = 6, t2 = t * t, hw = 8, tw = 2, tiles = 4;
    Tensor bt(Shape{t, t});
    for (std::int64_t i = 0; i < t2; ++i) {
      bt.at(i) = 0.25F + 0.5F * static_cast<float>(rng.uniform());
    }
    std::vector<std::vector<std::int8_t>> data;
    for (int lane = 0; lane < 4; ++lane) {
      data.push_back(random_s8(rng, hw * hw));
      for (auto& v : data.back()) v = static_cast<std::int8_t>(std::max(1, std::abs(v)));
    }
    const float inf = std::numeric_limits<float>::infinity();
    for (const auto& [in_scale, inv] : {std::pair{0.043F, 1.F / 0.7F}, std::pair{inf, 1.F / 0.7F},
                                        std::pair{0.043F, inf}}) {
      const std::vector<float> v_inv(static_cast<std::size_t>(t2), inv);
      for (const unsigned pads : {0U, 4U}) {
        SCOPED_TRACE("in_scale=" + std::to_string(in_scale) + " v_inv=" + std::to_string(inv) +
                     " pad lanes=" + std::to_string(pads));
        const std::int8_t* planes[4];
        for (unsigned lane = 0; lane < 4; ++lane) {
          planes[lane] = (pads >> lane & 1U) != 0 ? nullptr : data[lane].data();
        }
        std::vector<std::int8_t> got(static_cast<std::size_t>(t2 * tiles * 4), 99), want(got);
        kernels().wino_scatter_q4_s8(planes, hw, hw, 1, in_scale, bt.raw(), t, m, tw, 0, tiles,
                                     v_inv.data(), got.data(), tiles * 4);
        scalar_kernels().wino_scatter_q4_s8(planes, hw, hw, 1, in_scale, bt.raw(), t, m, tw, 0,
                                            tiles, v_inv.data(), want.data(), tiles * 4);
        EXPECT_EQ(got, want);
      }
    }
  }
}

std::vector<std::uint8_t> random_u8(Rng& rng, std::int64_t n) {
  std::vector<std::uint8_t> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = static_cast<std::uint8_t>(std::lround(rng.uniform() * 255.0));
  return v;
}

TEST_P(SimdBackendTest, GemmU8S8K4MatchesScalarOnRandomShapesAndTails) {
  Rng rng(195);
  // kpad always a multiple of the channel block; n chosen to hit the 16-col
  // AVX-512 main loop, the 4-col tail and the scalar remainder.
  const std::int64_t shapes[][3] = {{1, 1, 4},   {3, 17, 8},   {8, 33, 12}, {5, 16, 4},
                                    {13, 31, 28}, {64, 40, 32}, {7, 64, 48}, {2, 15, 128}};
  for (const auto& s : shapes) {
    const std::int64_t m = s[0], n = s[1], kpad = s[2];
    SCOPED_TRACE("m=" + std::to_string(m) + " n=" + std::to_string(n) +
                 " kpad=" + std::to_string(kpad));
    // a: offset-binary u8 (any byte is a legal level+128); b: interleaved s8.
    const auto a = random_u8(rng, m * kpad);
    const auto b = random_s8(rng, kpad * n);
    std::vector<std::int32_t> got(static_cast<std::size_t>(m * n), -1);
    std::vector<std::int32_t> want(static_cast<std::size_t>(m * n), -2);
    kernels().gemm_u8s8_s32_k4(m, n, kpad, a.data(), b.data(), got.data());
    scalar_kernels().gemm_u8s8_s32_k4(m, n, kpad, a.data(), b.data(), want.data());
    EXPECT_EQ(got, want);
  }
}

TEST_P(SimdBackendTest, GemmU8S8K4OffsetCancellationIsExact) {
  // A row of 128s is a zero row in offset-binary: whatever b holds, the
  // -128*colsum correction must cancel it to exactly zero.
  Rng rng(196);
  const std::int64_t m = 3, n = 19, kpad = 24;
  std::vector<std::uint8_t> a(static_cast<std::size_t>(m * kpad), std::uint8_t{128});
  const auto b = random_s8(rng, kpad * n);
  std::vector<std::int32_t> got(static_cast<std::size_t>(m * n), -1);
  kernels().gemm_u8s8_s32_k4(m, n, kpad, a.data(), b.data(), got.data());
  for (const std::int32_t v : got) EXPECT_EQ(v, 0);
}

TEST_P(SimdBackendTest, WinogradGatherQMatchesScalarOnTileRangesAndBias) {
  Rng rng(197);
  struct Cfg {
    int m, r;
    std::int64_t oh;
  };
  // oh = 8/5 at F4 and 4/3 at F2 are the 2x2 tile grids (clipped or not)
  // whose vector groups cross tile rows.
  for (const Cfg cfg : {Cfg{2, 3, 8}, Cfg{2, 3, 7}, Cfg{2, 3, 34}, Cfg{4, 3, 16}, Cfg{4, 3, 13},
                        Cfg{4, 5, 12}, Cfg{4, 3, 8}, Cfg{4, 3, 5}, Cfg{2, 3, 4}, Cfg{2, 3, 3}}) {
    const auto tr = wino::make_transforms(cfg.m, cfg.r);
    const std::int64_t t = tr.tile, m = tr.m;
    const std::int64_t th = (cfg.oh + m - 1) / m, tw = th;
    const std::int64_t tiles = th * tw;
    // Per-tap M-scale vector with distinct entries (a splat reduces to the
    // legacy scalar behaviour, covered by the executor differential tests).
    std::vector<float> sm_taps(static_cast<std::size_t>(t * t));
    for (std::size_t ab = 0; ab < sm_taps.size(); ++ab) {
      sm_taps[ab] = 0.0217F + 0.002F * static_cast<float>(ab);
    }
    for (const std::int64_t bs : {std::int64_t{1}, std::int64_t{5}, tiles}) {
      for (const float bias : {0.F, -1.375F}) {
        SCOPED_TRACE("m=" + std::to_string(cfg.m) + " oh=" + std::to_string(cfg.oh) +
                     " block=" + std::to_string(bs) + " bias=" + std::to_string(bias));
        std::vector<std::int8_t> got(static_cast<std::size_t>(cfg.oh * cfg.oh), 42);
        std::vector<std::int8_t> want(got);
        for (std::int64_t tile0 = 0; tile0 < tiles; tile0 += bs) {
          const std::int64_t nt = std::min(bs, tiles - tile0);
          const auto levels = random_s8(rng, t * t * nt);
          kernels().wino_gather_q_s8(levels.data(), nt, sm_taps.data(), tr.at_mat.raw(), t, m, th,
                                     tw, tile0, nt, cfg.oh, cfg.oh, bias, 1.F / 0.11F, got.data());
          scalar_kernels().wino_gather_q_s8(levels.data(), nt, sm_taps.data(), tr.at_mat.raw(), t,
                                            m, th, tw, tile0, nt, cfg.oh, cfg.oh, bias,
                                            1.F / 0.11F, want.data());
        }
        // After walking every block both planes are fully written; comparing
        // whole planes also proves neither kernel touched out-of-range rows.
        EXPECT_EQ(got, want);
      }
    }
  }
}

TEST_P(SimdBackendTest, GemmF32StaysWithinToleranceOfScalar) {
  // fp32 GEMM is the one table entry allowed FMA, so it carries a tolerance
  // instead of a bit check (consumers are the float training/eval paths).
  Rng rng(96);
  const std::int64_t m = 9, n = 37, k = 23;
  std::vector<float> a(static_cast<std::size_t>(m * k)), b(static_cast<std::size_t>(k * n));
  for (auto& v : a) v = static_cast<float>(rng.normal());
  for (auto& v : b) v = static_cast<float>(rng.normal());
  std::vector<float> got(static_cast<std::size_t>(m * n), 0.5F);
  std::vector<float> want(static_cast<std::size_t>(m * n), 0.5F);
  kernels().gemm_f32_packed_nn(m, n, k, 1.3F, a.data(), k, b.data(), n, 0.25F, got.data(), n);
  scalar_kernels().gemm_f32_packed_nn(m, n, k, 1.3F, a.data(), k, b.data(), n, 0.25F,
                                      want.data(), n);
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i], want[i], 1e-4F) << "element " << i;
  }
}

// ---- end-to-end bit-identity ------------------------------------------------

deploy::Int8Pipeline compiled_lenet(nn::ConvAlgo algo) {
  Rng rng(97);
  models::LeNetConfig cfg;
  cfg.algo = algo;
  cfg.qspec = quant::QuantSpec{8};
  models::LeNet5 net(cfg, rng);
  net.set_training(true);
  for (int i = 0; i < 2; ++i) {
    net.forward(ag::Variable(Tensor::randn({4, 1, 28, 28}, rng), false));
  }
  deploy::Int8Pipeline pipe = deploy::compile_lenet(net);
  pipe.freeze_scales(Tensor::randn({4, 1, 28, 28}, rng));
  return pipe;
}

deploy::Int8Pipeline compiled_resnet18() {
  Rng rng(98);
  models::ResNetConfig cfg;
  cfg.width_mult = 0.125F;
  cfg.algo = nn::ConvAlgo::kWinograd2;
  cfg.qspec = quant::QuantSpec{8};
  models::ResNet18 net(cfg, rng);
  net.set_training(true);
  for (int i = 0; i < 2; ++i) {
    net.forward(ag::Variable(Tensor::randn({4, 3, 32, 32}, rng), false));
  }
  deploy::Int8Pipeline pipe = deploy::compile_resnet18(net);
  pipe.freeze_scales(Tensor::randn({4, 3, 32, 32}, rng));
  return pipe;
}

TEST_P(SimdBackendTest, LenetLogitsBitIdenticalToScalarBackend) {
  for (const nn::ConvAlgo algo : {nn::ConvAlgo::kIm2row, nn::ConvAlgo::kWinograd2}) {
    SCOPED_TRACE(nn::to_string(algo));
    // Compile under the scalar reference so preparation is backend-neutral,
    // then run the same input under both backends.
    ASSERT_TRUE(set_backend("scalar"));
    const deploy::Int8Pipeline pipe = compiled_lenet(algo);
    Rng rng(99);
    const Tensor x = Tensor::randn({5, 1, 28, 28}, rng);
    const Tensor want = pipe.run(x);
    ASSERT_TRUE(set_backend(GetParam()));
    const Tensor got = pipe.run(x);
    ASSERT_EQ(got.shape(), want.shape());
    EXPECT_EQ(Tensor::max_abs_diff(got, want), 0.F)
        << "backend " << GetParam() << " diverged from the scalar reference";
  }
}

TEST_P(SimdBackendTest, ResNet18LogitsBitIdenticalToScalarBackend) {
  ASSERT_TRUE(set_backend("scalar"));
  const deploy::Int8Pipeline pipe = compiled_resnet18();
  Rng rng(100);
  const Tensor x = Tensor::randn({3, 3, 32, 32}, rng);
  const Tensor want = pipe.run(x);
  ASSERT_TRUE(set_backend(GetParam()));
  const Tensor got = pipe.run(x);
  ASSERT_EQ(got.shape(), want.shape());
  EXPECT_EQ(Tensor::max_abs_diff(got, want), 0.F)
      << "backend " << GetParam() << " diverged from the scalar reference";
}

// ---- fused blocked executor vs flat reference -------------------------------

QTensor random_activation(Rng& rng, std::int64_t n, std::int64_t c, std::int64_t h,
                          std::int64_t w, float scale) {
  QTensor q;
  q.shape = {n, c, h, w};
  q.scale = scale;
  q.data = random_s8(rng, n * c * h * w);
  return q;
}

TEST_P(SimdBackendTest, BlockedWinogradIsBitIdenticalToFlatAcrossShapes) {
  Rng rng(198);
  struct Cfg {
    int m;
    std::int64_t c, k, hw;
  };
  // Odd H/W force clipped edge tiles; C = 1/3/5/6/7 are not multiples of
  // the channel block (pad-lane cancellation); C = 8 divides it exactly.
  // F4 at 8x8 and F2 at 4x4 are 2x2 tile grids.
  for (const Cfg cfg : {Cfg{2, 1, 4, 7}, Cfg{2, 3, 8, 9}, Cfg{2, 8, 8, 12}, Cfg{4, 5, 8, 9},
                        Cfg{4, 3, 4, 13}, Cfg{4, 8, 16, 16}, Cfg{4, 6, 8, 8}, Cfg{2, 7, 8, 4}}) {
    SCOPED_TRACE("m=" + std::to_string(cfg.m) + " c=" + std::to_string(cfg.c) +
                 " k=" + std::to_string(cfg.k) + " hw=" + std::to_string(cfg.hw));
    const auto tr = wino::make_transforms(cfg.m, 3);
    Tensor w = Tensor::randn({cfg.k, cfg.c, 3, 3}, rng);
    const auto prep = prepare_winograd_weights_s8(w, tr, 0.02F);
    ASSERT_FALSE(prep.u_blocked.empty());
    const QTensor in = random_activation(rng, 2, cfg.c, cfg.hw, cfg.hw, 0.05F);
    ConvGeometry g;
    g.batch = 2;
    g.in_channels = cfg.c;
    g.height = cfg.hw;
    g.width = cfg.hw;
    g.out_channels = cfg.k;
    g.kernel = 3;
    g.pad = 1;
    const WinogradStageScales frozen{.weights_transformed = 0.02F,
                                     .input_transformed = 0.1F,
                                     .hadamard = 0.05F,
                                     .output = 0.1F};
    Tensor bias = Tensor::randn({cfg.k}, rng);
    const QTensor blocked = winograd_conv_s8_prepared(in, prep, g, tr, frozen, &bias);
    const QTensor flat = winograd_conv_s8_flat(in, prep, g, tr, frozen, &bias);
    EXPECT_EQ(blocked.scale, flat.scale);
    EXPECT_EQ(blocked.shape, flat.shape);
    EXPECT_EQ(blocked.data, flat.data);
  }
}

TEST_P(SimdBackendTest, BlockedWinogradHonorsDonatedStorage) {
  // The streaming executor stages into the arena before consuming a donated
  // buffer (which may alias the input); the donated run must be bit-identical
  // to the fresh-allocation run and must consume the donation.
  Rng rng(199);
  const auto tr = wino::make_transforms(4, 3);
  Tensor w = Tensor::randn({8, 5, 3, 3}, rng);
  const auto prep = prepare_winograd_weights_s8(w, tr, 0.02F);
  const QTensor in = random_activation(rng, 2, 5, 9, 9, 0.05F);
  ConvGeometry g;
  g.batch = 2;
  g.in_channels = 5;
  g.height = 9;
  g.width = 9;
  g.out_channels = 8;
  g.kernel = 3;
  g.pad = 1;
  const WinogradStageScales frozen{.weights_transformed = 0.02F,
                                   .input_transformed = 0.1F,
                                   .hadamard = 0.05F,
                                   .output = 0.1F};
  const QTensor fresh = winograd_conv_s8_prepared(in, prep, g, tr, frozen);
  // Donate a copy of the input's bytes: the aliasing-shaped case.
  std::vector<std::int8_t> donated = in.data;
  const QTensor reused = winograd_conv_s8_prepared(in, prep, g, tr, frozen, nullptr, &donated);
  EXPECT_TRUE(donated.empty()) << "donated storage was not consumed";
  EXPECT_EQ(fresh.data, reused.data);
  EXPECT_EQ(fresh.scale, reused.scale);
}

using test_support::TeamSizeScope;

TEST_P(SimdBackendTest, BlockedWinogradIsBitIdenticalAcrossTeamSizes) {
  // The blocked executor splits every tile block across the team: the
  // scatter by (conv group, channel quad), the GEMM -> requant -> gather by
  // output-channel slice. Which thread computes an element must not change
  // its bytes — teams of 1..4 all equal each other and the flat path.
  Rng rng(203);
  struct Cfg {
    int m;
    std::int64_t cg, kg, groups, batch, hw;
    bool per_tap, masked, with_bias, donate;
  };
  // K = 6/10/36 leave slices of unequal height and threads with no slice;
  // C = 3/5 per group leave pad lanes; hw = 18 at F2 gives two tile blocks;
  // hw = 8 at F4 is a 2x2 tile grid.
  for (const Cfg cfg :
       {Cfg{2, 3, 6, 1, 1, 9, false, false, true, false},
        Cfg{4, 5, 10, 1, 3, 11, true, false, false, true},
        Cfg{4, 5, 36, 1, 1, 16, true, true, true, false},
        Cfg{2, 3, 36, 1, 3, 18, false, false, false, true},
        Cfg{2, 3, 4, 2, 3, 8, false, true, false, true},
        Cfg{4, 5, 6, 4, 1, 12, true, false, true, false},
        Cfg{4, 3, 6, 2, 1, 9, true, true, true, true},
        Cfg{2, 5, 4, 4, 1, 18, false, false, true, false},
        Cfg{4, 5, 10, 1, 2, 8, true, false, true, true}}) {
    const std::int64_t K = cfg.kg * cfg.groups, C = cfg.cg * cfg.groups;
    SCOPED_TRACE("m=" + std::to_string(cfg.m) + " C=" + std::to_string(C) +
                 " K=" + std::to_string(K) + " groups=" + std::to_string(cfg.groups) +
                 " batch=" + std::to_string(cfg.batch) + " hw=" + std::to_string(cfg.hw) +
                 (cfg.per_tap ? " per-tap" : " per-tensor") + (cfg.masked ? " masked" : "") +
                 (cfg.with_bias ? " bias" : "") + (cfg.donate ? " donated" : ""));
    const auto tr = wino::make_transforms(cfg.m, 3);
    const std::int64_t t2 = tr.tile * tr.tile;
    const Tensor w = Tensor::randn({K, cfg.cg, 3, 3}, rng);
    WinogradStageScales scales;
    scales.weights_transformed = 0.02F;
    scales.input_transformed = 0.1F;
    scales.hadamard = 0.05F;
    scales.output = 0.1F;
    std::vector<float> u_taps;
    if (cfg.per_tap) {
      for (std::int64_t ab = 0; ab < t2; ++ab) {
        const auto f = static_cast<float>(ab);
        u_taps.push_back(0.01F + 0.002F * f);
        scales.input_transformed_taps.push_back(0.05F + 0.01F * f);
        scales.hadamard_taps.push_back(0.02F + 0.004F * f);
      }
      scales.weights_transformed_taps = u_taps;
    }
    // Masked: taps 1 and t²-2 die in every group (the sparse-U skip flag),
    // and one more level is pruned inside tap 0.
    Tensor mask = Tensor::ones({cfg.groups, t2, cfg.kg, cfg.cg});
    if (cfg.masked) {
      for (std::int64_t gi = 0; gi < cfg.groups; ++gi) {
        for (const std::int64_t ab : {std::int64_t{1}, t2 - 2}) {
          for (std::int64_t i = 0; i < cfg.kg * cfg.cg; ++i) {
            mask.at((gi * t2 + ab) * cfg.kg * cfg.cg + i) = 0.F;
          }
        }
      }
      mask.at(0) = 0.F;
    }
    const auto prep = prepare_winograd_weights_s8(w, tr, 0.02F, u_taps, cfg.groups,
                                                  cfg.masked ? &mask : nullptr);
    ASSERT_EQ(prep.tap_mask.empty(), !cfg.masked);
    const QTensor in = random_activation(rng, cfg.batch, C, cfg.hw, cfg.hw, 0.05F);
    ConvGeometry g;
    g.batch = cfg.batch;
    g.in_channels = C;
    g.height = cfg.hw;
    g.width = cfg.hw;
    g.out_channels = K;
    g.kernel = 3;
    g.pad = 1;
    g.groups = cfg.groups;
    const Tensor bias = Tensor::randn({K}, rng);
    const Tensor* bias_ptr = cfg.with_bias ? &bias : nullptr;
    const auto run = [&](auto conv) {
      std::vector<std::int8_t> donated = in.data;
      QTensor out =
          conv(in, prep, g, tr, scales, bias_ptr, cfg.donate ? &donated : nullptr, nullptr);
      if (cfg.donate) {
        EXPECT_TRUE(donated.empty()) << "donated storage was not consumed";
      }
      return out;
    };
    const QTensor flat = run(winograd_conv_s8_flat);
    for (const int team : {1, 2, 3, 4}) {
      SCOPED_TRACE("team=" + std::to_string(team));
      QTensor blocked;
      {
        TeamSizeScope scope(team);
        blocked = run(winograd_conv_s8_prepared);
      }
      EXPECT_EQ(blocked.shape, flat.shape);
      EXPECT_EQ(blocked.scale, flat.scale);
      EXPECT_EQ(blocked.data, flat.data);
    }
  }
}

// ---- residual join -----------------------------------------------------------

TEST_P(SimdBackendTest, ResidualJoinMatchesScalarReference) {
  // Every int8 (a, b) pair, over a grid of branch ratios: the identity,
  // every right shift 31..1, shift 0, left shifts down to the vector
  // regime's edge (-23) and one past it (-24, scalar fallback), and ratios
  // just under a power of two, whose Q31 mantissa rounds up to 2^31 and
  // renormalizes. ReLU on and off.
  constexpr std::int64_t kPairs = 256 * 256;
  std::vector<std::int8_t> a(kPairs), b(kPairs);
  for (std::int64_t i = 0; i < kPairs; ++i) {
    a[static_cast<std::size_t>(i)] = static_cast<std::int8_t>(i / 256 - 128);
    b[static_cast<std::size_t>(i)] = static_cast<std::int8_t>(i % 256 - 128);
  }
  std::vector<quant::FixedPointMultiplier> grid;
  for (int shift = 31; shift >= -24; --shift) {
    grid.push_back(quant::quantize_multiplier(std::ldexp(0.71, -shift)));
  }
  for (const int e : {-20, -3, 0, 1, 5, 23}) {
    grid.push_back(quant::quantize_multiplier(std::ldexp(1.0 - std::ldexp(1.0, -40), e)));
  }
  // The largest mantissa at the regime edge and one past it: at -23 two such
  // branches of -128 sum to exactly INT32_MIN.
  grid.push_back(quant::FixedPointMultiplier{std::numeric_limits<std::int32_t>::max(), -23});
  grid.push_back(quant::FixedPointMultiplier{std::numeric_limits<std::int32_t>::max(), -24});
  grid.push_back(quant::FixedPointMultiplier{std::int32_t{1} << 30, 0});
  // Each grid ratio against the identity, against itself (the largest sums)
  // and against another grid ratio, on either side.
  std::vector<std::pair<const quant::FixedPointMultiplier*, const quant::FixedPointMultiplier*>>
      combos;
  combos.emplace_back(nullptr, nullptr);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    combos.emplace_back(&grid[i], nullptr);
    combos.emplace_back(nullptr, &grid[i]);
    combos.emplace_back(&grid[i], &grid[i]);
    combos.emplace_back(&grid[i], &grid[(i * 7 + 3) % grid.size()]);
  }
  const auto label = [](const quant::FixedPointMultiplier* m) {
    return m == nullptr ? std::string("identity")
                        : "(" + std::to_string(m->m0) + ", " + std::to_string(m->shift) + ")";
  };
  std::vector<std::int8_t> got(kPairs), want(kPairs);
  for (const auto& [am, bm] : combos) {
    for (const bool relu : {false, true}) {
      SCOPED_TRACE("a=" + label(am) + " b=" + label(bm) + (relu ? " relu" : ""));
      kernels().residual_add_s8(a.data(), b.data(), got.data(), kPairs, am, bm, relu);
      scalar_kernels().residual_add_s8(a.data(), b.data(), want.data(), kPairs, am, bm, relu);
      ASSERT_EQ(got, want);
    }
  }

  // Output aliasing either operand, and every length 1..47 (vector tails).
  const quant::FixedPointMultiplier up = quant::quantize_multiplier(1.37);
  const quant::FixedPointMultiplier down = quant::quantize_multiplier(0.61);
  for (std::int64_t n = 1; n <= 47; ++n) {
    for (const bool relu : {false, true}) {
      SCOPED_TRACE("n=" + std::to_string(n) + (relu ? " relu" : ""));
      const std::int64_t off = n * 97;  // a different slice of the pair grid per length
      const std::int8_t* pa = a.data() + off;
      const std::int8_t* pb = b.data() + off;
      std::vector<std::int8_t> ref(static_cast<std::size_t>(n));
      scalar_kernels().residual_add_s8(pa, pb, ref.data(), n, &up, &down, relu);
      std::vector<std::int8_t> fresh(static_cast<std::size_t>(n), 55);
      kernels().residual_add_s8(pa, pb, fresh.data(), n, &up, &down, relu);
      EXPECT_EQ(fresh, ref);
      std::vector<std::int8_t> into_a(pa, pa + n), into_b(pb, pb + n);
      kernels().residual_add_s8(into_a.data(), pb, into_a.data(), n, &up, &down, relu);
      kernels().residual_add_s8(pa, into_b.data(), into_b.data(), n, &up, &down, relu);
      EXPECT_EQ(into_a, ref);
      EXPECT_EQ(into_b, ref);
    }
  }
}

// ---- stride-2 polyphase Winograd kernel ------------------------------------

TEST_P(SimdBackendTest, StridedPolyphaseWinogradMatchesScalarBackend) {
  // The prepare-time cost model lowers every stride-2 stage the fuzzer and
  // the zoo suites build to strided im2row, so this is the kernel's
  // cross-backend check: called directly, same prepared weights, same bytes.
  Rng rng(202);
  struct Cfg {
    int m;
    std::int64_t c, k, hw, pad;
    bool frozen;
  };
  // Odd and even H/W with and without padding cover both parities of
  // H + 2·pad; C = 3/5/7 leave pad lanes in the blocked U; dynamic scales
  // cover the abs-max derivations.
  for (const Cfg cfg : {Cfg{2, 3, 5, 11, 1, true}, Cfg{2, 5, 8, 12, 0, false},
                        Cfg{4, 7, 6, 9, 1, true}, Cfg{4, 32, 32, 16, 1, false}}) {
    SCOPED_TRACE("m=" + std::to_string(cfg.m) + " c=" + std::to_string(cfg.c) +
                 " k=" + std::to_string(cfg.k) + " hw=" + std::to_string(cfg.hw) +
                 " pad=" + std::to_string(cfg.pad) + (cfg.frozen ? " frozen" : " dynamic"));
    const auto tr = wino::make_transforms(cfg.m, 2);
    const Tensor w = Tensor::randn({cfg.k, cfg.c, 3, 3}, rng, 0.3F);
    const auto prep = prepare_strided_winograd_weights_s8(w, tr);
    const QTensor in = random_activation(rng, 2, cfg.c, cfg.hw, cfg.hw, 0.05F);
    ConvGeometry g;
    g.batch = 2;
    g.in_channels = cfg.c;
    g.height = cfg.hw;
    g.width = cfg.hw;
    g.out_channels = cfg.k;
    g.kernel = 3;
    g.pad = cfg.pad;
    g.stride = 2;
    WinogradStageScales scales;
    if (cfg.frozen) {
      scales.weights_transformed = prep.u00.scale;
      scales.input_transformed = 0.1F;
      scales.hadamard = 0.05F;
      scales.output = 0.1F;
    }
    const Tensor bias = Tensor::randn({cfg.k}, rng);

    ASSERT_TRUE(set_backend("scalar"));
    const QTensor want = strided_winograd_conv_s8_prepared(in, prep, g, tr, scales, &bias);
    ASSERT_TRUE(set_backend(GetParam()));
    const QTensor got = strided_winograd_conv_s8_prepared(in, prep, g, tr, scales, &bias);
    EXPECT_EQ(got.shape, want.shape);
    EXPECT_EQ(got.scale, want.scale);
    EXPECT_EQ(got.data, want.data)
        << "backend " << GetParam() << " diverged from the scalar reference";
  }
}

TEST(BlockedWinogradPacking, BlockedUIsOffsetBinaryWithPadLanesAt128) {
  Rng rng(200);
  const auto tr = wino::make_transforms(4, 3);
  Tensor w = Tensor::randn({4, 6, 3, 3}, rng);  // C=6: one real + two pad lanes
  const auto prep = prepare_winograd_weights_s8(w, tr, 0.02F);
  const Tensor u_f = winograd_transform_weights(w, tr);  // [t², K, C] fp32
  const std::int64_t t2 = tr.tile * tr.tile;
  ASSERT_EQ(prep.padded_in_channels(), 8);
  ASSERT_EQ(static_cast<std::int64_t>(prep.u_blocked.size()), t2 * 4 * 8);
  for (std::int64_t abk = 0; abk < t2 * 4; ++abk) {
    const std::uint8_t* dst = prep.u_blocked.data() + abk * 8;
    for (std::int64_t c = 0; c < 6; ++c) {
      const float level = std::clamp(std::nearbyint(u_f.at(abk * 6 + c) / 0.02F), -127.F, 127.F);
      ASSERT_EQ(static_cast<std::int32_t>(dst[c]), static_cast<std::int32_t>(level) + 128);
    }
    ASSERT_EQ(dst[6], 128);  // pad lanes are level 0 in offset-binary
    ASSERT_EQ(dst[7], 128);
  }
}

TEST(BlockedWinogradGate, DynamicScalesAlwaysTakeTheFlatPath) {
  // Any non-frozen internal scale needs a whole-tensor abs-max before the
  // next stage can quantize, which the streaming executor cannot provide;
  // with such scales the prepared entry point must run the flat sequence.
  Rng rng(201);
  const auto tr = wino::make_transforms(2, 3);
  Tensor w = Tensor::randn({4, 3, 3, 3}, rng);
  const auto prep = prepare_winograd_weights_s8(w, tr, 0.02F);
  const QTensor in = random_activation(rng, 1, 3, 8, 8, 0.05F);
  ConvGeometry g;
  g.batch = 1;
  g.in_channels = 3;
  g.height = 8;
  g.width = 8;
  g.out_channels = 4;
  g.kernel = 3;
  g.pad = 1;
  const WinogradStageScales dynamic{.weights_transformed = 0.02F,
                                    .input_transformed = -1.F,
                                    .hadamard = 0.05F,
                                    .output = 0.1F};
  const QTensor prepared = winograd_conv_s8_prepared(in, prep, g, tr, dynamic);
  const QTensor flat = winograd_conv_s8_flat(in, prep, g, tr, dynamic);
  EXPECT_EQ(prepared.data, flat.data);
  EXPECT_EQ(prepared.scale, flat.scale);
}

// ---- pinned output bytes ----------------------------------------------------

// The tests above compare executors and backends with each other, so a change
// that moves every path alike passes them. These pin the absolute bytes of the
// flat dynamic-scale path and of the strided polyphase kernel: FNV-1a 64 over
// the output levels and then the output scale's four bytes.
std::uint64_t output_hash(const QTensor& q) {
  std::uint64_t h = 14695981039346656037ULL;
  const auto mix = [&h](const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ULL;
    }
  };
  mix(q.data.data(), q.data.size());
  mix(&q.scale, sizeof q.scale);
  return h;
}

TEST_P(SimdBackendTest, FlatWinogradDynamicScalesPinnedBytes) {
  // F4, two groups of C/g = 5 (one real and three pad lanes in the last
  // channel quad), odd H/W for clipped edge tiles, bias, and every scale
  // derived from an abs-max: the flat path's whole dynamic sequence.
  Rng rng(203);
  const auto tr = wino::make_transforms(4, 3);
  const Tensor w = Tensor::randn({12, 5, 3, 3}, rng, 0.3F);
  const auto prep = prepare_winograd_weights_s8(w, tr, -1.F, {}, /*groups=*/2);
  const QTensor in = random_activation(rng, 2, 10, 11, 11, 0.05F);
  ConvGeometry g;
  g.batch = 2;
  g.in_channels = 10;
  g.height = 11;
  g.width = 11;
  g.out_channels = 12;
  g.kernel = 3;
  g.pad = 1;
  g.groups = 2;
  const Tensor bias = Tensor::randn({12}, rng, 0.1F);
  const QTensor out = winograd_conv_s8_prepared(in, prep, g, tr, WinogradStageScales{}, &bias);
  ASSERT_EQ(out.shape, (Shape{2, 12, 11, 11}));
  EXPECT_EQ(output_hash(out), 0x4eff1bd5684679f5ULL);
}

QTensor pinned_strided_conv(Rng& rng, int m, std::int64_t c, std::int64_t k, std::int64_t hw,
                            std::int64_t pad, bool frozen) {
  const auto tr = wino::make_transforms(m, 2);
  const Tensor w = Tensor::randn({k, c, 3, 3}, rng, 0.3F);
  const auto prep = prepare_strided_winograd_weights_s8(w, tr);
  const QTensor in = random_activation(rng, 2, c, hw, hw, 0.05F);
  ConvGeometry g;
  g.batch = 2;
  g.in_channels = c;
  g.height = hw;
  g.width = hw;
  g.out_channels = k;
  g.kernel = 3;
  g.pad = pad;
  g.stride = 2;
  WinogradStageScales scales;
  if (frozen) {
    scales.weights_transformed = prep.u00.scale;
    scales.input_transformed = 0.1F;
    scales.hadamard = 0.05F;
    scales.output = 0.1F;
  }
  const Tensor bias = Tensor::randn({k}, rng, 0.1F);
  return strided_winograd_conv_s8_prepared(in, prep, g, tr, scales, &bias);
}

TEST_P(SimdBackendTest, StridedPolyphaseFrozenScalesPinnedBytes) {
  Rng rng(204);
  const QTensor out = pinned_strided_conv(rng, 2, 5, 6, 13, 1, /*frozen=*/true);
  ASSERT_EQ(out.shape, (Shape{2, 6, 7, 7}));
  EXPECT_EQ(output_hash(out), 0x2bacb8c541245c2fULL);
}

TEST_P(SimdBackendTest, StridedPolyphaseDynamicScalesPinnedBytes) {
  Rng rng(205);
  const QTensor out = pinned_strided_conv(rng, 4, 7, 8, 12, 1, /*frozen=*/false);
  ASSERT_EQ(out.shape, (Shape{2, 8, 6, 6}));
  EXPECT_EQ(output_hash(out), 0xf4b60b65680b7e3cULL);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, SimdBackendTest, ::testing::ValuesIn(backend_names()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

}  // namespace
}  // namespace wa::backend::simd
