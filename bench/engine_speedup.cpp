// Engine speedup harness: the seed per-call Winograd paths (U = G g Gᵀ
// rebuilt every forward, per-call heap allocations) against the cached-U,
// arena-backed prepared paths, on the layer shapes of the Fig. 7 latency
// grid (batch 1, 3x3, pad 1, output size == input size).
//
// This is the repo's regression trail for the LANCE-style precomputation:
// the prepared path must stay >= 1.3x on the grid's Winograd-favourable
// shapes (small/medium tile counts, where the weight transform and the
// allocator traffic are a real fraction of the forward).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "backend/conv_kernels.hpp"
#include "backend/conv_kernels_s8.hpp"
#include "backend/simd/kernel_table.hpp"
#include "data/synthetic.hpp"
#include "deploy/passes/passes.hpp"
#include "deploy/pipeline.hpp"
#include "winograd/cook_toom.hpp"

namespace {

using namespace wa;

backend::ConvGeometry geom(std::int64_t cin, std::int64_t cout, std::int64_t hw) {
  backend::ConvGeometry g;
  g.batch = 1;
  g.in_channels = cin;
  g.out_channels = cout;
  g.height = hw;
  g.width = hw;
  g.kernel = 3;
  g.pad = 1;
  return g;
}

/// Median-of-reps wall time of f(), warmed up once.
double time_ms(const std::function<void()>& f) {
  using clock = std::chrono::steady_clock;
  f();  // warm-up (arena growth, page faults)
  std::vector<double> runs;
  double total = 0.0;
  while (runs.size() < 21 && (total < 300.0 || runs.size() < 5)) {
    const auto t0 = clock::now();
    f();
    const double ms = std::chrono::duration<double, std::milli>(clock::now() - t0).count();
    runs.push_back(ms);
    total += ms;
  }
  std::sort(runs.begin(), runs.end());
  return runs[runs.size() / 2];
}

struct GridPoint {
  std::int64_t cin, cout, hw;
  int m;  // Winograd output tile (F2 / F4)
};

}  // namespace

int main(int argc, char** argv) {
  // Optional argv[1]: where to write the machine-readable BENCH_engine.json
  // (the checked-in copy lives at bench/BENCH_engine.json; CI's bench smoke
  // regenerates it to catch drift in the measured section list).
  const std::string json_path = argc > 1 ? argv[1] : "BENCH_engine.json";
  std::printf("Engine speedup — seed per-call path vs cached-U + arena (Fig. 7 shapes)\n");
  std::printf("%-22s %-4s | %12s %12s %7s | %12s %12s %7s\n", "shape", "cfg", "int8/call",
              "int8/cached", "ratio", "fp32/call", "fp32/cached", "ratio");

  const std::vector<GridPoint> grid = {
      {3, 32, 8, 2},    {3, 32, 16, 2},   {32, 64, 8, 2},   {32, 64, 16, 2},
      {32, 64, 24, 2},  {128, 192, 8, 2}, {128, 192, 16, 2}, {128, 192, 8, 4},
      {128, 192, 16, 4}, {256, 512, 8, 4},
  };

  Rng rng(42);
  double worst_int8 = 1e9, worst_fp32 = 1e9;
  double geo_int8 = 1.0, geo_fp32 = 1.0;
  for (const auto& p : grid) {
    const auto g = geom(p.cin, p.cout, p.hw);
    const auto tr = wino::make_transforms(p.m, 3);
    const Tensor w = Tensor::randn({p.cout, p.cin, 3, 3}, rng, 0.3F);
    const Tensor x = Tensor::randn({1, p.cin, p.hw, p.hw}, rng);
    const backend::QTensor qx = backend::quantize_s8(x);

    const auto prepared = backend::prepare_winograd_weights_s8(w, tr);
    backend::WinogradStageScales scales;
    scales.weights_transformed = prepared.scale;
    const Tensor u = backend::winograd_transform_weights(w, tr);

    // The seed per-call path: U rebuilt (transform + quantize + block) on
    // every forward, then the same executor the cached path runs.
    const double s8_seed = time_ms([&] {
      backend::winograd_conv_s8_prepared(
          qx, backend::prepare_winograd_weights_s8(w, tr, scales.weights_transformed), g, tr,
          scales);
    });
    const double s8_cached =
        time_ms([&] { backend::winograd_conv_s8_prepared(qx, prepared, g, tr, scales); });
    const double f32_seed = time_ms([&] { backend::winograd_conv(x, w, g, tr); });
    const double f32_cached = time_ms([&] { backend::winograd_conv_prepared(x, u, g, tr); });

    const double r8 = s8_seed / s8_cached;
    const double r32 = f32_seed / f32_cached;
    worst_int8 = std::min(worst_int8, r8);
    worst_fp32 = std::min(worst_fp32, r32);
    geo_int8 *= r8;
    geo_fp32 *= r32;
    std::printf("%4lld->%-4lld out=%-6lld F%-3d | %9.3f ms %9.3f ms %6.2fx | %9.3f ms %9.3f ms %6.2fx\n",
                static_cast<long long>(p.cin), static_cast<long long>(p.cout),
                static_cast<long long>(p.hw), p.m, s8_seed, s8_cached, r8, f32_seed, f32_cached,
                r32);
  }
  const double n = static_cast<double>(grid.size());
  std::printf("\ngeomean ratio: int8 %.2fx, fp32 %.2fx   worst: int8 %.2fx, fp32 %.2fx\n",
              std::pow(geo_int8, 1.0 / n), std::pow(geo_fp32, 1.0 / n), worst_int8, worst_fp32);
  std::printf("(target: >= 1.3x on the transform-bound shapes; GEMM-bound shapes trend to 1x)\n");

  // ---- per-backend comparison on the cached int8 path ----------------------
  // Same Fig. 7 shapes, prepared Winograd path, batch 1: every registered
  // SIMD backend against the scalar reference (the acceptance trail for the
  // dispatch layer: >= 2x geomean for avx2 on an AVX2 host).
  const auto backends = backend::simd::available_backends();
  const std::string active = backend::simd::active_backend();
  if (backends.size() > 1) {
    std::printf("\nPer-backend int8 prepared path (vs scalar reference, batch 1)\n");
    std::printf("%-22s %-4s | %12s", "shape", "cfg", "scalar");
    for (const auto& b : backends) {
      if (b != "scalar") std::printf(" %12s %7s", b.c_str(), "ratio");
    }
    std::printf("\n");
    std::vector<double> geo(backends.size(), 1.0);
    for (const auto& p : grid) {
      const auto g = geom(p.cin, p.cout, p.hw);
      const auto tr = wino::make_transforms(p.m, 3);
      Rng brng(7);
      const Tensor w = Tensor::randn({p.cout, p.cin, 3, 3}, brng, 0.3F);
      const Tensor x = Tensor::randn({1, p.cin, p.hw, p.hw}, brng);
      const backend::QTensor qx = backend::quantize_s8(x);
      const auto prepared = backend::prepare_winograd_weights_s8(w, tr);
      backend::WinogradStageScales scales;
      scales.weights_transformed = prepared.scale;

      backend::simd::set_backend("scalar");
      const double base =
          time_ms([&] { backend::winograd_conv_s8_prepared(qx, prepared, g, tr, scales); });
      std::printf("%4lld->%-4lld out=%-6lld F%-3d | %9.3f ms", static_cast<long long>(p.cin),
                  static_cast<long long>(p.cout), static_cast<long long>(p.hw), p.m, base);
      for (std::size_t bi = 0; bi < backends.size(); ++bi) {
        if (backends[bi] == "scalar") continue;
        backend::simd::set_backend(backends[bi]);
        const double ms =
            time_ms([&] { backend::winograd_conv_s8_prepared(qx, prepared, g, tr, scales); });
        geo[bi] *= base / ms;
        std::printf(" %9.3f ms %6.2fx", ms, base / ms);
      }
      std::printf("\n");
    }
    for (std::size_t bi = 0; bi < backends.size(); ++bi) {
      if (backends[bi] == "scalar") continue;
      std::printf("backend %-8s geomean vs scalar: %.2fx (target >= 2x for avx2)\n",
                  backends[bi].c_str(), std::pow(geo[bi], 1.0 / n));
    }
    backend::simd::set_backend(active);
  } else {
    std::printf("\n(only the scalar backend is available on this host — per-backend "
                "comparison skipped)\n");
  }

  // ---- fused blocked executor vs flat (frozen per-stage scales) -------------
  // The tentpole trail for the streaming tile-block engine: with every
  // internal scale frozen (the deployment case — dynamic scales force flat),
  // the fused transform->GEMM->inverse loop against the flat reference,
  // winograd_conv_s8_flat. Same shapes, same backend, the logits
  // bit-identical by contract; only the schedule and layout differ.
  std::printf("\nFused blocked executor vs flat Winograd path (frozen scales, batch 1)\n");
  struct BlockedCell {
    double flat_ms = 0.0, blocked_ms = 0.0;
  };
  // blocked_grid[backend][shape index]
  std::map<std::string, std::vector<BlockedCell>> blocked_grid;
  std::map<std::string, double> blocked_geo;
  for (const std::string& bname : backends) {
    backend::simd::set_backend(bname);
    std::printf("backend %s\n", bname.c_str());
    std::printf("  %-22s %-4s | %12s %12s %7s\n", "shape", "cfg", "flat", "blocked", "ratio");
    double geo = 1.0;
    auto& cells = blocked_grid[bname];
    for (const auto& p : grid) {
      const auto g = geom(p.cin, p.cout, p.hw);
      const auto tr = wino::make_transforms(p.m, 3);
      Rng brng(13);
      const Tensor w = Tensor::randn({p.cout, p.cin, 3, 3}, brng, 0.3F);
      const Tensor x = Tensor::randn({1, p.cin, p.hw, p.hw}, brng);
      const backend::QTensor qx = backend::quantize_s8(x);
      const auto prepared = backend::prepare_winograd_weights_s8(w, tr);
      backend::WinogradStageScales scales;
      scales.weights_transformed = prepared.scale;
      scales.input_transformed = 0.1F;  // frozen: the blocked-path precondition
      scales.hadamard = 0.05F;
      scales.output = 0.1F;

      const double flat_ms =
          time_ms([&] { backend::winograd_conv_s8_flat(qx, prepared, g, tr, scales); });
      const backend::QTensor flat_out = backend::winograd_conv_s8_flat(qx, prepared, g, tr, scales);
      const double blocked_ms =
          time_ms([&] { backend::winograd_conv_s8_prepared(qx, prepared, g, tr, scales); });
      const backend::QTensor blocked_out =
          backend::winograd_conv_s8_prepared(qx, prepared, g, tr, scales);
      if (blocked_out.data != flat_out.data) {
        std::printf("  FATAL: blocked output diverged from flat on %s\n", bname.c_str());
        return 1;
      }
      const double r = flat_ms / blocked_ms;
      geo *= r;
      cells.push_back({flat_ms, blocked_ms});
      std::printf("  %4lld->%-4lld out=%-6lld F%-3d | %9.3f ms %9.3f ms %6.2fx\n",
                  static_cast<long long>(p.cin), static_cast<long long>(p.cout),
                  static_cast<long long>(p.hw), p.m, flat_ms, blocked_ms, r);
    }
    blocked_geo[bname] = std::pow(geo, 1.0 / n);
    // The 1.25x bar applies to the SIMD backends: the scalar blocked path is
    // the bit-exactness reference and has no wide transforms to win with.
    std::printf("  geomean blocked vs flat: %.2fx%s\n", blocked_geo[bname],
                bname == "scalar" ? "" : " (target >= 1.25x)");
  }
  backend::simd::set_backend(active);

  // ---- machine-readable summary (BENCH_engine.json) -------------------------
  {
    std::FILE* jf = std::fopen(json_path.c_str(), "w");
    if (jf == nullptr) {
      std::printf("cannot open %s for write\n", json_path.c_str());
      return 1;
    }
    std::fprintf(jf, "{\n  \"bench\": \"engine_speedup\",\n  \"unit\": \"ns_per_call\",\n");
    std::fprintf(jf, "  \"grid\": [\n");
    for (std::size_t i = 0; i < grid.size(); ++i) {
      const auto& p = grid[i];
      std::fprintf(jf,
                   "    {\"cin\": %lld, \"cout\": %lld, \"hw\": %lld, \"tile\": \"F%d\"",
                   static_cast<long long>(p.cin), static_cast<long long>(p.cout),
                   static_cast<long long>(p.hw), p.m);
      for (const std::string& bname : backends) {
        const BlockedCell& c = blocked_grid[bname][i];
        std::fprintf(jf, ", \"%s_flat_ns\": %.0f, \"%s_blocked_ns\": %.0f", bname.c_str(),
                     c.flat_ms * 1e6, bname.c_str(), c.blocked_ms * 1e6);
      }
      std::fprintf(jf, "}%s\n", i + 1 < grid.size() ? "," : "");
    }
    std::fprintf(jf, "  ],\n  \"geomean_blocked_vs_flat\": {");
    for (std::size_t bi = 0; bi < backends.size(); ++bi) {
      std::fprintf(jf, "%s\"%s\": %.3f", bi > 0 ? ", " : "", backends[bi].c_str(),
                   blocked_geo[backends[bi]]);
    }
    std::fprintf(jf, "},\n  \"geomean_blocked_vs_scalar_flat\": {");
    // Cross-backend view at the engine's defaults: each backend's blocked
    // path against the scalar backend's flat path (the all-off baseline).
    for (std::size_t bi = 0; bi < backends.size(); ++bi) {
      double geo = 1.0;
      for (std::size_t i = 0; i < grid.size(); ++i) {
        geo *= blocked_grid[backends.front()][i].flat_ms / blocked_grid[backends[bi]][i].blocked_ms;
      }
      std::fprintf(jf, "%s\"%s\": %.3f", bi > 0 ? ", " : "", backends[bi].c_str(),
                   std::pow(geo, 1.0 / n));
    }
    std::fprintf(jf, "}\n}\n");
    std::fclose(jf);
    std::printf("\nwrote %s\n", json_path.c_str());
  }

  // ---- pass-based optimizer on the compiled paper models --------------------
  // Whole-pipeline view of src/deploy/passes: planner-on vs planner-off
  // latency and peak activation bytes on compiled LeNet-5 and ResNet-18,
  // bit-identity enforced. (resnet_deploy carries the >= 30% peak bar; this
  // is the cross-model latency trail.)
  std::printf("\nPass-based optimizer (planner-on vs planner-off, batch 4)\n");
  std::printf("%-12s | %9s -> %-9s | %10s -> %-10s %8s | %5s\n", "model", "ms/fwd", "ms/fwd",
              "peak B", "peak B", "drop", "diff");
  const auto report_model = [&](const char* name, deploy::Int8Pipeline pipe, Shape in_shape) {
    Rng drng(11);
    const Tensor x = Tensor::randn(in_shape, drng);
    pipe.freeze_scales(x);
    deploy::Int8Pipeline optimized = pipe;
    deploy::passes::OptimizeOptions opts;
    opts.reference_input = in_shape;
    deploy::passes::optimize_pipeline(optimized, opts);
    deploy::RunStats off{}, on{};
    const Tensor a = pipe.run(x, nullptr, &off);
    const Tensor b = optimized.run(x, nullptr, &on);
    const double ms_off = time_ms([&] { pipe.run(x); });
    const double ms_on = time_ms([&] { optimized.run(x); });
    const double drop = off.peak_activation_bytes > 0
                            ? 100.0 * (1.0 - static_cast<double>(on.peak_activation_bytes) /
                                                 static_cast<double>(off.peak_activation_bytes))
                            : 0.0;
    std::printf("%-12s | %9.3f -> %-9.3f | %10lld -> %-10lld %7.1f%% | %5g\n", name, ms_off,
                ms_on, static_cast<long long>(off.peak_activation_bytes),
                static_cast<long long>(on.peak_activation_bytes), drop,
                static_cast<double>(Tensor::max_abs_diff(a, b)));
  };
  {
    Rng mrng(3);
    models::LeNetConfig cfg;
    cfg.algo = nn::ConvAlgo::kWinograd2;
    cfg.qspec = quant::QuantSpec{8};
    models::LeNet5 net(cfg, mrng);
    net.set_training(true);
    for (int i = 0; i < 2; ++i) {
      net.forward(ag::Variable(Tensor::randn({4, 1, 28, 28}, mrng), false));
    }
    report_model("lenet-5", deploy::compile_lenet(net), {4, 1, 28, 28});
  }
  {
    Rng mrng(4);
    models::ResNetConfig cfg;
    cfg.width_mult = 0.125F;
    cfg.algo = nn::ConvAlgo::kWinograd2;
    cfg.qspec = quant::QuantSpec{8};
    models::ResNet18 net(cfg, mrng);
    net.set_training(true);
    for (int i = 0; i < 2; ++i) {
      net.forward(ag::Variable(Tensor::randn({4, 3, 32, 32}, mrng), false));
    }
    report_model("resnet-18", deploy::compile_resnet18(net), {4, 3, 32, 32});
  }
  std::printf("(diff must be 0: optimized execution is bit-identical by contract)\n");
  return 0;
}
