// Per-stage latency breakdown of the compiled int8 ResNet-18 pipeline — the
// deployment-side view of the paper's Tables 2-3 workload.
//
// Builds the paper's pool-instead-of-stride ResNet-18 at a given width,
// calibrates its observers on synthetic CIFAR-shaped batches, compiles it
// with compile_resnet18, and reports where a forward pass spends its time,
// stage by stage. Also prints the perf counters before/after the timed runs
// to document that no weight transform or repack happens per forward.
//
// Also reports the compiler middle-end's effect (src/deploy/passes):
// planner-on vs planner-off latency and peak activation memory, with the
// >= 30% peak-reduction acceptance bar for this workload.
//
// Finally, the F2-vs-F4 trajectory of the per-tap requantization work:
// deployed-vs-QAT agreement and per-stage latency for F2 (per-tensor), F4
// per-tensor (the accuracy cliff) and F4 per-tap (tap_group_size=1), merged
// into BENCH_engine.json under "resnet_f2_vs_f4".
//
//   build/bench/resnet_deploy [width_mult=0.25] [batch=1] [algo=im2row|f2]
//                             [json=BENCH_engine.json]
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>

#include "backend/perf_counters.hpp"
#include "bench_common.hpp"
#include "data/synthetic.hpp"
#include "deploy/passes/passes.hpp"
#include "deploy/pipeline.hpp"

int main(int argc, char** argv) {
  using namespace wa;
  const float width = argc > 1 ? static_cast<float>(std::atof(argv[1])) : 0.25F;
  const std::int64_t batch = argc > 2 ? std::atoll(argv[2]) : 1;
  const bool f2 = argc > 3 && std::strcmp(argv[3], "f2") == 0;

  Rng rng(42);
  models::ResNetConfig cfg;
  cfg.width_mult = width;
  cfg.qspec = quant::QuantSpec{8};
  if (f2) cfg.algo = nn::ConvAlgo::kWinograd2;
  models::ResNet18 net(cfg, rng);

  // Calibrate: a few training-mode passes warm every observer (layer inputs,
  // Winograd Qx stages, residual-join branches) and the batch-norm stats.
  auto spec = data::cifar10_like();
  spec.train_size = 64;
  const auto calib = data::generate(spec, true);
  net.set_training(true);
  data::DataLoader loader(calib, 16, false);
  for (std::int64_t b = 0; b < loader.batches(); ++b) {
    net.forward(ag::Variable(loader.get(b).images, false));
  }

  deploy::Int8Pipeline pipe = deploy::compile_resnet18(net);
  std::printf("resnet-18 width %.3f, algo %s, batch %lld: %zu pipeline stages\n\n",
              static_cast<double>(width), f2 ? "F2" : "im2row", static_cast<long long>(batch),
              pipe.size());

  const Tensor x = Tensor::randn({batch, 3, 32, 32}, rng);
  pipe.run(x);  // warm-up (first-touch arena growth)

  const std::uint64_t transforms0 = backend::PerfCounters::weight_transforms.load();
  const std::uint64_t repacks0 = backend::PerfCounters::weight_repacks.load();

  // The breakdown averages each stage's StageTiming over the timed forwards.
  constexpr int kReps = 10;
  double total_ms = 0.0;
  std::vector<double> stage_ms(pipe.size(), 0.0);
  for (int rep = 0; rep < kReps; ++rep) {
    std::vector<deploy::StageTiming> timings;
    const auto t0 = std::chrono::steady_clock::now();
    pipe.run(x, &timings);
    const auto t1 = std::chrono::steady_clock::now();
    total_ms += std::chrono::duration<double, std::milli>(t1 - t0).count();
    for (std::size_t i = 0; i < timings.size(); ++i) stage_ms[i] += timings[i].ms / kReps;
  }

  std::printf("%-28s %10s %7s\n", "stage", "ms/fwd", "share");
  std::printf("%-28s %10s %7s\n", "-----", "------", "-----");
  double sum = 0.0;
  for (const double ms : stage_ms) sum += ms;
  std::map<std::string, double> by_kind;
  for (std::size_t i = 0; i < pipe.nodes().size(); ++i) {
    const std::string label = deploy::stage_where(pipe.nodes()[i], i);
    const double ms = stage_ms[i];
    std::printf("%-28s %10.4f %6.1f%%\n", label.c_str(), ms, 100.0 * ms / sum);
    // Aggregate by coarse kind: strip the network position from the label.
    std::string kind = "other";
    if (label.find(".add") != std::string::npos) kind = "skip-add";
    else if (label.find(".bn") != std::string::npos) kind = "batch-norm";
    else if (label.find("pool") != std::string::npos) kind = "max-pool";
    else if (label.find("shortcut") != std::string::npos) kind = "1x1 shortcut conv";
    else if (label.find("conv") != std::string::npos) kind = "3x3 conv";
    else if (label == "gap") kind = "avg-pool";
    else if (label == "fc") kind = "linear";
    by_kind[kind] += ms;
  }
  std::printf("\n%-28s %10.4f ms total (avg over %d forwards)\n\n", "", total_ms / kReps, kReps);

  std::printf("by stage kind:\n");
  std::string breakdown_json = "{";
  for (const auto& [kind, ms] : by_kind) {
    std::printf("  %-22s %10.4f ms  %5.1f%%\n", kind.c_str(), ms, 100.0 * ms / sum);
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": %.4f", breakdown_json.size() > 1 ? ", " : "",
                  kind.c_str(), ms);
    breakdown_json += buf;
  }
  char total_buf[64];
  std::snprintf(total_buf, sizeof(total_buf), ", \"total_ms\": %.4f", total_ms / kReps);
  breakdown_json += total_buf;
  breakdown_json += "}";
  {
    const std::string json_path = argc > 4 ? argv[4] : "BENCH_engine.json";
    if (bench::merge_json_section(json_path, "resnet_stage_breakdown", breakdown_json)) {
      std::printf("  merged section \"resnet_stage_breakdown\" into %s\n", json_path.c_str());
    }
  }

  std::printf("\nperf counters over the %d timed forwards: weight_transforms +%llu, "
              "weight_repacks +%llu (both must be 0: everything was prepared at load)\n",
              kReps,
              static_cast<unsigned long long>(backend::PerfCounters::weight_transforms.load() -
                                              transforms0),
              static_cast<unsigned long long>(backend::PerfCounters::weight_repacks.load() -
                                              repacks0));

  // ---- optimizer: planner-on vs planner-off ---------------------------------
  // Freeze the one remaining dynamic scale (fc logits) so both pipelines are
  // batch-composition independent and the planner's copy analysis is exact.
  pipe.freeze_scales(Tensor::randn({4, 3, 32, 32}, rng));
  deploy::Int8Pipeline optimized = pipe;
  deploy::passes::OptimizeOptions opt_opts;
  opt_opts.reference_input = {batch, 3, 32, 32};
  const deploy::passes::OptimizeReport report =
      deploy::passes::optimize_pipeline(optimized, opt_opts);

  deploy::RunStats stats_off{}, stats_on{};
  const Tensor base = pipe.run(x, nullptr, &stats_off);
  const Tensor opt_logits = optimized.run(x, nullptr, &stats_on);
  const float diff = Tensor::max_abs_diff(base, opt_logits);

  double off_ms = 0.0, on_ms = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    auto t0 = std::chrono::steady_clock::now();
    pipe.run(x);
    auto t1 = std::chrono::steady_clock::now();
    optimized.run(x);
    auto t2 = std::chrono::steady_clock::now();
    off_ms += std::chrono::duration<double, std::milli>(t1 - t0).count();
    on_ms += std::chrono::duration<double, std::milli>(t2 - t1).count();
  }

  const double reduction =
      stats_off.peak_activation_bytes > 0
          ? 100.0 * (1.0 - static_cast<double>(stats_on.peak_activation_bytes) /
                               static_cast<double>(stats_off.peak_activation_bytes))
          : 0.0;
  std::printf("\noptimizer (src/deploy/passes):\n");
  std::printf("  stages                 %4zu -> %zu (%zu fused, %zu dead removed)\n", pipe.size(),
              optimized.size(), report.fused_stages, report.removed_stages);
  std::printf("  latency                %.4f ms -> %.4f ms per forward (%.2fx)\n", off_ms / kReps,
              on_ms / kReps, off_ms / on_ms);
  std::printf("  peak activation bytes  %lld -> %lld (-%.1f%%, acceptance bar >= 30%%)\n",
              static_cast<long long>(stats_off.peak_activation_bytes),
              static_cast<long long>(stats_on.peak_activation_bytes), reduction);
  std::printf("  plan: peak %lld B, naive %lld B, in-place reuses %lld\n",
              static_cast<long long>(report.planned_peak_bytes),
              static_cast<long long>(report.naive_peak_bytes),
              static_cast<long long>(stats_on.inplace_reuses));
  std::printf("  logits max |diff| planner-on vs off: %g (must be 0 — bit-identical)\n",
              static_cast<double>(diff));
  if (diff != 0.F) {
    std::printf("ERROR: optimizer changed the logits\n");
    return 1;
  }

  // ---- F2 vs F4: agreement + per-stage latency ------------------------------
  // The per-tap requantization trajectory. Per-tensor F4 is the accuracy
  // cliff the paper's Table 1 documents at the kernel level; per-tap scale
  // vectors (tap_group_size=1) are what close it at deployment. Each config
  // is calibrated on the same data and compared against its own QAT eval
  // forward; latency is split out for the 16 searchable block convs (the
  // ".conv" stages — the only ones the algo choice touches).
  {
    const std::string json_path = argc > 4 ? argv[4] : "BENCH_engine.json";
    auto calib_spec = data::cifar10_like();
    calib_spec.train_size = 64;
    calib_spec.test_size = 96;
    const auto calib_set = data::generate(calib_spec, true);
    const auto eval_set = data::generate(calib_spec, false);

    struct ConfigResult {
      const char* key;
      double agreement = 0.0, total_ms = 0.0, conv3x3_ms = 0.0;
    };
    std::vector<ConfigResult> results;
    const Tensor bx = Tensor::randn({batch, 3, 32, 32}, rng);

    const auto run_config = [&](const char* key, nn::ConvAlgo algo, std::int64_t tap_group) {
      Rng crng(42);  // same init across configs: only the algo/grouping vary
      models::ResNetConfig ccfg;
      ccfg.width_mult = width;
      ccfg.qspec = quant::QuantSpec{8};
      ccfg.algo = algo;
      ccfg.tap_group_size = tap_group;
      models::ResNet18 cnet(ccfg, crng);
      cnet.set_training(true);
      data::DataLoader cloader(calib_set, 16, false);
      for (std::int64_t b = 0; b < cloader.batches(); ++b) {
        cnet.forward(ag::Variable(cloader.get(b).images, false));
      }
      const deploy::Int8Pipeline cpipe = deploy::compile_resnet18(cnet);

      // Agreement: deployed argmax vs the QAT eval forward's argmax.
      cnet.set_training(false);
      std::int64_t agree = 0, total = 0;
      data::DataLoader eloader(eval_set, 16, false);
      for (std::int64_t b = 0; b < eloader.batches(); ++b) {
        const auto eb = eloader.get(b);
        const auto deployed = cpipe.classify(eb.images);
        const Tensor logits = cnet.forward(ag::Variable(eb.images, false)).value();
        const std::int64_t classes = logits.numel() / logits.size(0);
        for (std::size_t i = 0; i < deployed.size(); ++i) {
          std::int64_t pred = 0;
          for (std::int64_t c = 1; c < classes; ++c) {
            if (logits.at(static_cast<std::int64_t>(i) * classes + c) >
                logits.at(static_cast<std::int64_t>(i) * classes + pred))
              pred = c;
          }
          agree += deployed[i] == pred;
          ++total;
        }
      }

      cpipe.run(bx);  // warm-up
      ConfigResult r;
      r.key = key;
      r.agreement = static_cast<double>(agree) / static_cast<double>(total);
      for (int rep = 0; rep < kReps; ++rep) {
        std::vector<deploy::StageTiming> timings;
        const auto t0 = std::chrono::steady_clock::now();
        cpipe.run(bx, &timings);
        const auto t1 = std::chrono::steady_clock::now();
        r.total_ms += std::chrono::duration<double, std::milli>(t1 - t0).count() / kReps;
        for (const auto& t : timings) {
          if (t.label.find(".conv") != std::string::npos) r.conv3x3_ms += t.ms / kReps;
        }
      }
      results.push_back(r);
    };
    run_config("f2", nn::ConvAlgo::kWinograd2, 0);
    run_config("f4_per_tensor", nn::ConvAlgo::kWinograd4, 0);
    run_config("f4_per_tap", nn::ConvAlgo::kWinograd4, 1);

    std::printf("\nF2 vs F4 (width %.3f, batch %lld, calibrated, %lld eval samples):\n",
                static_cast<double>(width), static_cast<long long>(batch),
                static_cast<long long>(calib_spec.test_size));
    std::printf("  %-16s %10s %12s %14s\n", "config", "agreement", "total ms", "3x3 conv ms");
    std::string json = "{\"width\": " + std::to_string(static_cast<double>(width)) +
                       ", \"batch\": " + std::to_string(static_cast<long long>(batch));
    for (const auto& r : results) {
      std::printf("  %-16s %9.4f %11.4f %13.4f\n", r.key, r.agreement, r.total_ms, r.conv3x3_ms);
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    ", \"%s\": {\"agreement\": %.4f, \"total_ms\": %.4f, \"conv3x3_ms\": %.4f}",
                    r.key, r.agreement, r.total_ms, r.conv3x3_ms);
      json += buf;
    }
    json += "}";
    if (bench::merge_json_section(json_path, "resnet_f2_vs_f4", json)) {
      std::printf("  merged section \"resnet_f2_vs_f4\" into %s\n", json_path.c_str());
    } else {
      std::printf("  WARNING: could not merge section into %s\n", json_path.c_str());
    }
  }
  return 0;
}
