// infer-r18-f4-b1: the paper's deployment question, single-image latency on
// a couple of cores. A seeded, calibrated ResNet-18 (width 0.5, F4 per-tap,
// last stage F2) is compiled, frozen, optimized, saved to .wam and loaded
// back; one caller then runs Int8Pipeline::run at batch 1 in a closed loop
// on a 2-thread OpenMP team.
#include <omp.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <random>

#include "backend/conv_kernels_s8.hpp"
#include "backend/perf_counters.hpp"
#include "data/synthetic.hpp"
#include "serve/artifact.hpp"
#include "workloads.hpp"

namespace wabench {

using namespace wa;

namespace {

constexpr float kWidth = 0.5F;
constexpr int kTeam = 2;
constexpr int kSetupRounds = 5;
constexpr int kWarmupForwards = 3;
// The tail is picked from this guaranteed count (p90). On the reference
// host p95 and p99 of ten runs spread 27% and 56% (IQR over median): they
// measured the host's scheduling stalls, not the program.
constexpr std::size_t kPlannedForwards = 100;
constexpr double kForwardClosure = 0.05;        // forward = stages, within 5%

/// The float model the artifacts compile from: seeded init, observers and
/// batch-norm statistics warmed by training-mode forwards over seeded
/// synthetic images. Generating it is input generation, not set-up.
std::unique_ptr<models::ResNet18> calibrated_r18(nn::ConvAlgo algo, std::uint64_t seed,
                                                 const data::Dataset& calib) {
  Rng rng(seed);
  models::ResNetConfig cfg;
  cfg.width_mult = kWidth;
  cfg.algo = algo;
  cfg.qspec = quant::QuantSpec{8};
  cfg.tap_group_size = 1;  // per-tap scales: what makes F4 deployable
  auto net = std::make_unique<models::ResNet18>(cfg, rng);
  net->set_training(true);
  data::DataLoader loader(calib, 16, false);
  for (std::int64_t b = 0; b < loader.batches(); ++b) {
    net->forward(ag::Variable(loader.get(b).images, false));
  }
  return net;
}

struct Deployed {
  deploy::Int8Pipeline built;   ///< compiled + frozen + optimized, before save
  deploy::Int8Pipeline loaded;  ///< the same, back from .wam: what is timed
  double compile_s = 0, freeze_s = 0, optimize_s = 0, save_s = 0, load_s = 0, warmup_s = 0;
  double total_s = 0;
  std::int64_t wam_bytes = 0;
};

/// One pass of the deploy path, compile through warm-up.
Deployed deploy_once(models::ResNet18& net, const Tensor& calib, const Tensor& x,
                     const std::string& wam, std::uint64_t tid) {
  Deployed d;
  const SpanCtx ctx{tid, "deploy.setup"};
  const auto t0 = Clock::now();
  d.compile_s = timed("deploy.compile", ctx, [&] { d.built = deploy::compile_resnet18(net); });
  d.freeze_s = timed("deploy.freeze", ctx, [&] { d.built.freeze_scales(calib); });
  d.optimize_s = timed("deploy.optimize", ctx, [&] { optimize(d.built, x.shape()); });
  d.save_s = timed("serve.wam_save", ctx, [&] { serve::save_pipeline(wam, d.built); });
  d.load_s = timed("serve.wam_load", ctx, [&] { d.loaded = serve::load_pipeline(wam); });
  d.warmup_s = timed("deploy.warmup", ctx, [&] {
    for (int i = 0; i < kWarmupForwards; ++i) d.loaded.run(x);
  });
  const auto t1 = Clock::now();
  if (tid != 0) emit_span("deploy.setup", SpanCtx{tid, ""}, t0, t1);
  for (double* s : {&d.compile_s, &d.freeze_s, &d.optimize_s, &d.save_s, &d.load_s, &d.warmup_s}) {
    *s /= 1e3;
  }
  d.total_s = ms_between(t0, t1) / 1e3;
  d.wam_bytes = static_cast<std::int64_t>(std::filesystem::file_size(wam));
  return d;
}

/// Direct-convolution int8 ops (2 per MAC) of each conv stage at `input`.
std::vector<double> conv_ops(const deploy::Int8Pipeline& p, const Shape& input) {
  const auto shapes = deploy::passes::infer_value_shapes(p, input);
  std::vector<double> ops(p.size(), 0.0);
  for (std::size_t i = 0; i < p.size(); ++i) {
    const auto* c = std::get_if<deploy::ConvStage>(&p.nodes()[i].op);
    if (c == nullptr) continue;
    const Shape& y = shapes[i + 1];
    ops[i] = 2.0 * static_cast<double>(y[0] * y[1] * y[2] * y[3]) *
             static_cast<double>(c->in_channels / c->groups) *
             static_cast<double>(c->kernel * c->kernel);
  }
  return ops;
}

/// The conv's own name: the fusion pass joins fused labels with '+' and the
/// im2row compiler appends "+bn" to a folded norm, so a Winograd stage and
/// its im2row twin share the text before the first '+'.
std::string conv_key(const std::string& label) { return label.substr(0, label.find('+')); }

/// int8 GEMM ceiling of the team: every thread runs one fixed large
/// gemm_s8_s32 at once; the median of a few rounds.
double gemm_peak_gops(int team, std::uint64_t seed) {
  constexpr std::int64_t kM = 512, kN = 512, kK = 512;
  std::mt19937_64 rng(seed);
  std::vector<std::int8_t> a(kM * kK), b(kK * kN);
  for (auto& v : a) v = static_cast<std::int8_t>(static_cast<int>(rng() % 255) - 127);
  for (auto& v : b) v = static_cast<std::int8_t>(static_cast<int>(rng() % 255) - 127);
  std::vector<std::vector<std::int32_t>> c(team, std::vector<std::int32_t>(kM * kN));
  std::vector<double> secs;
  for (int rep = 0; rep < 8; ++rep) {
    const auto t0 = Clock::now();
#pragma omp parallel num_threads(team)
    backend::gemm_s8_s32(kM, kN, kK, a.data(), b.data(), c[omp_get_thread_num()].data());
    const auto t1 = Clock::now();
    if (rep > 0) secs.push_back(ms_between(t0, t1) / 1e3);
  }
  return static_cast<double>(team) * 2.0 * kM * kN * kK / median(secs) / 1e9;
}

/// Winograd stages' time vs the same stages compiled im2row: the im2row
/// twin is calibrated on the same images and timed forward for forward,
/// interleaved with the Winograd pipeline. Returns im2row / Winograd.
double wino_vs_im2row(const deploy::Int8Pipeline& wino, std::uint64_t seed,
                      const data::Dataset& calib_set, const Tensor& calib, const Tensor& x) {
  auto twin_net = calibrated_r18(nn::ConvAlgo::kIm2row, seed, calib_set);
  deploy::Int8Pipeline twin = deploy::compile_resnet18(*twin_net);
  twin.freeze_scales(calib);
  optimize(twin, x.shape());

  std::vector<std::string> keys;
  for (std::size_t i = 0; i < wino.size(); ++i) {
    if (stage_kind(wino.nodes()[i].op) == Kind::kWino) {
      keys.push_back(conv_key(deploy::stage_where(wino.nodes()[i], i)));
    }
  }
  const auto sum_keys = [&](const std::vector<deploy::StageTiming>& t) {
    double s = 0.0;
    for (const auto& st : t) {
      if (std::find(keys.begin(), keys.end(), conv_key(st.label)) != keys.end()) s += st.ms;
    }
    return s;
  };
  std::vector<double> ratios;
  std::vector<deploy::StageTiming> tw, ti;
  for (int rep = 0; rep < 40; ++rep) {
    wino.run(x, &tw);
    twin.run(x, &ti);
    if (rep >= 5) ratios.push_back(sum_keys(ti) / sum_keys(tw));
  }
  return median(std::move(ratios));
}

}  // namespace

ThreadBudget infer_budget() {
  return {kTeam, 0, 0, 0, 0, "team thread k on cpu k of " + cpu_list({0, 1})};
}

void run_infer(const Options& opt, Report& rep) {
  pin_omp_team(kTeam);
  std::vector<double> canary{canary_median_ms(3)};

  // ---- inputs: seeded synthetic images and the calibrated float model -----
  auto spec = data::cifar10_like();
  spec.seed = opt.seed;
  spec.train_size = 64;
  spec.test_size = 16;
  const data::Dataset calib_set = data::generate(spec, true);
  const data::Dataset images = data::generate(spec, false);
  const Tensor calib = images.images.slice0(0, 8);
  const Tensor x = images.images.slice0(8, 9);
  auto net = calibrated_r18(nn::ConvAlgo::kWinograd4, opt.seed, calib_set);
  const std::string wam = opt.workdir + "/infer-r18-f4-b1.wam";

  auto& tracer = telemetry::Tracer::instance();
  if (opt.trace) tracer.set_ring_capacity(std::size_t{1} << 19);
  reset_peak_rss();

  // ---- set-up: the deploy path, several times; the median is setup_s -------
  std::vector<Deployed> rounds;
  for (int r = 0; r < kSetupRounds; ++r) {
    const std::uint64_t tid = opt.trace ? tracer.begin_trace().id : 0;
    rounds.push_back(deploy_once(*net, calib, x, wam, tid));
    if (r + 1 < kSetupRounds) {  // keep only the last round's pipelines alive
      rounds.back().built = {};
      rounds.back().loaded = {};
    }
  }
  const auto med = [&](double Deployed::*f) {
    std::vector<double> v;
    for (const auto& d : rounds) v.push_back(d.*f);
    return median(std::move(v));
  };
  const double setup_s = med(&Deployed::total_s);
  const deploy::Int8Pipeline& pipe = rounds.back().loaded;

  // .wam round trip: the loaded pipeline must reproduce the compiled one.
  rep.attempt();
  const Tensor ref = pipe.run(x);
  if (!same_bits(rounds.back().built.run(x), ref)) rep.fail("wam round trip changed logits");
  rounds.back().built = {};

  // ---- timed closed loop at batch 1 ---------------------------------------
  const auto perf0 = backend::snapshot_counters();
  const auto loop = [&](double seconds, std::size_t planned, bool traced) {
    std::vector<double> lat;
    const auto start = Clock::now();
    const auto until = after(start, seconds);
    const auto cap = after(start, 3 * seconds + 10);
    while ((Clock::now() < until || lat.size() < planned) && Clock::now() < cap) {
      const SpanCtx ctx{traced ? tracer.begin_trace().id : 0, ""};
      const auto t0 = Clock::now();
      const Tensor y = pipe.run(x, nullptr, nullptr, telemetry::TraceContext{ctx.tid});
      const auto t1 = Clock::now();
      if (ctx.on()) emit_span("deploy.forward", ctx, t0, t1);
      lat.push_back(ms_between(t0, t1));
      rep.attempt();
      if (!same_bits(y, ref)) rep.fail("logits differ across forwards");
    }
    return std::make_pair(lat, ms_between(start, Clock::now()) / 1e3);
  };

  if (!opt.trace) {
    const auto [lat, wall_s] = loop(opt.seconds, kPlannedForwards, false);
    canary.push_back(canary_median_ms(3));
    const LatencySummary s = summarize(lat, kPlannedForwards);
    const double items = static_cast<double>(lat.size()) / wall_s;
    const double rss = peak_rss_mb();
    rep.metric("setup_s", setup_s, "s");
    rep.metric("p50_ms", s.p50_ms, "ms");
    rep.metric("tail_ms", s.tail_ms, "ms");
    rep.metric("items_per_s", items, "1/s");
    rep.metric("peak_rss_mb", rss, "MiB");
    print_e2e("forward", s, items, setup_s, rss);
    print_percentiles("forward", lat);
    report_canary(rep, canary, false);
    return;
  }

  // ---- traced run: untraced half, traced half, then the layer probes -------
  const std::vector<double> plain = loop(opt.seconds / 2, kPlannedForwards / 2, false).first;
  const std::vector<double> traced = loop(opt.seconds / 2, kPlannedForwards / 2, true).first;
  const auto perf1 = backend::snapshot_counters();
  const Ledger ledger = Ledger::build(tracer.collect());
  const std::uint64_t dropped = tracer.dropped();
  const double forwards = static_cast<double>(ledger.count("deploy.forward"));

  // Stage spans by kind, and the int8 ops the conv stages perform.
  const std::map<std::string, Kind> kinds = stage_kinds(pipe);
  const std::vector<double> ops = conv_ops(pipe, x.shape());
  double wino_ops = 0, im2row_ops = 0;
  for (std::size_t i = 0; i < pipe.size(); ++i) {
    (stage_kind(pipe.nodes()[i].op) == Kind::kWino ? wino_ops : im2row_ops) += ops[i];
  }
  double kind_ns[kKinds] = {};
  for (const auto& s : ledger.spans) {
    const auto it = kinds.find(s.name);
    if (it != kinds.end()) kind_ns[static_cast<int>(it->second)] += static_cast<double>(s.dur_ns);
  }
  const double per_fwd_ms = 1.0 / (forwards * 1e6);
  const double fwd_ms = static_cast<double>(ledger.total_ns("deploy.forward")) * per_fwd_ms;
  std::printf("\nlayer ledger, per forward (%.0f traced forwards):\n", forwards);
  std::printf("  %-26s %9.4f ms\n", "deploy.forward", fwd_ms);
  for (int k = 0; k < kKinds; ++k) {
    std::printf("    %-24s %9.4f ms  %5.1f%%\n",
                (std::string("deploy.") + kind_name(static_cast<Kind>(k))).c_str(),
                kind_ns[k] * per_fwd_ms, 100.0 * kind_ns[k] * per_fwd_ms / fwd_ms);
  }
  std::printf("    %-24s %9.4f ms  (forward self time: quantize, wiring, dequantize)\n",
              "deploy.forward self", static_cast<double>(ledger.self_total_ns("deploy.forward")) *
                                         per_fwd_ms);
  for (const char* ph : {"wino.scatter", "wino.gemm", "wino.requant", "wino.gather"}) {
    std::printf("      %-22s %9.4f ms\n", ph,
                static_cast<double>(ledger.total_ns(ph)) * per_fwd_ms);
  }

  const std::vector<Closure> closures = {check_closure(
      ledger, "deploy.forward", [](const LedgerSpan& s) { return name_matches(s.name, "stage:*"); },
      kForwardClosure)};

  deploy::RunStats rs;
  pipe.run(x, nullptr, &rs);
  const double gemm_peak = gemm_peak_gops(kTeam, opt.seed);
  const double speedup = wino_vs_im2row(pipe, opt.seed, calib_set, calib, x);
  canary.push_back(canary_median_ms(3));

  rep.metric("deploy.forward_ms", fwd_ms, "ms");
  rep.metric("deploy.wino_ms", kind_ns[0] * per_fwd_ms, "ms");
  rep.metric("deploy.im2row_ms", kind_ns[1] * per_fwd_ms, "ms");
  rep.metric("deploy.add_ms", kind_ns[2] * per_fwd_ms, "ms");
  rep.metric("deploy.pool_ms", kind_ns[3] * per_fwd_ms, "ms");
  rep.metric("deploy.other_ms", kind_ns[4] * per_fwd_ms, "ms");
  rep.metric("deploy.peak_act_bytes", static_cast<double>(rs.peak_activation_bytes), "bytes");
  rep.metric("deploy.plan_peak_bytes",
             pipe.plan() != nullptr ? static_cast<double>(pipe.plan()->peak_bytes) : 0.0,
             "bytes");
  rep.metric("deploy.compile_s", med(&Deployed::compile_s), "s");
  rep.metric("deploy.freeze_s", med(&Deployed::freeze_s), "s");
  rep.metric("deploy.optimize_s", med(&Deployed::optimize_s), "s");
  rep.metric("deploy.warmup_s", med(&Deployed::warmup_s), "s");
  rep.metric("serve.wam_save_s", med(&Deployed::save_s), "s");
  rep.metric("serve.wam_load_s", med(&Deployed::load_s), "s");
  rep.metric("serve.wam_bytes", static_cast<double>(rounds.back().wam_bytes), "bytes");
  rep.metric("backend.wino_gops", wino_ops * forwards / kind_ns[0], "GOPS");
  rep.metric("backend.im2row_gops", im2row_ops * forwards / kind_ns[1], "GOPS");
  rep.metric("backend.gemm_peak_gops", gemm_peak, "GOPS");
  rep.metric("backend.wino_vs_im2row", speedup, "x");
  rep.metric("backend.wino_scatter_ms",
             static_cast<double>(ledger.total_ns("wino.scatter")) * per_fwd_ms, "ms");
  rep.metric("backend.wino_gemm_ms", static_cast<double>(ledger.total_ns("wino.gemm")) * per_fwd_ms,
             "ms");
  rep.metric("backend.wino_requant_ms",
             static_cast<double>(ledger.total_ns("wino.requant")) * per_fwd_ms, "ms");
  rep.metric("backend.wino_gather_ms",
             static_cast<double>(ledger.total_ns("wino.gather")) * per_fwd_ms, "ms");
  rep.metric("backend.weight_transforms",
             static_cast<double>(perf1.weight_transforms - perf0.weight_transforms), "count");
  rep.metric("backend.weight_repacks",
             static_cast<double>(perf1.weight_repacks - perf0.weight_repacks), "count");
  rep.metric("trace.dropped", static_cast<double>(dropped), "count");
  std::printf("\nbackend: Winograd %.2f GOPS, im2row %.2f GOPS, int8 GEMM ceiling %.2f GOPS "
              "(%d threads); Winograd stages vs the same stages as im2row: %.3fx speed-up\n",
              wino_ops * forwards / kind_ns[0], im2row_ops * forwards / kind_ns[1], gemm_peak,
              kTeam, speedup);
  report_trace(rep, closures, summarize(plain, kPlannedForwards / 2).p50_ms,
               summarize(traced, kPlannedForwards / 2).p50_ms);
  report_canary(rep, canary, true);
}

}  // namespace wabench
