// train-wa-r18-f4: Winograd-aware QAT steps (paper §3) of ResNet-18 width
// 0.25, F4 per-tap with learned (flex) transforms, int8 fake-quant, batch
// 16, on a 2-thread OpenMP team. A step is Module::forward,
// ag::softmax_cross_entropy, Variable::backward and Adam::step.
#include <omp.h>

#include <cmath>
#include <cstdio>
#include <memory>

#include "autograd/ops.hpp"
#include "core/wa_conv2d.hpp"
#include "data/synthetic.hpp"
#include "models/resnet.hpp"
#include "nn/layers.hpp"
#include "tensor/gemm.hpp"
#include "train/optimizer.hpp"
#include "workloads.hpp"

namespace wabench {

using namespace wa;

namespace {

constexpr float kWidth = 0.25F;
constexpr int kTeam = 2;
constexpr std::int64_t kBatch = 16;
constexpr int kBatches = 8;
constexpr int kSetupRounds = 3;
constexpr std::size_t kPlannedSteps = 40;  // tail = p75
constexpr double kStepClosure = 0.05;      // step = forward + backward + optimizer

nn::Conv2dOptions wa_conv_options(nn::ConvAlgo algo) {
  nn::Conv2dOptions o;
  o.algo = algo;
  o.qspec = quant::QuantSpec{8};
  if (nn::is_winograd(algo)) {
    o.flex_transforms = true;
    o.tap_group_size = 1;
  }
  return o;
}

class Trainer {
 public:
  Trainer(models::ResNet18& net, Report& rep) : net_(net), rep_(rep) {}

  /// Set-up: a fresh optimizer over the model and one warm-up step.
  double setup(const data::Batch& b, std::uint64_t tid) {
    const auto t0 = Clock::now();
    opt_ = std::make_unique<train::Adam>(net_.parameters(), train::AdamOptions{});
    step(b, tid);
    const auto t1 = Clock::now();
    return ms_between(t0, t1) / 1e3;
  }

  /// One QAT step; milliseconds. A non-finite loss is a failed step.
  double step(const data::Batch& b, std::uint64_t tid) {
    const SpanCtx ctx{tid, "train.step"};
    const auto t0 = Clock::now();
    ag::Variable loss;
    timed("train.forward", ctx, [&] {
      loss = ag::softmax_cross_entropy(net_.forward(ag::Variable(b.images, false)), b.labels);
    });
    timed("train.backward", ctx, [&] {
      opt_->zero_grad();
      loss.backward();
    });
    timed("train.optimizer", ctx, [&] { opt_->step(); });
    const auto t1 = Clock::now();
    if (tid != 0) emit_span("train.step", SpanCtx{tid, ""}, t0, t1);
    rep_.attempt();
    if (!std::isfinite(loss.value().at(0))) rep_.fail("non-finite loss");
    return ms_between(t0, t1);
  }

 private:
  models::ResNet18& net_;
  Report& rep_;
  std::unique_ptr<train::Adam> opt_;
};

/// Median forward and backward milliseconds of one conv module called
/// directly on `x`.
std::pair<double, double> conv_fwd_bwd_ms(nn::Module& conv, const Tensor& x) {
  std::vector<double> fwd, bwd;
  for (int rep = 0; rep < 12; ++rep) {
    const ag::Variable in(x, true);
    const auto t0 = Clock::now();
    const ag::Variable y = conv.forward(in);
    const auto t1 = Clock::now();
    y.backward();
    const auto t2 = Clock::now();
    if (rep >= 2) {
      fwd.push_back(ms_between(t0, t1));
      bwd.push_back(ms_between(t1, t2));
    }
  }
  return {median(fwd), median(bwd)};
}

/// gemm_f32 on the training step's largest GEMM: the im2row stem forward,
/// rows [N*H*W, C*r*r] x W^T at batch 16 (16384 x 27 x stem channels).
double gemm_f32_gflops(std::int64_t out_channels, Rng& rng) {
  const std::int64_t m = kBatch * 32 * 32, n = out_channels, k = 3 * 3 * 3;
  const Tensor a = Tensor::randn({m, k}, rng);
  const Tensor b = Tensor::randn({n, k}, rng);
  Tensor c({m, n});
  std::vector<double> secs;
  for (int rep = 0; rep < 25; ++rep) {
    const auto t0 = Clock::now();
    gemm_f32(false, true, m, n, k, 1.F, a.raw(), b.raw(), 0.F, c.raw());
    if (rep >= 5) secs.push_back(ms_between(t0, Clock::now()) / 1e3);
  }
  return 2.0 * static_cast<double>(m * n * k) / median(secs) / 1e9;
}

}  // namespace

ThreadBudget train_budget() {
  return {kTeam, 0, 0, 0, 0, "team thread k on cpu k of " + cpu_list({0, 1})};
}

void run_train(const Options& opt, Report& rep) {
  pin_omp_team(kTeam);
  std::vector<double> canary{canary_median_ms(3)};

  // ---- inputs: seeded synthetic batches and the seeded float model --------
  auto spec = data::cifar10_like();
  spec.seed = opt.seed;
  spec.train_size = kBatch * kBatches;
  spec.test_size = kBatch;
  const data::Dataset ds = data::generate(spec, true);
  data::DataLoader loader(ds, kBatch, false);
  std::vector<data::Batch> batches;
  for (std::int64_t b = 0; b < loader.batches(); ++b) batches.push_back(loader.get(b));
  Rng rng(opt.seed);
  models::ResNetConfig cfg;
  cfg.width_mult = kWidth;
  cfg.algo = nn::ConvAlgo::kWinograd4;
  cfg.qspec = quant::QuantSpec{8};
  cfg.flex_transforms = true;
  cfg.tap_group_size = 1;
  models::ResNet18 net(cfg, rng);
  net.set_training(true);

  auto& tracer = telemetry::Tracer::instance();
  if (opt.trace) tracer.set_ring_capacity(std::size_t{1} << 16);
  reset_peak_rss();

  // ---- set-up: optimizer + warm-up step, several times --------------------
  Trainer trainer(net, rep);
  std::vector<double> setups;
  for (int r = 0; r < kSetupRounds; ++r) {
    setups.push_back(trainer.setup(batches[static_cast<std::size_t>(r) % batches.size()], 0));
  }
  const double setup_s = median(setups);

  // ---- timed steps ------------------------------------------------------------
  std::size_t next = kSetupRounds;
  const auto loop = [&](double seconds, std::size_t planned, bool traced) {
    std::vector<double> lat;
    const auto start = Clock::now();
    const auto until = after(start, seconds);
    const auto cap = after(start, 3 * seconds + 10);
    while ((Clock::now() < until || lat.size() < planned) && Clock::now() < cap) {
      const std::uint64_t tid = traced ? tracer.begin_trace().id : 0;
      lat.push_back(trainer.step(batches[next++ % batches.size()], tid));
    }
    return std::make_pair(lat, ms_between(start, Clock::now()) / 1e3);
  };

  if (!opt.trace) {
    const auto [lat, wall_s] = loop(opt.seconds, kPlannedSteps, false);
    canary.push_back(canary_median_ms(3));
    const LatencySummary s = summarize(lat, kPlannedSteps);
    const double items = static_cast<double>(lat.size() * kBatch) / wall_s;
    const double rss = peak_rss_mb();
    rep.metric("setup_s", setup_s, "s");
    rep.metric("p50_ms", s.p50_ms, "ms");
    rep.metric("tail_ms", s.tail_ms, "ms");
    rep.metric("items_per_s", items, "1/s");
    rep.metric("peak_rss_mb", rss, "MiB");
    print_e2e("training step", s, items, setup_s, rss);
    print_percentiles("training step", lat);
    report_canary(rep, canary, false);
    return;
  }

  // ---- traced run: untraced half, traced half, then the layer probes -------
  const std::vector<double> plain = loop(opt.seconds / 2, kPlannedSteps / 2, false).first;
  const std::vector<double> traced = loop(opt.seconds / 2, kPlannedSteps / 2, true).first;
  const Ledger ledger = Ledger::build(tracer.collect());
  const auto per_step_ms = [&](const char* name) {
    const std::size_t n = ledger.count(name);
    return n == 0 ? 0.0 : static_cast<double>(ledger.total_ns(name)) / 1e6 / n;
  };
  // The training path emits no spans of its own, so this relation sums the
  // benchmark's back-to-back timers: it only catches untimed work between
  // them, and is near an identity.
  const std::vector<Closure> closures = {
      check_closure(ledger, "train.step", [](const LedgerSpan&) { return true; }, kStepClosure)};

  // Probes at the stage-3 shape: one F4 flex WinogradAwareConv2d and the same
  // convolution as im2row, called directly.
  const std::int64_t ch = models::scaled_channels(256, kWidth);
  const Tensor x = Tensor::randn({kBatch, ch, 8, 8}, rng);
  nn::Conv2dOptions wo = wa_conv_options(nn::ConvAlgo::kWinograd4);
  wo.in_channels = wo.out_channels = ch;
  core::WinogradAwareConv2d waconv(wo, rng);
  nn::Conv2dOptions io = wa_conv_options(nn::ConvAlgo::kIm2row);
  io.in_channels = io.out_channels = ch;
  nn::Conv2d conv(io, rng);
  waconv.set_training(true);
  conv.set_training(true);
  const auto [wa_fwd, wa_bwd] = conv_fwd_bwd_ms(waconv, x);
  const auto [nn_fwd, nn_bwd] = conv_fwd_bwd_ms(conv, x);
  const double gflops = gemm_f32_gflops(models::scaled_channels(32, kWidth), rng);
  canary.push_back(canary_median_ms(3));

  std::printf("\nlayer ledger, per step (%zu traced steps):\n", ledger.count("train.step"));
  std::printf("  train.step %.2f ms = forward %.2f + backward %.2f + optimizer %.2f ms\n",
              per_step_ms("train.step"), per_step_ms("train.forward"),
              per_step_ms("train.backward"), per_step_ms("train.optimizer"));
  std::printf("  stage-3 conv [%lld,%lld,8,8]: WA F4 flex fwd %.3f / bwd %.3f ms, "
              "im2row fwd %.3f / bwd %.3f ms; gemm_f32 %.2f GFLOPS\n",
              static_cast<long long>(kBatch), static_cast<long long>(ch), wa_fwd, wa_bwd, nn_fwd,
              nn_bwd, gflops);

  rep.metric("train.forward_ms", per_step_ms("train.forward"), "ms");
  rep.metric("train.backward_ms", per_step_ms("train.backward"), "ms");
  rep.metric("train.optimizer_ms", per_step_ms("train.optimizer"), "ms");
  rep.metric("core.waconv_fwd_ms", wa_fwd, "ms");
  rep.metric("core.waconv_bwd_ms", wa_bwd, "ms");
  rep.metric("nn.conv_fwd_ms", nn_fwd, "ms");
  rep.metric("nn.conv_bwd_ms", nn_bwd, "ms");
  rep.metric("tensor.gemm_f32_gflops", gflops, "GFLOPS");
  rep.metric("trace.dropped", static_cast<double>(tracer.dropped()), "count");
  report_trace(rep, closures, summarize(plain, kPlannedSteps / 2).p50_ms,
               summarize(traced, kPlannedSteps / 2).p50_ms);
  report_canary(rep, canary, true);
}

}  // namespace wabench
