// Tests for the telemetry subsystem (src/telemetry): the lock-free metrics
// registry (counters / gauges / striped histograms, snapshot merging,
// Prometheus exposition), histogram quantiles vs the exact sorted-window
// percentiles they replaced in InferenceServer::stats, request-scoped
// tracing end to end (submit -> queue_wait -> coalesce -> dispatch ->
// pipeline stages -> blocked-Winograd phases), ring-buffer bounds, the
// tracing-changes-nothing bit-identity contract across SIMD backends, and a
// TSan-targeted hammer: concurrent traced clients vs snapshot readers.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <random>
#include <sstream>
#include <thread>
#include <vector>

#include "backend/conv_kernels_s8.hpp"
#include "backend/perf_counters.hpp"
#include "backend/simd/kernel_table.hpp"
#include "deploy/pipeline.hpp"
#include "serve/server.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"
#include "test_support.hpp"

namespace wa::telemetry {
namespace {

/// Restore tracer sampling + metrics gate after a test body that flips them;
/// every test leaves the process-global telemetry the way it found it.
struct TelemetryGuard {
  std::uint32_t sampling = Tracer::instance().sampling();
  bool metrics = metrics_enabled();
  ~TelemetryGuard() {
    Tracer::instance().set_sampling(sampling);
    set_metrics_enabled(metrics);
    Tracer::instance().clear();
  }
};

// ---- registry basics --------------------------------------------------------

TEST(MetricsRegistry, CountersGaugesHistogramsRoundTrip) {
  Registry reg;
  Counter c = reg.counter("t_requests_total");
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);

  Gauge g = reg.gauge("t_depth");
  g.set(3.0);
  EXPECT_DOUBLE_EQ(g.value(), 3.0);
  g.add(-1.5);
  EXPECT_DOUBLE_EQ(g.value(), 1.5);

  Histogram h = reg.histogram("t_latency", {1.0, 2.0, 4.0});
  h.observe(0.5);
  h.observe(3.0);
  h.observe(100.0);  // overflow bucket
  const HistogramSnapshot s = h.snapshot();
  ASSERT_EQ(s.counts.size(), 4u);
  EXPECT_EQ(s.counts[0], 1u);
  EXPECT_EQ(s.counts[2], 1u);
  EXPECT_EQ(s.counts[3], 1u);
  EXPECT_EQ(s.count, 3u);
  EXPECT_DOUBLE_EQ(s.sum, 103.5);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
  EXPECT_DOUBLE_EQ(s.mean(), 34.5);
}

TEST(MetricsRegistry, GetOrCreateIsIdempotentAndTypeChecked) {
  Registry reg;
  Counter a = reg.counter("t_shared");
  Counter b = reg.counter("t_shared");
  a.inc(5);
  EXPECT_EQ(b.value(), 5u);  // same cell

  EXPECT_THROW(reg.gauge("t_shared"), std::invalid_argument);
  EXPECT_THROW(reg.counter(""), std::invalid_argument);
  EXPECT_THROW(reg.histogram("t_h", {}), std::invalid_argument);
  EXPECT_THROW(reg.histogram("t_h2", {1.0, 1.0}), std::invalid_argument);
  // A histogram re-request ignores the bounds and returns the same cell.
  Histogram h1 = reg.histogram("t_h3", {1.0, 2.0});
  Histogram h2 = reg.histogram("t_h3", {9.0});
  h1.observe(1.5);
  EXPECT_EQ(h2.snapshot().count, 1u);
}

TEST(MetricsRegistry, ConcurrentCountersAreExact) {
  Registry reg;
  Counter c = reg.counter("t_conc_total");
  Histogram h = reg.histogram("t_conc_lat", exponential_bounds(0.01, 2.0, 16));
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        c.inc();
        h.observe(1.0);
      }
    });
  }
  for (auto& t : pool) t.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(h.snapshot().count, static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(MetricsRegistry, DisableGateStopsMutationsNotReads) {
  TelemetryGuard guard;
  Registry reg;
  Counter c = reg.counter("t_gated_total");
  c.inc(3);
  set_metrics_enabled(false);
  c.inc(100);
  Histogram h = reg.histogram("t_gated_lat", {1.0});
  h.observe(0.5);
  EXPECT_EQ(c.value(), 3u);  // reads still work, the writes were dropped
  EXPECT_EQ(h.snapshot().count, 0u);
  set_metrics_enabled(true);
  c.inc();
  EXPECT_EQ(c.value(), 4u);
}

TEST(MetricsRegistry, SnapshotAbsorbsBackendPerfCounters) {
  const Snapshot snap = Registry::global().snapshot();
  const MetricSnapshot* wt = snap.find("wa_backend_weight_transforms_total");
  const MetricSnapshot* wr = snap.find("wa_backend_weight_repacks_total");
  ASSERT_NE(wt, nullptr);
  ASSERT_NE(wr, nullptr);
  EXPECT_EQ(static_cast<std::uint64_t>(wt->value),
            backend::snapshot_counters().weight_transforms);
  // snapshot() returns name-sorted metrics.
  for (std::size_t i = 1; i < snap.metrics.size(); ++i) {
    EXPECT_LT(snap.metrics[i - 1].name, snap.metrics[i].name);
  }
}

// ---- quantiles --------------------------------------------------------------

TEST(HistogramQuantile, EdgeCases) {
  HistogramSnapshot empty;
  EXPECT_DOUBLE_EQ(empty.quantile(0.5), 0.0);

  Registry reg;
  Histogram h = reg.histogram("t_q", {1.0, 2.0, 4.0});
  h.observe(0.25);
  const HistogramSnapshot one = h.snapshot();
  // Single sample in [0, 1): every quantile interpolates inside that bucket
  // and stays positive — the ModelStats "p50 > 0 after one request" case.
  EXPECT_GT(one.quantile(0.5), 0.0);
  EXPECT_LE(one.quantile(0.99), 1.0);
  // Overflow bucket answers with the exact max.
  h.observe(1000.0);
  h.observe(1000.0);
  h.observe(1000.0);
  EXPECT_DOUBLE_EQ(h.snapshot().quantile(0.99), 1000.0);
  // Monotone in q — the p99 >= p95 >= p50 contract.
  const HistogramSnapshot s = h.snapshot();
  EXPECT_LE(s.quantile(0.50), s.quantile(0.95));
  EXPECT_LE(s.quantile(0.95), s.quantile(0.99));
}

TEST(HistogramQuantile, MinusWindowsCountsAndSum) {
  Registry reg;
  Histogram h = reg.histogram("t_win", {1.0, 2.0});
  h.observe(0.5);
  h.observe(1.5);
  const HistogramSnapshot base = h.snapshot();
  h.observe(1.5);
  h.observe(5.0);
  const HistogramSnapshot delta = h.snapshot().minus(base);
  EXPECT_EQ(delta.count, 2u);
  EXPECT_EQ(delta.counts[1], 1u);
  EXPECT_EQ(delta.counts[2], 1u);
  EXPECT_DOUBLE_EQ(delta.sum, 6.5);
}

TEST(PercentileSorted, EdgeCases) {
  EXPECT_DOUBLE_EQ(percentile_sorted({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(percentile_sorted({7.0}, 0.0), 7.0);
  EXPECT_DOUBLE_EQ(percentile_sorted({7.0}, 1.0), 7.0);
  const std::vector<double> v{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(percentile_sorted(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile_sorted(v, 1.0), 4.0);
  // Out-of-range q is clamped, never an out-of-bounds read.
  EXPECT_DOUBLE_EQ(percentile_sorted(v, -3.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile_sorted(v, 9.0), 4.0);
}

TEST(HistogramQuantile, TracksSortedPercentilesWithinBucketWidth) {
  // The regression the histogram replacement of the server's sorted latency
  // window must pass: p50/p95/p99 within one bucket width (edges grow 1.25x,
  // so <= 25% relative) of the exact nearest-rank percentiles.
  Registry reg;
  Histogram h = reg.histogram("t_reg", exponential_bounds(0.005, 1.25, 56));
  std::mt19937 rng(7);
  std::lognormal_distribution<double> lat(0.0, 0.75);  // ms-scale long tail
  std::vector<double> window;
  for (int i = 0; i < 4096; ++i) {
    const double v = lat(rng);
    window.push_back(v);
    h.observe(v);
  }
  std::sort(window.begin(), window.end());
  const HistogramSnapshot s = h.snapshot();
  for (const double q : {0.50, 0.95, 0.99}) {
    const double exact = percentile_sorted(window, q);
    EXPECT_NEAR(s.quantile(q), exact, 0.25 * exact) << "q=" << q;
  }
  EXPECT_DOUBLE_EQ(s.max, window.back());
}

// ---- prometheus exposition --------------------------------------------------

TEST(Prometheus, ExpositionFormat) {
  Registry reg;
  reg.counter("t_total{model=\"m\"}").inc(3);
  reg.gauge("t_depth").set(2.0);
  Histogram h = reg.histogram("t_lat{model=\"m\"}", {1.0, 2.0});
  h.observe(0.5);
  h.observe(1.5);
  h.observe(9.0);
  std::ostringstream os;
  write_prometheus(os, reg.snapshot());
  const std::string text = os.str();
  EXPECT_NE(text.find("# TYPE t_total counter"), std::string::npos);
  EXPECT_NE(text.find("t_total{model=\"m\"} 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE t_depth gauge"), std::string::npos);
  EXPECT_NE(text.find("t_depth 2"), std::string::npos);
  // Histogram: cumulative buckets with the label block merged, then sum/count.
  EXPECT_NE(text.find("t_lat_bucket{model=\"m\",le=\"1\"} 1"), std::string::npos);
  EXPECT_NE(text.find("t_lat_bucket{model=\"m\",le=\"2\"} 2"), std::string::npos);
  EXPECT_NE(text.find("t_lat_bucket{model=\"m\",le=\"+Inf\"} 3"), std::string::npos);
  EXPECT_NE(text.find("t_lat_count{model=\"m\"} 3"), std::string::npos);
}

// ---- EMA --------------------------------------------------------------------

TEST(EmaNs, WarmupMeanThenBlend) {
  EmaNs e;
  EXPECT_EQ(e.count(), 0u);
  // First kWarmup observations average arithmetically.
  for (int i = 1; i <= 4; ++i) e.observe(100 * i);
  EXPECT_DOUBLE_EQ(e.value_ns(), 250.0);  // mean of 100..400
  EXPECT_EQ(e.count(), 4u);
  // Steady state: blends toward new values without jumping.
  EmaNs f;
  for (int i = 0; i < 64; ++i) f.observe(1000);
  EXPECT_DOUBLE_EQ(f.value_ns(), 1000.0);
  f.observe(9000);
  EXPECT_GT(f.value_ns(), 1000.0);
  EXPECT_LT(f.value_ns(), 9000.0);
  // Copyable.
  const EmaNs g = f;
  EXPECT_DOUBLE_EQ(g.value_ns(), f.value_ns());
}

// ---- tracer -----------------------------------------------------------------

TEST(Tracer, SamplingEveryNth) {
  TelemetryGuard guard;
  auto& tracer = Tracer::instance();
  tracer.set_sampling(0);
  EXPECT_FALSE(tracer.sample().valid());
  tracer.set_sampling(1);
  EXPECT_TRUE(tracer.sample().valid());
  tracer.set_sampling(4);
  int sampled = 0;
  for (int i = 0; i < 40; ++i) sampled += tracer.sample().valid() ? 1 : 0;
  EXPECT_EQ(sampled, 10);
  // begin_trace mints regardless of the rate, with distinct ids.
  tracer.set_sampling(0);
  const TraceContext a = tracer.begin_trace();
  const TraceContext b = tracer.begin_trace();
  EXPECT_TRUE(a.valid());
  EXPECT_NE(a.id, b.id);
}

TEST(Tracer, RingOverwritesOldestAndCountsDrops) {
  TelemetryGuard guard;
  auto& tracer = Tracer::instance();
  tracer.clear();
  const std::size_t cap0 = tracer.ring_capacity();
  tracer.set_ring_capacity(8);
  const std::uint64_t emitted0 = tracer.emitted();
  // Fresh thread -> fresh ring at the small capacity.
  std::thread([&] {
    for (int i = 0; i < 20; ++i) {
      tracer.emit({"ring_test_" + std::to_string(i), "test", 1, i, 1, {}});
    }
  }).join();
  tracer.set_ring_capacity(cap0);
  EXPECT_EQ(tracer.emitted() - emitted0, 20u);
  EXPECT_GE(tracer.dropped(), 12u);
  const std::vector<Span> spans = tracer.collect();
  int mine = 0;
  bool saw_newest = false;
  for (const Span& s : spans) {
    if (s.name.rfind("ring_test_", 0) == 0) {
      ++mine;
      saw_newest = saw_newest || s.name == "ring_test_19";
    }
  }
  EXPECT_EQ(mine, 8);  // bounded at capacity...
  EXPECT_TRUE(saw_newest);  // ...holding the most recent window
}

TEST(Tracer, ChromeTraceWriterEmitsLoadableJson) {
  std::vector<Span> spans;
  spans.push_back({"request", "serve", 7, 1000, 5000, "\"batch\":2"});
  spans.push_back({"weird \"name\"\n", "", 7, 2000, 1000, {}});
  std::ostringstream os;
  write_chrome_trace(os, spans);
  const std::string text = os.str();
  EXPECT_EQ(text.find("{\"traceEvents\":["), 0u);
  EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(text.find("\"tid\":7"), std::string::npos);
  EXPECT_NE(text.find("\"ts\":1.000"), std::string::npos);  // ns -> us
  EXPECT_NE(text.find("\"dur\":5.000"), std::string::npos);
  EXPECT_NE(text.find("\"args\":{\"batch\":2}"), std::string::npos);
  EXPECT_NE(text.find("weird \\\"name\\\"\\n"), std::string::npos);
  EXPECT_NE(text.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
}

// ---- end-to-end: server + pipeline + kernel ---------------------------------

/// Frozen F2 Winograd conv pipeline — blocked-executor path, so traced runs
/// must produce wino.* phase sub-spans.
deploy::Int8Pipeline wino_pipeline(Rng& rng) {
  deploy::ConvStage st;
  st.algo = nn::ConvAlgo::kWinograd2;
  st.in_channels = 3;
  st.out_channels = 8;
  st.kernel = 3;
  st.pad = 1;
  st.input_scale = 0.05F;
  st.weights_f = Tensor::randn({8, 3, 3, 3}, rng, 0.3F);
  st.transforms = wino::make_transforms(2, 3);
  st.stage_scales.input_transformed = 0.06F;
  st.stage_scales.hadamard = 0.02F;
  st.stage_scales.output = 0.1F;
  st.output_scale = 0.1F;
  st.relu_after = true;
  deploy::Int8Pipeline pipe;
  pipe.push(std::move(st));
  return pipe;
}

/// wino_pipeline's conv over an [batch, 3, 8, 8] input.
backend::ConvGeometry wino_geometry(std::int64_t batch) {
  backend::ConvGeometry g;
  g.batch = batch;
  g.in_channels = 3;
  g.height = 8;
  g.width = 8;
  g.out_channels = 8;
  g.kernel = 3;
  g.pad = 1;
  return g;
}

TEST(TracingEndToEnd, ServerRequestNestsQueueCoalesceDispatchStages) {
  TelemetryGuard guard;
  auto& tracer = Tracer::instance();
  tracer.set_sampling(1);
  tracer.clear();

  Rng rng(5);
  serve::ServerOptions opts;
  opts.workers = 1;
  serve::InferenceServer server(opts);
  server.add_model("traced", wino_pipeline(rng));
  const Tensor x = Tensor::randn({1, 3, 8, 8}, rng);
  server.submit("traced", x).get();
  const serve::ModelStats stats = server.stats("traced");
  server.shutdown();

  const std::vector<Span> spans = tracer.collect();
  const Span* request = nullptr;
  for (const Span& s : spans) {
    if (s.name == "request") request = &s;
  }
  ASSERT_NE(request, nullptr);
  const std::uint64_t tid = request->tid;
  const std::int64_t req_end = request->ts_ns + request->dur_ns;

  bool saw_queue = false, saw_coalesce = false, saw_dispatch = false, saw_stage = false,
       saw_wino = false, saw_wait = false;
  for (const Span& s : spans) {
    if (s.tid != tid) continue;
    // Every span of the trace nests inside the request interval.
    EXPECT_GE(s.ts_ns, request->ts_ns) << s.name;
    EXPECT_LE(s.ts_ns + s.dur_ns, req_end) << s.name;
    saw_queue = saw_queue || s.name == "queue_wait";
    saw_coalesce = saw_coalesce || s.name == "coalesce";
    saw_dispatch = saw_dispatch || s.name == "dispatch";
    saw_stage = saw_stage || s.name.rfind("stage:", 0) == 0;
    saw_wino = saw_wino || s.name.rfind("wino.", 0) == 0;
    saw_wait = saw_wait || s.name == "wino.wait";
  }
  EXPECT_TRUE(saw_queue);
  EXPECT_TRUE(saw_coalesce);
  EXPECT_TRUE(saw_dispatch);
  EXPECT_TRUE(saw_stage);
  EXPECT_TRUE(saw_wino);
  EXPECT_TRUE(saw_wait);

  // The request span and the server's measured latency are the same
  // interval (acceptance bar: within 5%).
  const double span_ms = static_cast<double>(request->dur_ns) / 1e6;
  EXPECT_NEAR(span_ms, stats.latency.max_ms, 0.05 * stats.latency.max_ms + 1e-6);
}

TEST(TracingEndToEnd, LogitsBitIdenticalTracedOrNotAcrossBackends) {
  TelemetryGuard guard;
  auto& tracer = Tracer::instance();
  Rng rng(17);
  const deploy::Int8Pipeline pipe = wino_pipeline(rng);
  const Tensor x = Tensor::randn({2, 3, 8, 8}, rng);

  // The pipeline's one Winograd stage, for direct calls of the flat sequence.
  const auto& st = std::get<deploy::ConvStage>(pipe.nodes().front().op);
  const backend::QTensor qx = backend::quantize_s8(x, st.input_scale);
  const backend::ConvGeometry g = wino_geometry(2);

  const std::string active = backend::simd::active_backend();
  for (const auto& b : backend::simd::available_backends()) {
    backend::simd::set_backend(b);
    tracer.set_sampling(0);
    const Tensor plain = pipe.run(x);
    tracer.set_sampling(1);
    const Tensor traced = pipe.run(x, nullptr, nullptr, tracer.begin_trace());
    EXPECT_EQ(Tensor::max_abs_diff(plain, traced), 0.F) << "backend " << b;
    // The flat sequence must give the same bytes with its phase clock on.
    backend::WinoPhaseNs phase_ns;
    const backend::QTensor flat_plain =
        backend::winograd_conv_s8_flat(qx, st.wino_cache, g, st.transforms, st.stage_scales);
    const backend::QTensor flat_traced = backend::winograd_conv_s8_flat(
        qx, st.wino_cache, g, st.transforms, st.stage_scales, nullptr, nullptr, &phase_ns);
    EXPECT_EQ(flat_plain.data, flat_traced.data) << "backend " << b << " (flat)";
    EXPECT_EQ(flat_plain.scale, flat_traced.scale) << "backend " << b << " (flat)";
    EXPECT_GT(phase_ns.total(), 0) << "backend " << b << " (flat)";
    EXPECT_EQ(phase_ns.wait.load(), 0) << "backend " << b << ": the flat sequence has no barrier";
  }
  backend::simd::set_backend(active);
}

TEST(TracingEndToEnd, BlockedWinogradTimesItsBarrierWaitApartFromScatter) {
  // Under a team of 2 each thread reads the clock on both sides of a tile
  // block's barrier, so the wait is a phase of its own, never scatter.
  Rng rng(19);
  const deploy::Int8Pipeline pipe = wino_pipeline(rng);
  const auto& st = std::get<deploy::ConvStage>(pipe.nodes().front().op);
  const backend::QTensor qx =
      backend::quantize_s8(Tensor::randn({2, 3, 8, 8}, rng), st.input_scale);
  const test_support::TeamSizeScope team(2);
  backend::WinoPhaseNs phase_ns;
  backend::winograd_conv_s8_prepared(qx, st.wino_cache, wino_geometry(2), st.transforms,
                                     st.stage_scales, nullptr, nullptr, &phase_ns);
  EXPECT_GT(phase_ns.wait.load(), 0);
  EXPECT_GT(phase_ns.scatter.load(), 0);
  EXPECT_GT(phase_ns.gemm.load(), 0);
}

TEST(TracingEndToEnd, HammerTracedClientsVsSnapshotReaders) {
  // The TSan target: 4 client threads submitting traced requests while
  // readers pull registry snapshots and span collections mid-traffic.
  TelemetryGuard guard;
  auto& tracer = Tracer::instance();
  tracer.set_sampling(1);
  tracer.clear();
  const std::uint64_t emitted0 = tracer.emitted();
  const std::uint64_t dropped0 = tracer.dropped();

  Rng rng(23);
  serve::ServerOptions opts;
  opts.workers = 2;
  opts.batch.max_batch = 4;
  opts.batch.max_delay_us = 100;
  serve::InferenceServer server(opts);
  server.add_model("hammer", wino_pipeline(rng));

  constexpr int kClients = 4;
  constexpr int kPerClient = 16;
  std::atomic<bool> done{false};
  std::vector<std::thread> readers;
  for (int i = 0; i < 2; ++i) {
    readers.emplace_back([&] {
      std::uint64_t last_requests = 0;
      while (!done.load()) {
        const Snapshot snap = Registry::global().snapshot();
        const MetricSnapshot* req = snap.find("wa_serve_requests_total{model=\"hammer\"}");
        if (req != nullptr) {
          // Counters are monotone even while 4 clients hammer them.
          EXPECT_GE(static_cast<std::uint64_t>(req->value), last_requests);
          last_requests = static_cast<std::uint64_t>(req->value);
        }
        (void)tracer.collect();
        (void)server.stats("hammer");
      }
    });
  }
  std::vector<std::thread> clients;
  Tensor input = Tensor::randn({1, 3, 8, 8}, rng);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&server, &input] {
      for (int i = 0; i < kPerClient; ++i) server.submit("hammer", input).get();
    });
  }
  for (auto& t : clients) t.join();
  done.store(true);
  for (auto& t : readers) t.join();

  const serve::ModelStats stats = server.stats("hammer");
  EXPECT_EQ(stats.requests, static_cast<std::uint64_t>(kClients) * kPerClient);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_GE(stats.latency.p99_ms, stats.latency.p50_ms);
  EXPECT_GT(stats.latency.p50_ms, 0.0);
  server.shutdown();

  // Well under the default ring capacity: nothing may be dropped, and the
  // collected window holds every span emitted by the hammer.
  EXPECT_EQ(tracer.dropped(), dropped0);
  std::uint64_t collected = 0;
  for (const Span& s : tracer.collect()) {
    (void)s;
    ++collected;
  }
  EXPECT_EQ(collected, tracer.emitted() - emitted0);
}

TEST(TracingEndToEnd, DumpMetricsExposesServerSeries) {
  Rng rng(29);
  serve::ServerOptions opts;
  opts.workers = 1;
  serve::InferenceServer server(opts);
  server.add_model("dumped", wino_pipeline(rng));
  server.submit("dumped", Tensor::randn({1, 3, 8, 8}, rng)).get();
  server.shutdown();
  std::ostringstream os;
  serve::dump_metrics(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("wa_serve_requests_total{model=\"dumped\"}"), std::string::npos);
  EXPECT_NE(text.find("wa_serve_latency_ms_bucket{model=\"dumped\",le="), std::string::npos);
  EXPECT_NE(text.find("wa_backend_weight_transforms_total"), std::string::npos);
}

}  // namespace
}  // namespace wa::telemetry
