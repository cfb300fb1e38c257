// Lock-free metrics registry: named counters, gauges and fixed-bucket
// histograms shared by the serving stack, the deployment engine and the
// benches — the one snapshot API behind InferenceServer::stats,
// serve::dump_metrics and the BENCH_*.json sections.
//
// Hot-path design (the serving requirement is "always on, < 1% throughput"):
//   - every mutation is a relaxed atomic op on per-thread *striped* storage —
//     threads hash to one of kStripes cache-line-padded stripes, so
//     concurrent writers almost never contend on a line and NEVER take a
//     lock (floating-point sum/max stripes use lock-free CAS loops);
//   - reads merge the stripes at snapshot() time, which is the only place
//     the registry's creation mutex is touched — monitoring pays the cost,
//     inference does not;
//   - handles (Counter/Gauge/Histogram) are trivially-copyable pointers into
//     registry-owned cells with stable addresses; the registry never deletes
//     a cell, so a handle outlives any server/pipeline holding it.
//
// Like backend::PerfCounters (whose counters this registry's snapshot
// absorbs), stripes are monotone relaxed atomics: a snapshot is not a
// consistent cut across metrics, but any single counter observed flat across
// a window proves no thread performed that operation inside the window.
//
// Naming scheme (docs/OBSERVABILITY.md): Prometheus-style
// `wa_<layer>_<what>[_total]{label="value"}` — the optional {labels} suffix
// is carried verbatim in the metric name and split out by the text
// exposition writer.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace wa::telemetry {

/// Global on/off for the metric mutation paths. Defaults to on; WA_METRICS=0
/// (or set_metrics_enabled(false)) turns every inc/set/observe into a cheap
/// early-out — the control the serve_throughput bench's A/B overhead section
/// flips to price the always-on path. Snapshots keep working either way.
bool metrics_enabled();
void set_metrics_enabled(bool on);

/// Stripe count for per-thread sharded storage. Threads are assigned
/// round-robin at first use; 16 stripes keep a 4-worker server plus its
/// clients effectively contention-free while bounding merge cost.
inline constexpr std::size_t kStripes = 16;

inline std::size_t shard_index() {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t idx = next.fetch_add(1, std::memory_order_relaxed) % kStripes;
  return idx;
}

/// Lock-free add/max on an atomic double (CAS loop — x86-64 LOCK CMPXCHG;
/// no mutex anywhere on the mutation path).
inline void atomic_add_double(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
  }
}
inline void atomic_max_double(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (cur < v && !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

enum class MetricType : std::uint8_t { kCounter, kGauge, kHistogram };

namespace detail {

struct alignas(64) CounterStripe {
  std::atomic<std::uint64_t> v{0};
};

struct alignas(64) HistStripe {
  std::atomic<double> sum{0.0};
  std::atomic<double> max{0.0};  // meaningful for the non-negative values we record
};

/// One registered metric. Owned by the Registry (stable address, never
/// freed); handles below are thin pointers into it.
struct MetricCell {
  std::string name;
  MetricType type = MetricType::kCounter;

  // Counter: per-stripe monotone partial sums.
  std::array<CounterStripe, kStripes> stripes;

  // Gauge: last-write-wins single cell (set() semantics cannot stripe).
  std::atomic<double> gauge{0.0};

  // Histogram: `bounds` are the inclusive upper edges of the first
  // bounds.size() buckets; one implicit overflow bucket follows. Bucket
  // counts are striped with the per-stripe rows padded apart.
  std::vector<double> bounds;
  std::size_t bucket_stride = 0;  // bounds.size()+1 rounded up to a cache line
  std::vector<std::atomic<std::uint64_t>> bucket_counts;  // [kStripes * bucket_stride]
  std::array<HistStripe, kStripes> hist;

  std::size_t bucket_of(double v) const {
    std::size_t b = 0;
    while (b < bounds.size() && v > bounds[b]) ++b;
    return b;  // == bounds.size() -> overflow bucket
  }
};

}  // namespace detail

/// Merged view of one histogram: counts has bounds.size()+1 entries (the
/// last is the overflow bucket).
struct HistogramSnapshot {
  std::vector<double> bounds;
  std::vector<std::uint64_t> counts;
  double sum = 0.0;
  double max = 0.0;
  std::uint64_t count = 0;

  /// Quantile estimate by linear interpolation inside the owning bucket
  /// (rank q*count walked over the cumulative counts; the overflow bucket
  /// answers with `max`). Empty histogram -> 0. Monotone in q by
  /// construction — the property InferenceServer::stats relies on for
  /// p99 >= p50.
  double quantile(double q) const;
  double mean() const { return count > 0 ? sum / static_cast<double>(count) : 0.0; }

  /// Counts/sum/count delta vs an earlier snapshot of the same histogram —
  /// how a per-registration window (e.g. "latency since this model was
  /// added") is carved out of process-lifetime cells. `max` cannot be
  /// windowed and is returned as-is; callers needing a windowed max track
  /// it themselves.
  HistogramSnapshot minus(const HistogramSnapshot& base) const;
};

struct MetricSnapshot {
  std::string name;
  MetricType type = MetricType::kCounter;
  double value = 0.0;  // counter total or gauge level
  HistogramSnapshot hist;
};

struct Snapshot {
  std::vector<MetricSnapshot> metrics;  // sorted by name
  const MetricSnapshot* find(std::string_view name) const;
};

// ---- handles ---------------------------------------------------------------

class Counter {
 public:
  Counter() = default;
  void inc(std::uint64_t n = 1) const {
    if (cell_ == nullptr || !metrics_enabled()) return;
    cell_->stripes[shard_index()].v.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const;
  bool valid() const { return cell_ != nullptr; }

 private:
  friend class Registry;
  explicit Counter(detail::MetricCell* c) : cell_(c) {}
  detail::MetricCell* cell_ = nullptr;
};

class Gauge {
 public:
  Gauge() = default;
  void set(double v) const {
    if (cell_ == nullptr || !metrics_enabled()) return;
    cell_->gauge.store(v, std::memory_order_relaxed);
  }
  void add(double v) const {
    if (cell_ == nullptr || !metrics_enabled()) return;
    atomic_add_double(cell_->gauge, v);
  }
  double value() const;
  bool valid() const { return cell_ != nullptr; }

 private:
  friend class Registry;
  explicit Gauge(detail::MetricCell* c) : cell_(c) {}
  detail::MetricCell* cell_ = nullptr;
};

class Histogram {
 public:
  Histogram() = default;
  void observe(double v) const {
    if (cell_ == nullptr || !metrics_enabled()) return;
    const std::size_t s = shard_index();
    cell_->bucket_counts[s * cell_->bucket_stride + cell_->bucket_of(v)].fetch_add(
        1, std::memory_order_relaxed);
    atomic_add_double(cell_->hist[s].sum, v);
    atomic_max_double(cell_->hist[s].max, v);
  }
  HistogramSnapshot snapshot() const;
  bool valid() const { return cell_ != nullptr; }

 private:
  friend class Registry;
  explicit Histogram(detail::MetricCell* c) : cell_(c) {}
  detail::MetricCell* cell_ = nullptr;
};

// ---- registry --------------------------------------------------------------

class Registry {
 public:
  /// The process-wide registry (leaked singleton: handles and the exporters
  /// stay valid through static destruction). Tests that need isolation can
  /// construct their own Registry.
  static Registry& global();

  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Get-or-create by full name (including any {label} suffix). Creation
  /// takes the registry mutex once; the returned handle's mutations never
  /// do. Re-requesting an existing name returns a handle to the same cell
  /// (a re-registered model continues its series — Prometheus semantics);
  /// requesting it with a different type throws std::invalid_argument.
  Counter counter(const std::string& name);
  Gauge gauge(const std::string& name);
  /// `bounds` must be strictly increasing upper bucket edges. A histogram
  /// re-request ignores `bounds` and returns the existing cell.
  Histogram histogram(const std::string& name, std::vector<double> bounds);

  /// Merge every cell's stripes into plain values. The global registry's
  /// snapshot also absorbs backend::PerfCounters (weight transforms /
  /// repacks) as `wa_backend_*_total` counters, so the one snapshot API
  /// covers the kernel-layer counters too.
  Snapshot snapshot() const;

  /// Zero every stripe/gauge (unit tests only — not for production use;
  /// counters are contractually monotone).
  void reset_for_tests();

 private:
  detail::MetricCell* get_or_create(const std::string& name, MetricType type,
                                    std::vector<double> bounds);
  mutable std::mutex mu_;  // creation + snapshot only; never on a mutation path
  std::map<std::string, std::unique_ptr<detail::MetricCell>> cells_;
};

/// Prometheus text exposition of a snapshot: `# TYPE` headers, `_bucket`
/// cumulative rows with `le=` labels, `_sum`/`_count` for histograms. Metric
/// names of the form `base{labels}` have the label block merged into each
/// emitted sample's labels.
void write_prometheus(std::ostream& os, const Snapshot& snap);

/// Bucket-edge helper: n exponentially spaced bounds starting at `first`
/// (first, first*factor, ...). The default latency edges used by the server.
std::vector<double> exponential_bounds(double first, double factor, std::size_t n);

/// Nearest-rank percentile over an ASCENDING-sorted window — the exact math
/// InferenceServer::stats used on its latency window before the histogram
/// replaced it, kept as the reference implementation the regression tests
/// compare histogram quantiles against. Edge cases pinned: empty -> 0,
/// single sample -> that sample for every q, and the rank is clamped into
/// range for any q in [0, 1].
double percentile_sorted(const std::vector<double>& sorted, double q);

/// Copyable relaxed-atomic EMA cell in nanoseconds — the inference server's
/// per-model dispatch-time estimate, which its deadline admission reads.
/// The first kWarmup observations average arithmetically
/// (so short profiling runs converge immediately), then updates blend with
/// alpha = 1/kWarmup. observe() applies each blend via a compare-exchange
/// loop, so concurrent observers never lose an update (the blend order under
/// contention is unspecified, which is fine for a smoothed estimate).
class EmaNs {
 public:
  static constexpr std::uint64_t kWarmup = 8;

  EmaNs() = default;
  EmaNs(const EmaNs& o)
      : count_(o.count_.load(std::memory_order_relaxed)),
        value_(o.value_.load(std::memory_order_relaxed)) {}
  EmaNs& operator=(const EmaNs& o) {
    count_.store(o.count_.load(std::memory_order_relaxed), std::memory_order_relaxed);
    value_.store(o.value_.load(std::memory_order_relaxed), std::memory_order_relaxed);
    return *this;
  }

  void observe(std::int64_t ns) {
    const std::uint64_t n = count_.fetch_add(1, std::memory_order_relaxed) + 1;
    const double k = static_cast<double>(n <= kWarmup ? n : kWarmup);
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + (static_cast<double>(ns) - cur) / k,
                                         std::memory_order_relaxed)) {
    }
  }
  double value_ns() const { return value_.load(std::memory_order_relaxed); }
  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> value_{0.0};
};

}  // namespace wa::telemetry
