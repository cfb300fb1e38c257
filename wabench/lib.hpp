// Shared machinery of the benchmark: order statistics and the tail picker,
// the seeded open-loop schedule, host probes (canary, peak RSS), benchmark
// spans and the layer ledger built from them, and the result report.
//
// Nothing here touches the program's internals: spans go through the
// public telemetry::Tracer, and every workload reaches a layer only through
// that layer's public header.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <map>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "telemetry/trace.hpp"

namespace wabench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

inline Clock::time_point after(Clock::time_point t, double seconds) {
  return t + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
}

// ---- order statistics -------------------------------------------------------

/// Nearest-rank percentile of `sorted` (ascending, non-empty); `bp` is the
/// percentile in basis points (9900 = p99). Integer rank arithmetic, so
/// p99 of 1000 samples is exactly the 990th value.
double percentile_bp(const std::vector<double>& sorted, int bp);

/// Samples strictly beyond the nearest-rank `bp` percentile of n samples.
std::size_t samples_beyond(std::size_t n, int bp);

/// The highest percentile of the ladder p50, p75, p90, p95, p99, p99.5,
/// p99.9 that leaves at least ten of `n` samples beyond it; 0 when even the
/// median does not (n < 20).
int pick_tail_bp(std::size_t n);

/// "p99", "p99.5", "p75".
std::string bp_name(int bp);

double median(std::vector<double> v);
double mean(const std::vector<double>& v);

/// Median and tail of one workload's unit latencies. The tail percentile is
/// picked from `planned`, the sample count the workload guarantees before it
/// stops, so every run of a workload reports the same percentile; a run
/// that collects more samples only leaves more than ten beyond it.
struct LatencySummary {
  std::size_t n = 0;
  int tail_bp = 0;
  std::size_t beyond = 0;
  double p50_ms = 0.0;
  double tail_ms = 0.0;
};
LatencySummary summarize(std::vector<double> ms, std::size_t planned);

// ---- seeded open-loop schedule ---------------------------------------------

/// One scheduled request: send offset from the phase start, model index
/// (0 for a third of requests, 1 for two thirds), priority class (0 high
/// 20%, 1 normal 70%, 2 low 10%) and which of the model's seeded inputs it
/// carries. An even model mix would put the median exactly between the two
/// models' latency modes, where a 1% shift in the realized mix moves p50 by
/// a quarter; at one third / two thirds it falls inside model 1's mode.
struct Arrival {
  std::uint64_t send_ns = 0;
  std::uint8_t model = 0;
  std::uint8_t priority = 1;
  std::uint8_t input = 0;
};

/// Draw the next request's model, priority and input from `mix` with integer
/// arithmetic only, so a seed gives the same bytes on every toolchain.
void draw_mix(std::mt19937_64& mix, int inputs_per_model, Arrival& a);

/// Poisson arrivals at `rate_per_s` (the program's PoissonArrivals, so the
/// gaps are byte-reproducible) until both `min_seconds` of schedule and
/// `min_count` arrivals exist, each with its draw_mix from a stream seeded
/// by `seed`.
std::vector<Arrival> make_schedule(std::uint64_t seed, double rate_per_s, double min_seconds,
                                   std::size_t min_count, int inputs_per_model);

// ---- host probes -------------------------------------------------------------

/// Median milliseconds of `rounds` runs of a fixed amount of integer and
/// floating-point work that calls no repository code: a drift gauge for the
/// host, not the program.
double canary_median_ms(int rounds);

/// VmHWM of this process in MiB (0 when /proc is unavailable).
double peak_rss_mb();

/// Return freed heap to the kernel and restart VmHWM at the current RSS, so
/// the peak covers set-up and the timed phase, not input generation.
void reset_peak_rss();

std::string cpu_model();

// ---- thread placement ----------------------------------------------------------

/// The CPUs this process may run on (read once, at the first call),
/// ascending. A "slot" below is an index into this list, taken modulo its
/// length, so a placement written for four CPUs still runs, doubled up,
/// where fewer are allowed.
const std::vector<int>& allowed_cpus();

/// Restrict the calling thread to the CPUs of `slots`. Threads it creates
/// afterwards inherit the mask, which is how the server's workers and the
/// frontend's loop thread are placed without reaching into the server.
void pin_thread(std::initializer_list<int> slots);

/// Set the calling thread's OpenMP team to `team` threads and pin team
/// thread k to slot k. The runtime reuses the same pool threads for later
/// regions of this size, so the placement holds for the whole run.
void pin_omp_team(int team);

/// "2,3": the CPU ids behind `slots`, for the run header.
std::string cpu_list(std::initializer_list<int> slots);

// ---- benchmark spans ---------------------------------------------------------

/// Where a benchmark span belongs: the request/forward/step id it shares with
/// the program's own spans (0 = tracing off) and its parent's name.
struct SpanCtx {
  std::uint64_t tid = 0;
  const char* parent = "";
  bool on() const { return tid != 0; }
};

/// Record [t0, t1] as a benchmark span through the program's tracer.
void emit_span(const std::string& name, const SpanCtx& ctx, Clock::time_point t0,
               Clock::time_point t1);

/// Run `fn`, record it as span `name` when `ctx` is traced, return its
/// wall time in milliseconds.
template <typename Fn>
double timed(const char* name, const SpanCtx& ctx, Fn&& fn) {
  const auto t0 = Clock::now();
  fn();
  const auto t1 = Clock::now();
  if (ctx.on()) emit_span(name, ctx, t0, t1);
  return ms_between(t0, t1);
}

// ---- layer ledger ------------------------------------------------------------

/// A collected span with its place in the tree: spans of one id nest by time
/// containment, which is how both the benchmark's and the program's spans
/// are laid out (a child starts and ends inside its parent).
struct LedgerSpan {
  std::string name;
  std::uint64_t tid = 0;
  std::int64_t ts_ns = 0;
  std::int64_t dur_ns = 0;
  int parent = -1;              ///< index into Ledger::spans, -1 = root
  std::vector<int> children;
  std::int64_t self_ns = 0;     ///< dur minus the part its children cover
};

struct Ledger {
  std::vector<LedgerSpan> spans;

  static Ledger build(const std::vector<wa::telemetry::Span>& raw);

  /// Sum of durations / self times of every span named `name` (or whose
  /// name starts with `name` when it ends in '*').
  std::int64_t total_ns(std::string_view name) const;
  std::int64_t self_total_ns(std::string_view name) const;
  std::size_t count(std::string_view name) const;
};

/// Closure of one parent/part relation: the spans named `parent` should be
/// covered by their direct children accepted by `is_part`. The relation
/// closes when, summed over all parents, |parents - parts| stays within
/// `tolerance` of the parents' time; single parents beyond it (a forward
/// preempted between two stages) are counted in `open`, not failed.
struct Closure {
  std::string relation;
  std::size_t parents = 0;
  std::size_t open = 0;    ///< parents individually beyond tolerance
  double gap = 0.0;        ///< |sum(parents) - sum(parts)| / sum(parents)
  double worst_gap = 0.0;  ///< largest single-parent gap
  double tolerance = 0.0;
  bool per_parent = true;  ///< false: only the means of both sides are known
  bool closes() const { return parents > 0 && gap <= tolerance; }
};
Closure check_closure(const Ledger& ledger, std::string_view parent,
                      const std::function<bool(const LedgerSpan&)>& is_part, double tolerance);

/// Closure of a relation whose parts carry no shared id with the parent, so
/// only the means of `parents` parent samples and of the parts compare.
Closure mean_closure(std::string relation, std::size_t parents, double parent_mean,
                     double parts_mean, double tolerance);

bool name_matches(std::string_view name, std::string_view pattern);

// ---- report --------------------------------------------------------------------

/// What one run measured. The last line the binary prints is this report as
/// one JSON object; everything before it is the human-readable ledger.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  void attempt(std::size_t n = 1) { attempted_ += n; }
  void fail(const std::string& why, std::size_t n = 1);
  bool correct() const { return failed_ == 0 && attempted_ > 0; }
  std::string json() const;

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  std::map<std::string, std::size_t> fail_reasons_;
};

}  // namespace wabench
