#include "lib.hpp"

#include <malloc.h>
#include <omp.h>
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "serve/net/poisson.hpp"

namespace wabench {

// ---- order statistics -------------------------------------------------------

namespace {

constexpr int kTailLadder[] = {5000, 7500, 9000, 9500, 9900, 9950, 9990};
constexpr std::size_t kMinBeyond = 10;

/// 1-based nearest rank: ceil(bp * n / 10000) in integers.
std::size_t nearest_rank(std::size_t n, int bp) {
  const auto num = static_cast<std::uint64_t>(bp) * n;
  return std::max<std::size_t>(1, static_cast<std::size_t>((num + 9999) / 10000));
}

}  // namespace

double percentile_bp(const std::vector<double>& sorted, int bp) {
  if (sorted.empty()) return 0.0;
  return sorted[nearest_rank(sorted.size(), bp) - 1];
}

std::size_t samples_beyond(std::size_t n, int bp) { return n == 0 ? 0 : n - nearest_rank(n, bp); }

int pick_tail_bp(std::size_t n) {
  int best = 0;
  for (const int bp : kTailLadder) {
    if (samples_beyond(n, bp) >= kMinBeyond) best = bp;
  }
  return best;
}

std::string bp_name(int bp) {
  std::string s = "p" + std::to_string(bp / 100);
  if (bp % 100 != 0) {
    const int frac = bp % 100;
    s += "." + std::to_string(frac % 10 == 0 ? frac / 10 : frac);
  }
  return s;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

LatencySummary summarize(std::vector<double> ms, std::size_t planned) {
  LatencySummary s;
  s.n = ms.size();
  if (ms.empty()) return s;
  std::sort(ms.begin(), ms.end());
  s.tail_bp = pick_tail_bp(planned);
  s.beyond = samples_beyond(s.n, s.tail_bp);
  s.p50_ms = percentile_bp(ms, 5000);
  s.tail_ms = percentile_bp(ms, s.tail_bp);
  return s;
}

// ---- seeded open-loop schedule ---------------------------------------------

void draw_mix(std::mt19937_64& mix, int inputs_per_model, Arrival& a) {
  a.model = static_cast<std::uint8_t>(mix() % 3 == 0 ? 0 : 1);
  const std::uint64_t cls = mix() % 10;  // 2 high, 7 normal, 1 low
  a.priority = static_cast<std::uint8_t>(cls < 2 ? 0 : cls < 9 ? 1 : 2);
  a.input = static_cast<std::uint8_t>(mix() % static_cast<std::uint64_t>(inputs_per_model));
}

std::vector<Arrival> make_schedule(std::uint64_t seed, double rate_per_s, double min_seconds,
                                   std::size_t min_count, int inputs_per_model) {
  wa::serve::net::PoissonArrivals gaps(rate_per_s, seed);
  std::mt19937_64 mix(seed ^ 0x9e3779b97f4a7c15ULL);
  const auto horizon_ns = static_cast<std::uint64_t>(min_seconds * 1e9);
  std::vector<Arrival> out;
  for (;;) {
    Arrival a;
    a.send_ns = gaps.next_send_ns();
    if (a.send_ns >= horizon_ns && out.size() >= min_count) break;
    draw_mix(mix, inputs_per_model, a);
    out.push_back(a);
  }
  return out;
}

// ---- host probes -------------------------------------------------------------

namespace {

double canary_ms() {
  // A dependent LCG chain feeding a float recurrence over a 64 KiB table:
  // integer ALU, FP latency and L1/L2 traffic, fixed instruction count.
  static std::vector<float> table(16384, 1.0F);
  const auto t0 = Clock::now();
  std::uint64_t x = 0x2545F4914F6CDD1DULL;
  float acc = 0.F;
  for (int i = 0; i < 12000000; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    float& slot = table[(x >> 40) & 16383];
    slot = slot * 0.999F + static_cast<float>(x >> 60) * 1e-3F;
    acc += slot;
  }
  const auto t1 = Clock::now();
  volatile float sink = acc;
  (void)sink;
  return ms_between(t0, t1);
}

}  // namespace

double canary_median_ms(int rounds) {
  std::vector<double> v;
  for (int i = 0; i < rounds; ++i) v.push_back(canary_ms());
  return median(std::move(v));
}

double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream is(line.substr(6));
      double kb = 0.0;
      is >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
}

std::string cpu_model() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

// ---- thread placement ----------------------------------------------------------

const std::vector<int>& allowed_cpus() {
  static const std::vector<int> cpus = [] {
    cpu_set_t set;
    CPU_ZERO(&set);
    std::vector<int> v;
    if (sched_getaffinity(0, sizeof set, &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) v.push_back(c);
      }
    }
    return v;
  }();
  return cpus;
}

namespace {

int slot_cpu(const std::vector<int>& cpus, int slot) {
  return cpus[static_cast<std::size_t>(slot) % cpus.size()];
}

}  // namespace

void pin_thread(std::initializer_list<int> slots) {
  const std::vector<int>& cpus = allowed_cpus();
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int s : slots) CPU_SET(slot_cpu(cpus, s), &set);
  sched_setaffinity(0, sizeof set, &set);  // 0 = the calling thread
}

void pin_omp_team(int team) {
  omp_set_num_threads(team);
#pragma omp parallel num_threads(team)
  pin_thread({omp_get_thread_num()});
}

std::string cpu_list(std::initializer_list<int> slots) {
  const std::vector<int>& cpus = allowed_cpus();
  std::string out;
  for (const int s : slots) {
    if (!out.empty()) out += ",";
    out += cpus.empty() ? "?" : std::to_string(slot_cpu(cpus, s));
  }
  return out;
}

// ---- benchmark spans ---------------------------------------------------------

void emit_span(const std::string& name, const SpanCtx& ctx, Clock::time_point t0,
               Clock::time_point t1) {
  auto& tracer = wa::telemetry::Tracer::instance();
  const std::int64_t ts = tracer.to_ns(t0);
  tracer.emit({name, "bench", ctx.tid, ts, tracer.to_ns(t1) - ts,
               std::string("\"parent\":\"") + ctx.parent + "\""});
}

// ---- layer ledger ------------------------------------------------------------

bool name_matches(std::string_view name, std::string_view pattern) {
  if (!pattern.empty() && pattern.back() == '*') {
    return name.substr(0, pattern.size() - 1) == pattern.substr(0, pattern.size() - 1);
  }
  return name == pattern;
}

Ledger Ledger::build(const std::vector<wa::telemetry::Span>& raw) {
  Ledger l;
  l.spans.reserve(raw.size());
  for (const auto& s : raw) {
    LedgerSpan ls;
    ls.name = s.name;
    ls.tid = s.tid;
    ls.ts_ns = s.ts_ns;
    ls.dur_ns = s.dur_ns;
    l.spans.push_back(std::move(ls));
  }
  // Per id, in (start asc, duration desc) order a parent precedes its
  // children, so one stack of open intervals recovers the tree.
  std::vector<int> order(l.spans.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    const auto& x = l.spans[a];
    const auto& y = l.spans[b];
    if (x.tid != y.tid) return x.tid < y.tid;
    if (x.ts_ns != y.ts_ns) return x.ts_ns < y.ts_ns;
    return x.dur_ns > y.dur_ns;
  });
  std::vector<int> stack;
  std::uint64_t cur_tid = 0;
  for (const int i : order) {
    LedgerSpan& s = l.spans[i];
    if (stack.empty() || s.tid != cur_tid) {
      stack.clear();
      cur_tid = s.tid;
    }
    while (!stack.empty()) {
      const LedgerSpan& top = l.spans[stack.back()];
      if (s.ts_ns + s.dur_ns <= top.ts_ns + top.dur_ns) break;
      stack.pop_back();
    }
    if (!stack.empty()) {
      s.parent = stack.back();
      l.spans[stack.back()].children.push_back(i);
    }
    stack.push_back(i);
  }
  for (auto& s : l.spans) {
    // Children are disjoint and in start order; merge defensively anyway.
    std::int64_t covered = 0, reach = s.ts_ns;
    for (const int c : s.children) {
      const auto& ch = l.spans[c];
      const std::int64_t b = std::max(reach, ch.ts_ns);
      const std::int64_t e = ch.ts_ns + ch.dur_ns;
      if (e > b) {
        covered += e - b;
        reach = e;
      }
    }
    s.self_ns = s.dur_ns - covered;
  }
  return l;
}

std::int64_t Ledger::total_ns(std::string_view name) const {
  std::int64_t t = 0;
  for (const auto& s : spans) {
    if (name_matches(s.name, name)) t += s.dur_ns;
  }
  return t;
}

std::int64_t Ledger::self_total_ns(std::string_view name) const {
  std::int64_t t = 0;
  for (const auto& s : spans) {
    if (name_matches(s.name, name)) t += s.self_ns;
  }
  return t;
}

std::size_t Ledger::count(std::string_view name) const {
  std::size_t n = 0;
  for (const auto& s : spans) n += name_matches(s.name, name) ? 1 : 0;
  return n;
}

Closure check_closure(const Ledger& ledger, std::string_view parent,
                      const std::function<bool(const LedgerSpan&)>& is_part, double tolerance) {
  Closure c;
  c.relation = std::string(parent);
  c.tolerance = tolerance;
  std::int64_t parent_ns = 0, part_ns = 0;
  for (const auto& p : ledger.spans) {
    if (!name_matches(p.name, parent) || p.dur_ns <= 0) continue;
    std::int64_t parts = 0;
    bool any = false;
    for (const int ci : p.children) {
      const auto& ch = ledger.spans[ci];
      if (!is_part(ch)) continue;
      parts += ch.dur_ns;
      any = true;
    }
    if (!any) continue;  // not a parent of this relation
    ++c.parents;
    parent_ns += p.dur_ns;
    part_ns += parts;
    const double gap =
        std::fabs(static_cast<double>(p.dur_ns - parts)) / static_cast<double>(p.dur_ns);
    c.worst_gap = std::max(c.worst_gap, gap);
    if (gap > tolerance) ++c.open;
  }
  if (parent_ns > 0) {
    c.gap = std::fabs(static_cast<double>(parent_ns - part_ns)) / static_cast<double>(parent_ns);
  }
  return c;
}

Closure mean_closure(std::string relation, std::size_t parents, double parent_mean,
                     double parts_mean, double tolerance) {
  Closure c;
  c.relation = std::move(relation);
  c.parents = parents;
  c.tolerance = tolerance;
  c.per_parent = false;
  if (parent_mean > 0) c.gap = std::fabs(parent_mean - parts_mean) / parent_mean;
  c.worst_gap = c.gap;
  return c;
}

// ---- report --------------------------------------------------------------------

void Report::metric(const std::string& name, double value, const std::string& unit) {
  metrics_[name] = {value, unit};
}

void Report::fail(const std::string& why, std::size_t n) {
  failed_ += n;
  fail_reasons_[why] += n;
}

std::string Report::json() const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  bool first = true;
  char buf[64];
  for (const auto& [name, vu] : metrics_) {
    const double v = std::isfinite(vu.first) ? vu.first : 0.0;
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out += (first ? "\"" : ", \"") + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           vu.second + "\"}";
    first = false;
  }
  out += "}";
  if (!fail_reasons_.empty()) {
    out += ", \"failures\": {";
    first = true;
    for (const auto& [why, n] : fail_reasons_) {
      out += (first ? "\"" : ", \"") + why + "\": " + std::to_string(n);
      first = false;
    }
    out += "}";
  }
  out += "}";
  return out;
}

}  // namespace wabench
