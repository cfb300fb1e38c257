#include <algorithm>
#include <cstdio>
#include <cstring>

#include "workloads.hpp"

namespace wabench {

bool same_bits(const wa::Tensor& a, const wa::Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.raw(), b.raw(), static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

const char* kind_name(Kind k) {
  constexpr const char* kNames[kKinds] = {"wino", "im2row", "add", "pool", "other"};
  return kNames[static_cast<int>(k)];
}

Kind stage_kind(const wa::deploy::Stage& st) {
  using namespace wa::deploy;
  if (const auto* c = std::get_if<ConvStage>(&st)) {
    return c->wino_cache.empty() && c->strided_cache.empty() ? Kind::kIm2row : Kind::kWino;
  }
  if (std::holds_alternative<AddStage>(st)) return Kind::kAdd;
  if (std::holds_alternative<PoolStage>(st) || std::holds_alternative<AvgPoolStage>(st)) {
    return Kind::kPool;
  }
  return Kind::kOther;
}

std::map<std::string, Kind> stage_kinds(const wa::deploy::Int8Pipeline& p) {
  std::map<std::string, Kind> kinds;
  for (std::size_t i = 0; i < p.size(); ++i) {
    kinds["stage:" + wa::deploy::stage_where(p.nodes()[i], i)] = stage_kind(p.nodes()[i].op);
  }
  return kinds;
}

void optimize(wa::deploy::Int8Pipeline& p, const wa::Shape& reference) {
  wa::deploy::passes::OptimizeOptions o;
  o.reference_input = reference;
  wa::deploy::passes::optimize_pipeline(p, o);
}

void print_percentiles(const char* unit_name, std::vector<double> ms) {
  std::sort(ms.begin(), ms.end());
  std::printf("%s percentiles over %zu samples:", unit_name, ms.size());
  for (const int bp : {5000, 7500, 9000, 9500, 9900}) {
    std::printf(" %s %.4f ms", bp_name(bp).c_str(), percentile_bp(ms, bp));
  }
  std::printf("\n");
}

void print_e2e(const char* unit_name, const LatencySummary& lat, double items_per_s,
               double setup_s, double rss_mb) {
  std::printf("end to end: setup %.4f s; %s p50 %.4f ms, %s %.4f ms (%zu samples, %zu beyond); "
              "%.3f items/s; peak RSS %.1f MiB\n",
              setup_s, unit_name, lat.p50_ms, bp_name(lat.tail_bp).c_str(), lat.tail_ms, lat.n,
              lat.beyond, items_per_s, rss_mb);
}

void report_trace(Report& rep, const std::vector<Closure>& closures, double untraced_p50_ms,
                  double traced_p50_ms) {
  double worst = 0.0;
  std::printf("\nledger closure:\n");
  for (const Closure& c : closures) {
    std::printf("  %-16s %6zu parents, gap %6.3f%% (tolerance %.1f%%) %s", c.relation.c_str(),
                c.parents, 100.0 * c.gap, 100.0 * c.tolerance, c.closes() ? "closes" : "OPEN");
    if (c.per_parent) {
      std::printf("; single parents beyond it %zu, worst %.2f%%\n", c.open, 100.0 * c.worst_gap);
    } else {
      std::printf("; compared as means\n");
    }
    rep.attempt();
    if (!c.closes()) rep.fail("ledger does not close: " + c.relation);
    worst = std::max(worst, c.gap);
  }
  const double overhead = 100.0 * (traced_p50_ms - untraced_p50_ms) / untraced_p50_ms;
  std::printf("tracing overhead: p50 %.4f ms traced vs %.4f ms untraced (%+.2f%%)\n",
              traced_p50_ms, untraced_p50_ms, overhead);
  rep.metric("trace.ledger_gap_pct", 100.0 * worst, "%");
  rep.metric("trace.overhead_pct", overhead, "%");
}

void report_canary(Report& rep, const std::vector<double>& canary_ms, bool trace) {
  const double m = median(canary_ms);
  std::printf("host canary: %.3f ms (median of %zu checkpoints)\n", m, canary_ms.size());
  if (trace) rep.metric("host.canary_ms", m, "ms");
}

}  // namespace wabench
