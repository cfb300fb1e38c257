// The three workloads. Each builds its inputs from the seed, sets up the
// program the way a deployment would, measures its unit of work for the
// requested time, checks every output, and fills the report: end-to-end
// metrics when untraced, per-layer metrics when traced.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "deploy/passes/passes.hpp"
#include "deploy/pipeline.hpp"
#include "lib.hpp"

namespace wabench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 30.0;
  bool trace = false;
  std::string workdir = ".";  ///< scratch for .wam artifacts, inside the checkout
};

/// Thread budget of a workload and where its threads run, printed in the
/// run header.
struct ThreadBudget {
  int omp_team = 1;            ///< OpenMP team of the calling thread
  int server_workers = 0;      ///< InferenceServer workers
  int worker_omp_threads = 0;  ///< OpenMP team inside each worker's forward
  int generator_threads = 0;
  int connections = 0;
  std::string placement;       ///< which threads are pinned to which CPUs
};

ThreadBudget infer_budget();
ThreadBudget serve_budget();
ThreadBudget train_budget();

void run_infer(const Options& opt, Report& rep);
void run_serve(const Options& opt, Report& rep);
void run_train(const Options& opt, Report& rep);

// ---- shared by the workloads (common.cpp) -----------------------------------

bool same_bits(const wa::Tensor& a, const wa::Tensor& b);

/// Stage kinds of the deploy ledger.
enum class Kind { kWino, kIm2row, kAdd, kPool, kOther };
constexpr int kKinds = 5;
const char* kind_name(Kind k);
Kind stage_kind(const wa::deploy::Stage& st);
/// "stage:<label>" (the program's span name for a stage) -> kind.
std::map<std::string, Kind> stage_kinds(const wa::deploy::Int8Pipeline& p);

/// The serving optimization: fusion, dead-stage elimination and a memory
/// plan for `reference` inputs.
void optimize(wa::deploy::Int8Pipeline& p, const wa::Shape& reference);

/// A line of fixed percentiles of `ms`, beyond the one reported as tail_ms.
void print_percentiles(const char* unit_name, std::vector<double> ms);

/// The end-to-end line with the tail's percentile and sample count.
void print_e2e(const char* unit_name, const LatencySummary& lat, double items_per_s,
               double setup_s, double rss_mb);

/// Closures, trace.overhead_pct (traced p50 against the untraced p50 of the
/// same run) and trace.ledger_gap_pct. A closure left open beyond its
/// tolerance fails the run.
void report_trace(Report& rep, const std::vector<Closure>& closures, double untraced_p50_ms,
                  double traced_p50_ms);

/// host.canary_ms: the median of the canary rounds taken across the run.
/// Printed in every run, a metric only in the traced one.
void report_canary(Report& rep, const std::vector<double>& canary_ms, bool trace);

}  // namespace wabench
