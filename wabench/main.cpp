// Benchmark runner: one workload per invocation.
//
//   wabench --workload <infer-r18-f4-b1|serve-zoo-tcp|train-wa-r18-f4>
//           --seed <n> --seconds <s> --trace <0|1> --workdir <dir>
//           [--commit <id>] [--source-digest <hex>]
//
// Prints a run header (host, ISA backend, build type, thread budget), the
// workload's human-readable ledger, and as its last line one JSON object:
// {"correct", "attempted", "failed", "metrics"}. Exits 1 when an output
// check failed, 2 on bad arguments.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>

#include "backend/simd/kernel_table.hpp"
#include "workloads.hpp"

#ifndef WABENCH_BUILD_TYPE
#define WABENCH_BUILD_TYPE "unknown"
#endif

int main(int argc, char** argv) {
  using namespace wabench;
  Options opt;
  std::string commit = "unknown", digest = "unknown";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") opt.workload = v;
    else if (k == "--seed") opt.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") opt.seconds = std::atof(v.c_str());
    else if (k == "--trace") opt.trace = v == "1";
    else if (k == "--workdir") opt.workdir = v;
    else if (k == "--commit") commit = v;
    else if (k == "--source-digest") digest = v;
    else {
      std::fprintf(stderr, "unknown argument %s\n", k.c_str());
      return 2;
    }
  }
  void (*run)(const Options&, Report&) = nullptr;
  ThreadBudget budget;
  if (opt.workload == "infer-r18-f4-b1") run = run_infer, budget = infer_budget();
  if (opt.workload == "serve-zoo-tcp") run = run_serve, budget = serve_budget();
  if (opt.workload == "train-wa-r18-f4") run = run_train, budget = train_budget();
  if (run == nullptr || !(opt.seconds > 0)) {
    std::fprintf(stderr,
                 "usage: wabench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n");
    return 2;
  }
  std::filesystem::create_directories(opt.workdir);

  std::printf("header: {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, \"trace\": %d, "
              "\"commit\": \"%s\", \"source_digest\": \"%s\", \"cpu\": \"%s\", \"nproc\": %u, "
              "\"simd_backend\": \"%s\", \"build_type\": \"%s\", \"omp_team\": %d, "
              "\"server_workers\": %d, \"worker_omp_threads\": %d, \"generator_threads\": %d, "
              "\"connections\": %d, \"placement\": \"%s\"}\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed), opt.seconds,
              opt.trace ? 1 : 0, commit.c_str(), digest.c_str(), cpu_model().c_str(),
              std::thread::hardware_concurrency(), wa::backend::simd::active_backend().c_str(),
              WABENCH_BUILD_TYPE, budget.omp_team, budget.server_workers,
              budget.worker_omp_threads, budget.generator_threads, budget.connections,
              budget.placement.c_str());
  std::fflush(stdout);

  Report rep;
  try {
    run(opt, rep);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "workload %s failed: %s\n", opt.workload.c_str(), e.what());
    rep.attempt();
    rep.fail("workload threw");
  }
  std::printf("%s\n", rep.json().c_str());
  return rep.correct() ? 0 : 1;
}
