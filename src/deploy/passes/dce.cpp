// Dead-stage / dead-slot elimination: drop every stage whose result cannot
// reach the pipeline output — a published slot nobody reads, and
// (transitively) everything that only fed it. The executor rejects such
// graphs at run time ("dead dataflow"); this pass instead deletes the dead
// work so a load-time mis-wiring costs nothing per forward, then
// re-validates the surviving wiring by re-pushing it.
#include "deploy/passes/pass_internal.hpp"

namespace wa::deploy::passes::internal {

std::size_t eliminate_dead_stages(Int8Pipeline& pipe) {
  if (pipe.size() == 0) return 0;
  // Tolerate dead published slots here — finding them is the point.
  const Int8Pipeline::Wiring w = pipe.resolve_wiring(/*reject_dead=*/false);
  const std::size_t n = pipe.size();

  // Mark-sweep backwards from the final stage (its value IS the result).
  std::vector<bool> live(n, false);
  std::vector<std::size_t> work{n - 1};
  live[n - 1] = true;
  while (!work.empty()) {
    const std::size_t i = work.back();
    work.pop_back();
    for (const std::int32_t v : {w.in1[i], w.in2[i]}) {
      // Value v > 0 is produced by stage v-1; value 0 is the input.
      if (v > 0 && !live[static_cast<std::size_t>(v - 1)]) {
        live[static_cast<std::size_t>(v - 1)] = true;
        work.push_back(static_cast<std::size_t>(v - 1));
      }
    }
  }

  std::size_t removed = 0;
  for (const bool l : live) removed += l ? 0 : 1;
  if (removed > 0) {
    std::vector<Int8Pipeline::Node> nodes = pipe.take_nodes();
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      if (!live[i]) continue;
      pipe.push(std::move(nodes[i].op), std::move(nodes[i].io), std::move(nodes[i].epilogue));
    }
  }
  return removed;
}

}  // namespace wa::deploy::passes::internal
