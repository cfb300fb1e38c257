// Backend registry and runtime dispatch (see kernel_table.hpp).
//
// Selection policy, resolved once on first kernels() call:
//   1. WA_BACKEND=<name> picks that backend if it is compiled in AND the CPU
//      supports it; otherwise a one-line stderr warning explains the fall
//      back. This is how CI pins the scalar reference job and the AVX2 job.
//   2. Otherwise the most specialized available backend wins (registration
//      order is preference order: scalar, then ISA backends).
// set_backend() re-points the dispatch at runtime for tests and benches; it
// must not race with in-flight forwards (switch between runs).
#include "backend/simd/kernel_table.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <mutex>

namespace wa::backend::simd {

// Defined in avx2_kernels.cpp / avx512_kernels.cpp / neon_kernels.cpp; null
// when the ISA is not compiled in (wrong architecture or compiler without
// the -m flags).
const KernelTable* avx2_kernel_table();
const KernelTable* avx512_kernel_table();
const KernelTable* neon_kernel_table();

namespace {

bool cpu_supports_avx2() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

bool cpu_supports_avx512() {
#if defined(__x86_64__) || defined(__i386__)
  // The avx512 table's kernels use foundation + BW/VL (integer ops on 256/512
  // vectors) + VNNI (vpdpbusd / vpdpwssd); its null entries are filled from
  // the AVX2 table, so AVX2+FMA must be runnable too.
  return __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512bw") &&
         __builtin_cpu_supports("avx512vl") && __builtin_cpu_supports("avx512vnni") &&
         cpu_supports_avx2();
#else
  return false;
#endif
}

struct Entry {
  KernelTable resolved;  // raw table with null slots filled from scalar
  bool available = false;
};

std::vector<Entry>& entries() {
  static std::vector<Entry> list = [] {
    std::vector<Entry> l;
    const KernelTable& s = scalar_kernels();
    // Fill a table's null slots from `base` (per-kernel fallback). Backends
    // default to the scalar reference; avx512 chains through the resolved
    // avx2 entry instead, so the kernels it does not specialize still run
    // vectorized (avx512 -> avx2 -> scalar).
    const auto add = [&l](const KernelTable* raw, bool available, const KernelTable& base) {
      if (raw == nullptr) return;
      Entry e;
      e.resolved = *raw;
      e.available = available;
      if (e.resolved.gemm_s8_s32 == nullptr) e.resolved.gemm_s8_s32 = base.gemm_s8_s32;
      if (e.resolved.gemm_f32_packed_nn == nullptr) {
        e.resolved.gemm_f32_packed_nn = base.gemm_f32_packed_nn;
      }
      if (e.resolved.quantize_f32_s8 == nullptr) e.resolved.quantize_f32_s8 = base.quantize_f32_s8;
      if (e.resolved.requant_s32_s8 == nullptr) e.resolved.requant_s32_s8 = base.requant_s32_s8;
      if (e.resolved.residual_add_s8 == nullptr) e.resolved.residual_add_s8 = base.residual_add_s8;
      if (e.resolved.wino_gather_f32 == nullptr) e.resolved.wino_gather_f32 = base.wino_gather_f32;
      if (e.resolved.wino_scatter_block_f32 == nullptr) {
        e.resolved.wino_scatter_block_f32 = base.wino_scatter_block_f32;
      }
      if (e.resolved.wino_scatter_q4_s8 == nullptr) {
        e.resolved.wino_scatter_q4_s8 = base.wino_scatter_q4_s8;
      }
      if (e.resolved.gemm_u8s8_s32_k4 == nullptr) {
        e.resolved.gemm_u8s8_s32_k4 = base.gemm_u8s8_s32_k4;
      }
      if (e.resolved.wino_gather_q_s8 == nullptr) {
        e.resolved.wino_gather_q_s8 = base.wino_gather_q_s8;
      }
      l.push_back(e);
    };
    add(&s, true, s);
    add(avx2_kernel_table(), cpu_supports_avx2(), s);
    // cpu_supports_avx512() implies AVX2, so when the avx512 table is usable
    // its avx2 base is too; chaining through the resolved avx2 entry is safe.
    add(avx512_kernel_table(), cpu_supports_avx512(),
        avx2_kernel_table() != nullptr ? l.back().resolved : s);
    // A NEON table is only compiled in on AArch64, where baseline NEON is
    // architectural (and a dotprod-enabled build already requires a dotprod
    // CPU to run at all), so presence implies availability.
    add(neon_kernel_table(), true, s);
    return l;
  }();
  return list;
}

std::atomic<const KernelTable*> g_active{nullptr};

const KernelTable* pick_default() {
  auto& l = entries();
  const KernelTable* best = &l.front().resolved;
  for (const Entry& e : l) {
    if (e.available) best = &e.resolved;  // later registration = more specialized
  }
  const char* env = std::getenv("WA_BACKEND");
  if (env == nullptr || *env == '\0') return best;
  for (const Entry& e : l) {
    if (std::string(env) == e.resolved.name) {
      if (e.available) return &e.resolved;
      std::fprintf(stderr,
                   "wa: WA_BACKEND=%s is compiled in but this CPU cannot run it; using %s\n", env,
                   best->name);
      return best;
    }
  }
  std::string known;
  for (const Entry& e : l) {
    if (!known.empty()) known += "|";
    known += e.resolved.name;
  }
  std::fprintf(stderr, "wa: unknown WA_BACKEND=%s (compiled in: %s); using %s\n", env,
               known.c_str(), best->name);
  return best;
}

void ensure_active() {
  static std::once_flag once;
  std::call_once(once, [] { g_active.store(pick_default(), std::memory_order_release); });
}

}  // namespace

const KernelTable& kernels() {
  const KernelTable* t = g_active.load(std::memory_order_acquire);
  if (t != nullptr) return *t;
  ensure_active();
  return *g_active.load(std::memory_order_acquire);
}

std::vector<BackendDesc> registered_backends() {
  std::vector<BackendDesc> out;
  for (const Entry& e : entries()) out.push_back({e.resolved.name, e.available});
  return out;
}

std::vector<std::string> available_backends() {
  std::vector<std::string> out;
  for (const Entry& e : entries()) {
    if (e.available) out.push_back(e.resolved.name);
  }
  return out;
}

bool set_backend(const std::string& name) {
  for (Entry& e : entries()) {
    if (name == e.resolved.name) {
      if (!e.available) return false;
      g_active.store(&e.resolved, std::memory_order_release);
      return true;
    }
  }
  return false;
}

std::string active_backend() { return kernels().name; }

}  // namespace wa::backend::simd
