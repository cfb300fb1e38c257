// Helpers for the suites that compare bits across OpenMP team sizes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "tensor/tensor.hpp"

namespace wa::test_support {

// RAII: run a scope under an OpenMP team of `threads`, restoring the caller's
// team size on exit. A no-op when OpenMP is off (every team is then 1).
class TeamSizeScope {
 public:
  explicit TeamSizeScope(int threads) {
#ifdef _OPENMP
    previous_ = omp_get_max_threads();
    omp_set_num_threads(threads);
#else
    (void)threads;
#endif
  }
  ~TeamSizeScope() {
#ifdef _OPENMP
    omp_set_num_threads(previous_);
#endif
  }
  TeamSizeScope(const TeamSizeScope&) = delete;
  TeamSizeScope& operator=(const TeamSizeScope&) = delete;

 private:
  int previous_ = 1;
};

/// splitmix64 -> floats k * 2^-20 in [-scale, scale): exact integer-to-float
/// conversions and power-of-two scalings only, so pinned hashes of what is
/// computed from them need no libm.
struct BitGen {
  std::uint64_t s;
  float next(float scale) {
    std::uint64_t z = (s += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
    const auto k = static_cast<std::int32_t>(z >> 43) - (1 << 20);  // [-2^20, 2^20)
    return static_cast<float>(k) * (scale / 1048576.F);
  }
  Tensor tensor(Shape shape, float scale) {
    Tensor t(std::move(shape));
    for (float& v : t.data()) v = next(scale);
    return t;
  }
};

/// FNV-1a, byte at a time.
inline constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;
inline std::uint64_t fnv_bytes(std::uint64_t h, const void* p, std::size_t n) {
  const auto* b = static_cast<const unsigned char*>(p);
  for (std::size_t i = 0; i < n; ++i) h = (h ^ b[i]) * 1099511628211ULL;
  return h;
}
inline std::uint64_t fnv_tensor(std::uint64_t h, const Tensor& t) {
  return fnv_bytes(h, t.raw(), static_cast<std::size_t>(t.numel()) * sizeof(float));
}

}  // namespace wa::test_support
