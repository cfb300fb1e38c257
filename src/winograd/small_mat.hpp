// Allocation-free small-matrix kernels for Winograd transforms.
//
// Transform matrices are at most t x t with t <= 12 (F(6x6, 5x5) uses 10x10
// tiles), so every per-tile product fits in a small stack buffer. These
// replace generic Tensor matmuls in the op's inner loops, where allocation
// and dispatch overhead dominated.
#pragma once

#include <cstring>

namespace wa::wino {

/// Maximum supported Winograd tile side (m + r - 1).
inline constexpr int kMaxTile = 12;
/// Capacity of one scratch buffer.
inline constexpr int kSmallMatCap = kMaxTile * kMaxTile;

/// c[ar x bc] = a[ar x ac] * b[ac x bc] (all row-major, c must not alias).
inline void smm_nn(const float* a, int ar, int ac, const float* b, int bc, float* c) {
  for (int i = 0; i < ar; ++i) {
    float* crow = c + i * bc;
    std::memset(crow, 0, sizeof(float) * static_cast<std::size_t>(bc));
    for (int k = 0; k < ac; ++k) {
      const float av = a[i * ac + k];
      if (av == 0.F) continue;
      const float* brow = b + k * bc;
      for (int j = 0; j < bc; ++j) crow[j] += av * brow[j];
    }
  }
}

/// c[ar x br] = a[ar x ac] * b[br x ac]^T.
inline void smm_nt(const float* a, int ar, int ac, const float* b, int br, float* c) {
  for (int i = 0; i < ar; ++i) {
    for (int j = 0; j < br; ++j) {
      float acc = 0.F;
      const float* arow = a + i * ac;
      const float* brow = b + j * ac;
      for (int k = 0; k < ac; ++k) acc += arow[k] * brow[k];
      c[i * br + j] = acc;
    }
  }
}

/// c[ac x bc] = a[ar x ac]^T * b[ar x bc].
inline void smm_tn(const float* a, int ar, int ac, const float* b, int bc, float* c) {
  for (int i = 0; i < ac; ++i) {
    float* crow = c + i * bc;
    std::memset(crow, 0, sizeof(float) * static_cast<std::size_t>(bc));
    for (int k = 0; k < ar; ++k) {
      const float av = a[k * ac + i];
      if (av == 0.F) continue;
      const float* brow = b + k * bc;
      for (int j = 0; j < bc; ++j) crow[j] += av * brow[j];
    }
  }
}

/// out[mr x mr] = m[mr x mc] * x[mc x mc] * m^T, using `tmp` [mr x mc].
inline void smm_sandwich(const float* m, int mr, int mc, const float* x, float* tmp, float* out) {
  smm_nn(m, mr, mc, x, mc, tmp);      // tmp = m * x          [mr x mc]
  smm_nt(tmp, mr, mc, m, mr, out);    // out = tmp * m^T      [mr x mr]
}

/// out[mc x mc] = m[mr x mc]^T * x[mr x mr] * m, using `tmp` [mc x mr].
inline void smm_sandwich_t(const float* m, int mr, int mc, const float* x, float* tmp,
                           float* out) {
  smm_tn(m, mr, mc, x, mr, tmp);      // tmp = m^T * x        [mc x mr]
  smm_nn(tmp, mc, mr, m, mc, out);    // out = tmp * m        [mc x mc]
}

/// Tiles per lane block of smm_sandwich_lanes.
inline constexpr int kLanes = 8;

/// smm_sandwich on kLanes independent tiles at once: x is [mc x mc] tiles,
/// tmp [mr x mc] and out [mr x mr], each element stored as kLanes
/// consecutive lane values (lane innermost). Every lane replays smm_nn and
/// then smm_nt in their scalar operation order — the same zero skips on the
/// transform's entries, sums from 0 in k order, separate multiply and add —
/// so each lane's result is bit-identical to a scalar smm_sandwich call.
inline void smm_sandwich_lanes(const float* m, int mr, int mc, const float* x, float* tmp,
                               float* out) {
  for (int i = 0; i < mr; ++i) {
    float* crow = tmp + i * mc * kLanes;
    std::memset(crow, 0, sizeof(float) * static_cast<std::size_t>(mc * kLanes));
    for (int k = 0; k < mc; ++k) {
      const float av = m[i * mc + k];
      if (av == 0.F) continue;
      const float* brow = x + k * mc * kLanes;
#pragma omp simd
      for (int j = 0; j < mc * kLanes; ++j) crow[j] += av * brow[j];
    }
  }
  for (int i = 0; i < mr; ++i) {
    for (int j = 0; j < mr; ++j) {
      float acc[kLanes] = {};
      const float* arow = tmp + i * mc * kLanes;
      const float* brow = m + j * mc;
      for (int k = 0; k < mc; ++k) {
#pragma omp simd
        for (int l = 0; l < kLanes; ++l) acc[l] += arow[k * kLanes + l] * brow[k];
      }
      std::memcpy(out + (i * mr + j) * kLanes, acc, sizeof(acc));
    }
  }
}

/// acc[n] += v[n].
inline void smm_add(float* acc, const float* v, int n) {
  for (int i = 0; i < n; ++i) acc[i] += v[i];
}

}  // namespace wa::wino
