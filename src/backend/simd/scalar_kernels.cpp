// Scalar reference kernels: the always-available, bit-exact baseline of the
// multi-backend dispatch layer (kernel_table.hpp).
//
// Every SIMD backend must reproduce these byte-for-byte. The fp32 transform
// kernels are therefore compiled with -ffp-contract=off (see CMakeLists.txt):
// a contracted fused multiply-add here would round differently from the
// explicit multiply+add the vector lanes perform, and a 1-ulp difference in
// a transform feeds a rounding boundary in the very next quantization.
#include <algorithm>
#include <cmath>

#include "backend/simd/kernel_table.hpp"
#include "backend/simd/requant_common.hpp"
#include "tensor/arena.hpp"
#include "winograd/small_mat.hpp"

namespace wa::backend::simd {

namespace {

void gemm_s8_s32_scalar(std::int64_t m, std::int64_t n, std::int64_t k, const std::int8_t* a,
                        const std::int8_t* b, std::int32_t* c) {
#pragma omp parallel for schedule(static) if (m >= 8)
  for (std::int64_t i = 0; i < m; ++i) {
    std::int32_t* crow = c + i * n;
    for (std::int64_t j = 0; j < n; ++j) crow[j] = 0;
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const std::int32_t av = a[i * k + kk];
      if (av == 0) continue;
      const std::int8_t* brow = b + kk * n;
      for (std::int64_t j = 0; j < n; ++j) crow[j] += av * static_cast<std::int32_t>(brow[j]);
    }
  }
}

void gemm_f32_packed_nn_scalar(std::int64_t mb, std::int64_t n, std::int64_t k, float alpha,
                               const float* a, std::int64_t lda, const float* b, std::int64_t ldb,
                               float beta, float* c, std::int64_t ldc) {
  for (std::int64_t i = 0; i < mb; ++i) {
    float* crow = c + i * ldc;
    if (beta == 0.F) {
      std::fill(crow, crow + n, 0.F);
    } else if (beta != 1.F) {
      for (std::int64_t j = 0; j < n; ++j) crow[j] *= beta;
    }
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const float av = alpha * a[i * lda + kk];
      if (av == 0.F) continue;
      const float* brow = b + kk * ldb;
      for (std::int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

void quantize_f32_s8_scalar(const float* src, std::int8_t* dst, std::int64_t n, float inv_scale) {
  for (std::int64_t i = 0; i < n; ++i) {
    const float x = std::min(127.F, std::max(-127.F, src[i] * inv_scale));
    dst[i] = static_cast<std::int8_t>(static_cast<std::int32_t>(std::nearbyintf(x)));
  }
}

void requant_s32_s8_scalar(const std::int32_t* acc, std::int8_t* dst, std::int64_t n,
                           quant::FixedPointMultiplier mult) {
  requant_s32_s8_ref(acc, dst, n, mult);
}

void residual_add_s8_scalar(const std::int8_t* a, const std::int8_t* b, std::int8_t* out,
                            std::int64_t n, const quant::FixedPointMultiplier* a_mult,
                            const quant::FixedPointMultiplier* b_mult, bool relu) {
  const auto branch = [](std::int32_t v, const quant::FixedPointMultiplier* mult) {
    return mult == nullptr ? v : quant::apply_multiplier(v, *mult);
  };
  for (std::int64_t i = 0; i < n; ++i) {
    // 64-bit join: each requantized branch can sit at the int32 saturation
    // rail, and rail + rail overflows int32.
    std::int64_t acc = static_cast<std::int64_t>(branch(a[i], a_mult)) + branch(b[i], b_mult);
    if (relu && acc < 0) acc = 0;
    out[i] = static_cast<std::int8_t>(acc > 127 ? 127 : (acc < -127 ? -127 : acc));
  }
}

void wino_gather_f32_scalar(const std::int8_t* m_base, std::int64_t ab_stride, const float* sm,
                            const float* at, std::int64_t t, std::int64_t m, std::int64_t th,
                            std::int64_t tw, std::int64_t oh, std::int64_t ow, float bias,
                            float* oplane) {
  float mtile[wino::kSmallMatCap], tmp[wino::kSmallMatCap], y[wino::kSmallMatCap];
  for (std::int64_t ti = 0; ti < th; ++ti) {
    for (std::int64_t tj = 0; tj < tw; ++tj) {
      const std::int8_t* src = m_base + ti * tw + tj;
      for (std::int64_t ab = 0; ab < t * t; ++ab) {
        mtile[ab] = static_cast<float>(src[ab * ab_stride]) * sm[ab];
      }
      wino::smm_sandwich(at, static_cast<int>(m), static_cast<int>(t), mtile, tmp, y);
      for (std::int64_t a = 0; a < m && ti * m + a < oh; ++a) {
        for (std::int64_t b = 0; b < m && tj * m + b < ow; ++b) {
          oplane[(ti * m + a) * ow + tj * m + b] = y[a * m + b] + bias;
        }
      }
    }
  }
}

// ---- Blocked-layout kernels (streaming tile-block Winograd path) -----------
//
// Same per-element arithmetic as the flat gather above — a tile's transform
// does not depend on which other tiles share the call — so the fused blocked
// executor reproduces the flat path byte-for-byte. Both executors run the
// one scatter below.

void wino_scatter_block_f32_scalar(const std::int8_t* plane, std::int64_t height,
                                   std::int64_t width, std::int64_t pad, float in_scale,
                                   const float* bt, std::int64_t t, std::int64_t m,
                                   std::int64_t th, std::int64_t tw, std::int64_t tile0,
                                   std::int64_t ntiles, float* v_block,
                                   std::int64_t block_stride) {
  (void)th;
  ScratchArena& arena = ScratchArena::for_thread();
  ScratchArena::Scope frame(arena);
  // Stage the dequantized input rows of the block's tiles in one tile row,
  // with the zero padding materialized, so the per-tile loop reads without
  // bounds checks: fbuf[a][x] holds the value at (ti*m - pad + a,
  // tjb*m + x - pad).
  float* fbuf = arena.alloc<float>(t * ((tw - 1) * m + t));
  float patch[wino::kSmallMatCap], tmp[wino::kSmallMatCap], out[wino::kSmallMatCap];
  std::int64_t tile = tile0;
  const std::int64_t tend = tile0 + ntiles;
  while (tile < tend) {
    const std::int64_t ti = tile / tw;
    const std::int64_t tjb = tile % tw;
    const std::int64_t tje = std::min(tw, tjb + (tend - tile));
    const std::int64_t seg = (tje - 1 - tjb) * m + t;
    const std::int64_t i0 = ti * m - pad;
    const std::int64_t x0 = tjb * m;  // fbuf column 0 is input column x0 - pad
    for (std::int64_t a = 0; a < t; ++a) {
      float* row = fbuf + a * seg;
      const std::int64_t ii = i0 + a;
      if (ii < 0 || ii >= height) {
        std::fill(row, row + seg, 0.F);
        continue;
      }
      const std::int8_t* src = plane + ii * width;
      for (std::int64_t x = 0; x < seg; ++x) {
        const std::int64_t jj = x0 + x - pad;
        row[x] = (jj >= 0 && jj < width) ? static_cast<float>(src[jj]) * in_scale : 0.F;
      }
    }
    for (std::int64_t tj = tjb; tj < tje; ++tj) {
      for (std::int64_t a = 0; a < t; ++a) {
        for (std::int64_t b = 0; b < t; ++b) patch[a * t + b] = fbuf[a * seg + (tj - tjb) * m + b];
      }
      wino::smm_sandwich(bt, static_cast<int>(t), static_cast<int>(t), patch, tmp, out);
      float* dst = v_block + (ti * tw + tj - tile0);
      for (std::int64_t ab = 0; ab < t * t; ++ab) dst[ab * block_stride] = out[ab];
    }
    tile += tje - tjb;
  }
}

// The fused entry is the flat path's three steps composed per lane: the
// scatter above into a tap-major fp32 row, quantize_f32_s8 of each tap's run
// at its own reciprocal, then the byte interleave into the k4 layout.
void wino_scatter_q4_s8_scalar(const std::int8_t* const* planes, std::int64_t height,
                               std::int64_t width, std::int64_t pad, float in_scale,
                               const float* bt, std::int64_t t, std::int64_t m, std::int64_t tw,
                               std::int64_t tile0, std::int64_t ntiles, const float* v_inv,
                               std::int8_t* v_q4, std::int64_t tap_stride) {
  ScratchArena& arena = ScratchArena::for_thread();
  ScratchArena::Scope frame(arena);
  float* v_f = arena.alloc<float>(t * t * ntiles);
  std::int8_t* q = arena.alloc<std::int8_t>(ntiles);
  for (std::int64_t lane = 0; lane < 4; ++lane) {
    if (planes[lane] != nullptr) {
      wino_scatter_block_f32_scalar(planes[lane], height, width, pad, in_scale, bt, t, m, 0, tw,
                                    tile0, ntiles, v_f, ntiles);
    }
    for (std::int64_t ab = 0; ab < t * t; ++ab) {
      if (planes[lane] != nullptr) {
        quantize_f32_s8_scalar(v_f + ab * ntiles, q, ntiles, v_inv[ab]);
      } else {
        std::fill(q, q + ntiles, std::int8_t{0});  // pad lane: level 0
      }
      std::int8_t* dst = v_q4 + ab * tap_stride + lane;
      for (std::int64_t idx = 0; idx < ntiles; ++idx) dst[idx * 4] = q[idx];
    }
  }
}

void gemm_u8s8_s32_k4_scalar(std::int64_t m, std::int64_t n, std::int64_t kpad,
                             const std::uint8_t* a, const std::int8_t* b, std::int32_t* c) {
  for (std::int64_t i = 0; i < m; ++i) {
    std::int32_t* crow = c + i * n;
    for (std::int64_t j = 0; j < n; ++j) crow[j] = 0;
    const std::uint8_t* arow = a + i * kpad;
    for (std::int64_t kq = 0; kq < kpad / 4; ++kq) {
      const std::int8_t* bq = b + kq * n * 4;
      for (std::int64_t r = 0; r < 4; ++r) {
        // Offset-binary A: level = stored byte - 128, so pad bytes (128)
        // contribute nothing, mirroring the flat kernel's av == 0 skip.
        const std::int32_t av = static_cast<std::int32_t>(arow[kq * 4 + r]) - 128;
        if (av == 0) continue;
        for (std::int64_t j = 0; j < n; ++j) {
          crow[j] += av * static_cast<std::int32_t>(bq[j * 4 + r]);
        }
      }
    }
  }
}

void wino_gather_q_s8_scalar(const std::int8_t* m_block, std::int64_t block_stride,
                             const float* sm, const float* at, std::int64_t t, std::int64_t m,
                             std::int64_t th, std::int64_t tw, std::int64_t tile0,
                             std::int64_t ntiles, std::int64_t oh, std::int64_t ow, float bias,
                             float o_inv, std::int8_t* oplane) {
  (void)th;
  float mtile[wino::kSmallMatCap], tmp[wino::kSmallMatCap], y[wino::kSmallMatCap];
  for (std::int64_t idx = 0; idx < ntiles; ++idx) {
    const std::int64_t ti = (tile0 + idx) / tw, tj = (tile0 + idx) % tw;
    const std::int8_t* src = m_block + idx;
    for (std::int64_t ab = 0; ab < t * t; ++ab) {
      mtile[ab] = static_cast<float>(src[ab * block_stride]) * sm[ab];
    }
    wino::smm_sandwich(at, static_cast<int>(m), static_cast<int>(t), mtile, tmp, y);
    for (std::int64_t a = 0; a < m && ti * m + a < oh; ++a) {
      for (std::int64_t b = 0; b < m && tj * m + b < ow; ++b) {
        // Exactly the flat path's two steps: out_f = y + bias, then the
        // quantize_f32_s8 element expression on out_f * o_inv.
        const float x = std::min(127.F, std::max(-127.F, (y[a * m + b] + bias) * o_inv));
        oplane[(ti * m + a) * ow + tj * m + b] =
            static_cast<std::int8_t>(static_cast<std::int32_t>(std::nearbyintf(x)));
      }
    }
  }
}

}  // namespace

const KernelTable& scalar_kernels() {
  static const KernelTable table = [] {
    KernelTable t;
    t.name = "scalar";
    t.gemm_s8_s32 = gemm_s8_s32_scalar;
    t.gemm_f32_packed_nn = gemm_f32_packed_nn_scalar;
    t.quantize_f32_s8 = quantize_f32_s8_scalar;
    t.requant_s32_s8 = requant_s32_s8_scalar;
    t.residual_add_s8 = residual_add_s8_scalar;
    t.wino_gather_f32 = wino_gather_f32_scalar;
    t.wino_scatter_block_f32 = wino_scatter_block_f32_scalar;
    t.wino_scatter_q4_s8 = wino_scatter_q4_s8_scalar;
    t.gemm_u8s8_s32_k4 = gemm_u8s8_s32_k4_scalar;
    t.wino_gather_q_s8 = wino_gather_q_s8_scalar;
    return t;
  }();
  return table;
}

}  // namespace wa::backend::simd
