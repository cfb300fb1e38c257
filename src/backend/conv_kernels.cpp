#include "backend/conv_kernels.hpp"

#include <stdexcept>
#include <string>

#include "backend/perf_counters.hpp"
#include "tensor/arena.hpp"
#include "tensor/gemm.hpp"
#include "winograd/small_mat.hpp"

namespace wa::backend {

void ConvGeometry::validate() const {
  if (batch < 1 || in_channels < 1 || out_channels < 1 || height < 1 || width < 1 || kernel < 1 ||
      pad < 0 || groups < 1 || stride < 1) {
    throw std::invalid_argument("ConvGeometry: non-positive dimension");
  }
  if (in_channels % groups != 0 || out_channels % groups != 0) {
    throw std::invalid_argument("ConvGeometry: channels not divisible by groups");
  }
  if (out_height() < 1 || out_width() < 1) {
    throw std::invalid_argument("ConvGeometry: empty output");
  }
}

namespace {
void check_shapes(const Tensor& input, const Tensor& weights, const ConvGeometry& g,
                  const char* what) {
  g.validate();
  if (input.dim() != 4 || input.size(0) != g.batch || input.size(1) != g.in_channels ||
      input.size(2) != g.height || input.size(3) != g.width) {
    throw std::invalid_argument(std::string(what) + ": input shape " + to_string(input.shape()) +
                                " does not match geometry");
  }
  if (weights.dim() != 4 || weights.size(0) != g.out_channels ||
      weights.size(1) != g.in_channels / g.groups || weights.size(2) != g.kernel ||
      weights.size(3) != g.kernel) {
    throw std::invalid_argument(std::string(what) + ": weight shape " + to_string(weights.shape()) +
                                " does not match geometry");
  }
}
}  // namespace

Tensor direct_conv(const Tensor& input, const Tensor& weights, const ConvGeometry& g) {
  check_shapes(input, weights, g, "direct_conv");
  const std::int64_t oh = g.out_height(), ow = g.out_width();
  const std::int64_t cpg = g.in_channels / g.groups;  // channels per group
  const std::int64_t kpg = g.out_channels / g.groups;
  Tensor out(Shape{g.batch, g.out_channels, oh, ow});
#pragma omp parallel for collapse(2) schedule(static)
  for (std::int64_t n = 0; n < g.batch; ++n) {
    for (std::int64_t k = 0; k < g.out_channels; ++k) {
      const std::int64_t grp = k / kpg;
      for (std::int64_t i = 0; i < oh; ++i) {
        for (std::int64_t j = 0; j < ow; ++j) {
          double acc = 0;
          for (std::int64_t c = 0; c < cpg; ++c) {
            for (std::int64_t fi = 0; fi < g.kernel; ++fi) {
              const std::int64_t ii = i + fi - g.pad;
              if (ii < 0 || ii >= g.height) continue;
              for (std::int64_t fj = 0; fj < g.kernel; ++fj) {
                const std::int64_t jj = j + fj - g.pad;
                if (jj < 0 || jj >= g.width) continue;
                acc += static_cast<double>(input(n, grp * cpg + c, ii, jj)) *
                       weights(k, c, fi, fj);
              }
            }
          }
          out(n, k, i, j) = static_cast<float>(acc);
        }
      }
    }
  }
  return out;
}

Tensor im2row_lower(const Tensor& input, const ConvGeometry& g) {
  const std::int64_t oh = g.out_height(), ow = g.out_width();
  const std::int64_t patch = g.in_channels * g.kernel * g.kernel;
  Tensor rows(Shape{g.batch * oh * ow, patch});
#pragma omp parallel for collapse(2) schedule(static)
  for (std::int64_t n = 0; n < g.batch; ++n) {
    for (std::int64_t i = 0; i < oh; ++i) {
      for (std::int64_t j = 0; j < ow; ++j) {
        float* dst = rows.raw() + ((n * oh + i) * ow + j) * patch;
        for (std::int64_t c = 0; c < g.in_channels; ++c) {
          for (std::int64_t fi = 0; fi < g.kernel; ++fi) {
            const std::int64_t ii = i + fi - g.pad;
            for (std::int64_t fj = 0; fj < g.kernel; ++fj) {
              const std::int64_t jj = j + fj - g.pad;
              *dst++ = (ii >= 0 && ii < g.height && jj >= 0 && jj < g.width)
                           ? input(n, c, ii, jj)
                           : 0.F;
            }
          }
        }
      }
    }
  }
  return rows;
}

namespace {
/// GEMM output [rows=N*oh*ow, K] -> NCHW.
Tensor rows_to_nchw(const Tensor& rows, const ConvGeometry& g) {
  const std::int64_t oh = g.out_height(), ow = g.out_width();
  Tensor out(Shape{g.batch, g.out_channels, oh, ow});
  for (std::int64_t n = 0; n < g.batch; ++n) {
    for (std::int64_t i = 0; i < oh; ++i) {
      for (std::int64_t j = 0; j < ow; ++j) {
        const float* src = rows.raw() + ((n * oh + i) * ow + j) * g.out_channels;
        for (std::int64_t k = 0; k < g.out_channels; ++k) out(n, k, i, j) = src[k];
      }
    }
  }
  return out;
}

Tensor grouped_gemm_conv(const Tensor& input, const Tensor& weights, const ConvGeometry& g,
                         bool row_major_patches) {
  // Handle groups by splitting into per-group geometries over channel slices.
  const std::int64_t cpg = g.in_channels / g.groups;
  const std::int64_t kpg = g.out_channels / g.groups;
  const std::int64_t oh = g.out_height(), ow = g.out_width();
  Tensor out(Shape{g.batch, g.out_channels, oh, ow});
  for (std::int64_t grp = 0; grp < g.groups; ++grp) {
    // Slice input channels [grp*cpg, (grp+1)*cpg).
    Tensor in_slice(Shape{g.batch, cpg, g.height, g.width});
    for (std::int64_t n = 0; n < g.batch; ++n)
      for (std::int64_t c = 0; c < cpg; ++c)
        for (std::int64_t i = 0; i < g.height; ++i)
          for (std::int64_t j = 0; j < g.width; ++j)
            in_slice(n, c, i, j) = input(n, grp * cpg + c, i, j);
    Tensor w_slice = weights.slice0(grp * kpg, (grp + 1) * kpg);

    ConvGeometry sub = g;
    sub.in_channels = cpg;
    sub.out_channels = kpg;
    sub.groups = 1;

    const std::int64_t patch = cpg * g.kernel * g.kernel;
    const Tensor wmat = w_slice.reshape(Shape{kpg, patch});
    Tensor result_rows(Shape{g.batch * oh * ow, kpg});
    if (row_major_patches) {
      const Tensor rows = im2row_lower(in_slice, sub);
      gemm_f32(false, true, rows.size(0), kpg, patch, 1.F, rows.raw(), wmat.raw(), 0.F,
               result_rows.raw());
    } else {
      const Tensor cols = im2col_lower(in_slice, sub);
      // out_cols [K, N*oh*ow] = wmat [K, patch] x cols [patch, N*oh*ow]
      Tensor out_cols(Shape{kpg, g.batch * oh * ow});
      gemm_f32(false, false, kpg, cols.size(1), patch, 1.F, wmat.raw(), cols.raw(), 0.F,
               out_cols.raw());
      for (std::int64_t k = 0; k < kpg; ++k)
        for (std::int64_t p = 0; p < g.batch * oh * ow; ++p) result_rows(p, k) = out_cols(k, p);
    }
    const Tensor sub_out = rows_to_nchw(result_rows, sub);
    for (std::int64_t n = 0; n < g.batch; ++n)
      for (std::int64_t k = 0; k < kpg; ++k)
        for (std::int64_t i = 0; i < oh; ++i)
          for (std::int64_t j = 0; j < ow; ++j)
            out(n, grp * kpg + k, i, j) = sub_out(n, k, i, j);
  }
  return out;
}
}  // namespace

Tensor im2row_conv(const Tensor& input, const Tensor& weights, const ConvGeometry& g) {
  check_shapes(input, weights, g, "im2row_conv");
  return grouped_gemm_conv(input, weights, g, /*row_major_patches=*/true);
}

Tensor im2col_lower(const Tensor& input, const ConvGeometry& g) {
  const std::int64_t oh = g.out_height(), ow = g.out_width();
  const std::int64_t patch = g.in_channels * g.kernel * g.kernel;
  const std::int64_t cols = g.batch * oh * ow;
  Tensor m(Shape{patch, cols});
#pragma omp parallel for schedule(static)
  for (std::int64_t c = 0; c < g.in_channels; ++c) {
    for (std::int64_t fi = 0; fi < g.kernel; ++fi) {
      for (std::int64_t fj = 0; fj < g.kernel; ++fj) {
        const std::int64_t row = (c * g.kernel + fi) * g.kernel + fj;
        for (std::int64_t n = 0; n < g.batch; ++n) {
          for (std::int64_t i = 0; i < oh; ++i) {
            const std::int64_t ii = i + fi - g.pad;
            for (std::int64_t j = 0; j < ow; ++j) {
              const std::int64_t jj = j + fj - g.pad;
              m(row, (n * oh + i) * ow + j) =
                  (ii >= 0 && ii < g.height && jj >= 0 && jj < g.width) ? input(n, c, ii, jj)
                                                                        : 0.F;
            }
          }
        }
      }
    }
  }
  return m;
}

Tensor im2col_conv(const Tensor& input, const Tensor& weights, const ConvGeometry& g) {
  check_shapes(input, weights, g, "im2col_conv");
  return grouped_gemm_conv(input, weights, g, /*row_major_patches=*/false);
}

Tensor winograd_transform_weights(const Tensor& weights, const wino::Transforms& tr) {
  const std::int64_t k = weights.size(0), c = weights.size(1);
  wino::check_transforms(tr, "winograd_transform_weights");
  const std::int64_t t = tr.tile;
  count_weight_transform();
  Tensor u(Shape{t * t, k, c});
#pragma omp parallel for schedule(static)
  for (std::int64_t ki = 0; ki < k; ++ki) {
    float tmp[wino::kSmallMatCap], gg[wino::kSmallMatCap];
    for (std::int64_t ci = 0; ci < c; ++ci) {
      const float* filt = weights.raw() + (ki * c + ci) * tr.r * tr.r;
      wino::smm_sandwich(tr.g_mat.raw(), tr.tile, tr.r, filt, tmp, gg);
      for (std::int64_t ab = 0; ab < t * t; ++ab) u(ab, ki, ci) = gg[ab];
    }
  }
  return u;
}

Tensor winograd_conv(const Tensor& input, const Tensor& weights, const ConvGeometry& g,
                     const wino::Transforms& tr) {
  check_shapes(input, weights, g, "winograd_conv");
  // U: [t*t, K, C] (amortizable across inferences — winograd_conv_prepared
  // is the serving path that actually amortizes it).
  return winograd_conv_prepared(input, winograd_transform_weights(weights, tr), g, tr);
}

Tensor winograd_conv_prepared(const Tensor& input, const Tensor& u, const ConvGeometry& g,
                              const wino::Transforms& tr) {
  wino::check_transforms(tr, "winograd_conv_prepared");
  g.validate();
  if (g.groups != 1) throw std::invalid_argument("winograd_conv: groups must be 1 (split upstream)");
  if (g.kernel != tr.r) throw std::invalid_argument("winograd_conv: kernel != transform r");
  if (input.shape() != Shape{g.batch, g.in_channels, g.height, g.width}) {
    throw std::invalid_argument("winograd_conv_prepared: input shape " +
                                to_string(input.shape()) + " does not match geometry");
  }
  if (u.shape() != Shape{tr.tile * tr.tile, g.out_channels, g.in_channels}) {
    throw std::invalid_argument("winograd_conv_prepared: U shape " + to_string(u.shape()) +
                                " does not match geometry");
  }

  const std::int64_t oh = g.out_height(), ow = g.out_width();
  const std::int64_t t = tr.tile, m = tr.m;
  const std::int64_t th = (oh + m - 1) / m, tw = (ow + m - 1) / m;
  const std::int64_t tiles = g.batch * th * tw;

  ScratchArena& arena = ScratchArena::for_thread();
  ScratchArena::Scope frame(arena);

  // 1) V: [t*t, C, tiles] — scatter every input tile, in the arena.
  float* v = arena.alloc<float>(t * t * g.in_channels * tiles);
#pragma omp parallel for schedule(static)
  for (std::int64_t nc = 0; nc < g.batch * g.in_channels; ++nc) {
    const std::int64_t n = nc / g.in_channels, c = nc % g.in_channels;
    float patch[wino::kSmallMatCap], tmp[wino::kSmallMatCap], bt[wino::kSmallMatCap];
    for (std::int64_t ti = 0; ti < th; ++ti) {
      for (std::int64_t tj = 0; tj < tw; ++tj) {
        const std::int64_t i0 = ti * m - g.pad, j0 = tj * m - g.pad;
        for (std::int64_t a = 0; a < t; ++a) {
          for (std::int64_t b = 0; b < t; ++b) {
            const std::int64_t ii = i0 + a, jj = j0 + b;
            patch[a * t + b] = (ii >= 0 && ii < g.height && jj >= 0 && jj < g.width)
                                   ? input(n, c, ii, jj)
                                   : 0.F;
          }
        }
        wino::smm_sandwich(tr.bt_mat.raw(), tr.tile, tr.tile, patch, tmp, bt);
        const std::int64_t tile_idx = (n * th + ti) * tw + tj;
        for (std::int64_t a = 0; a < t * t; ++a) v[(a * g.in_channels + c) * tiles + tile_idx] = bt[a];
      }
    }
  }

  // 2) M: t² GEMMs [K, C] x [C, tiles] -> [t*t, K, tiles].
  float* mm = arena.alloc<float>(t * t * g.out_channels * tiles);
  gemm_batched_f32(false, false, t * t, g.out_channels, tiles, g.in_channels, u.raw(),
                   g.out_channels * g.in_channels, v, g.in_channels * tiles, mm,
                   g.out_channels * tiles);

  // 3) Y = Aᵀ M A per (k, tile), gathered into the valid output region.
  Tensor out(Shape{g.batch, g.out_channels, oh, ow});
#pragma omp parallel for schedule(static)
  for (std::int64_t nk = 0; nk < g.batch * g.out_channels; ++nk) {
    const std::int64_t n = nk / g.out_channels, k = nk % g.out_channels;
    float mtile[wino::kSmallMatCap], tmp[wino::kSmallMatCap], y[wino::kSmallMatCap];
    for (std::int64_t ti = 0; ti < th; ++ti) {
      for (std::int64_t tj = 0; tj < tw; ++tj) {
        const std::int64_t tile_idx = (n * th + ti) * tw + tj;
        for (std::int64_t a = 0; a < t * t; ++a) {
          mtile[a] = mm[(a * g.out_channels + k) * tiles + tile_idx];
        }
        wino::smm_sandwich(tr.at_mat.raw(), tr.m, tr.tile, mtile, tmp, y);  // [m, m]
        for (std::int64_t a = 0; a < m; ++a) {
          const std::int64_t oi = ti * m + a;
          if (oi >= oh) break;
          for (std::int64_t b = 0; b < m; ++b) {
            const std::int64_t oj = tj * m + b;
            if (oj >= ow) break;
            out(n, k, oi, oj) = y[a * m + b];
          }
        }
      }
    }
  }
  return out;
}

}  // namespace wa::backend
