#include "nn/conv_ops.hpp"

#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>

#include "tensor/gemm.hpp"

namespace wa::nn {

using backend::ConvGeometry;

Tensor row2im_accumulate(const Tensor& rows, const ConvGeometry& g) {
  const std::int64_t oh = g.out_height(), ow = g.out_width();
  const std::int64_t patch = g.in_channels * g.kernel * g.kernel;
  if (rows.size(0) != g.batch * oh * ow || rows.size(1) != patch) {
    throw std::invalid_argument("row2im_accumulate: rows shape mismatch");
  }
  Tensor out(Shape{g.batch, g.in_channels, g.height, g.width});
  for (std::int64_t n = 0; n < g.batch; ++n) {
    for (std::int64_t i = 0; i < oh; ++i) {
      for (std::int64_t j = 0; j < ow; ++j) {
        const float* src = rows.raw() + ((n * oh + i) * ow + j) * patch;
        for (std::int64_t c = 0; c < g.in_channels; ++c) {
          for (std::int64_t fi = 0; fi < g.kernel; ++fi) {
            const std::int64_t ii = i + fi - g.pad;
            if (ii < 0 || ii >= g.height) {
              src += g.kernel;
              continue;
            }
            for (std::int64_t fj = 0; fj < g.kernel; ++fj) {
              const std::int64_t jj = j + fj - g.pad;
              if (jj >= 0 && jj < g.width) out(n, c, ii, jj) += *src;
              ++src;
            }
          }
        }
      }
    }
  }
  return out;
}

namespace {

/// [N,K,oh,ow] -> [N*oh*ow, K] (the layout the GEMM produced/consumes).
Tensor nchw_to_rows(const Tensor& t) {
  const std::int64_t n = t.size(0), k = t.size(1), oh = t.size(2), ow = t.size(3);
  Tensor rows(Shape{n * oh * ow, k});
  for (std::int64_t b = 0; b < n; ++b)
    for (std::int64_t c = 0; c < k; ++c)
      for (std::int64_t i = 0; i < oh; ++i)
        for (std::int64_t j = 0; j < ow; ++j) rows((b * oh + i) * ow + j, c) = t(b, c, i, j);
  return rows;
}

Tensor slice_channels(const Tensor& x, std::int64_t begin, std::int64_t end) {
  const std::int64_t n = x.size(0), h = x.size(2), w = x.size(3);
  Tensor out(Shape{n, end - begin, h, w});
  for (std::int64_t b = 0; b < n; ++b)
    for (std::int64_t c = begin; c < end; ++c)
      for (std::int64_t i = 0; i < h; ++i)
        for (std::int64_t j = 0; j < w; ++j) out(b, c - begin, i, j) = x(b, c, i, j);
  return out;
}

void add_into_channels(Tensor& dst, const Tensor& src, std::int64_t begin) {
  const std::int64_t n = src.size(0), c = src.size(1), h = src.size(2), w = src.size(3);
  for (std::int64_t b = 0; b < n; ++b)
    for (std::int64_t cc = 0; cc < c; ++cc)
      for (std::int64_t i = 0; i < h; ++i)
        for (std::int64_t j = 0; j < w; ++j) dst(b, begin + cc, i, j) += src(b, cc, i, j);
}

}  // namespace

ag::Variable conv2d_im2row(const ag::Variable& input, const ag::Variable& weight,
                           const ag::Variable& bias, const ConvGeometry& geom) {
  Tensor out = backend::im2row_conv(input.value(), weight.value(), geom);
  const bool has_bias = bias.defined();
  if (has_bias) {
    const std::int64_t n = out.size(0), k = out.size(1), oh = out.size(2), ow = out.size(3);
    for (std::int64_t b = 0; b < n; ++b)
      for (std::int64_t c = 0; c < k; ++c) {
        const float bv = bias.value().at(c);
        for (std::int64_t i = 0; i < oh; ++i)
          for (std::int64_t j = 0; j < ow; ++j) out(b, c, i, j) += bv;
      }
  }

  auto xn = input.node();
  auto wn = weight.node();
  auto bn = has_bias ? bias.node() : nullptr;
  std::vector<ag::Variable> parents{input, weight};
  if (has_bias) parents.push_back(bias);

  return ag::apply_op("conv2d_im2row", std::move(parents), std::move(out),
                      [xn, wn, bn, geom](ag::Node& node) {
    const Tensor& dy = node.grad;
    const std::int64_t cpg = geom.in_channels / geom.groups;
    const std::int64_t kpg = geom.out_channels / geom.groups;
    const std::int64_t oh = geom.out_height(), ow = geom.out_width();

    if (bn && bn->requires_grad) {
      Tensor db(Shape{geom.out_channels});
      for (std::int64_t b = 0; b < geom.batch; ++b)
        for (std::int64_t c = 0; c < geom.out_channels; ++c)
          for (std::int64_t i = 0; i < oh; ++i)
            for (std::int64_t j = 0; j < ow; ++j) db.at(c) += dy(b, c, i, j);
      bn->accum_grad(db);
    }

    const bool need_dx = xn->requires_grad;
    const bool need_dw = wn->requires_grad;
    if (!need_dx && !need_dw) return;

    Tensor dx = need_dx ? Tensor::zeros(xn->value.shape()) : Tensor();
    Tensor dw = need_dw ? Tensor::zeros(wn->value.shape()) : Tensor();

    for (std::int64_t grp = 0; grp < geom.groups; ++grp) {
      ConvGeometry sub = geom;
      sub.in_channels = cpg;
      sub.out_channels = kpg;
      sub.groups = 1;
      const std::int64_t patch = cpg * geom.kernel * geom.kernel;

      // dY for this group's output channels, in rows layout [NP, kpg].
      Tensor dy_slice = slice_channels(dy, grp * kpg, (grp + 1) * kpg);
      Tensor dy_rows = nchw_to_rows(dy_slice);

      const Tensor x_slice = geom.groups == 1 ? xn->value
                                              : slice_channels(xn->value, grp * cpg, (grp + 1) * cpg);

      if (need_dw) {
        // dW [kpg, patch] = dY_rows^T [kpg, NP] x rows [NP, patch].
        const Tensor rows = backend::im2row_lower(x_slice, sub);
        Tensor dw_mat(Shape{kpg, patch});
        gemm_f32(true, false, kpg, patch, rows.size(0), 1.F, dy_rows.raw(), rows.raw(), 0.F,
                 dw_mat.raw());
        float* dst = dw.raw() + grp * kpg * patch;
        for (std::int64_t i = 0; i < kpg * patch; ++i) dst[i] += dw_mat.at(i);
      }
      if (need_dx) {
        // dRows [NP, patch] = dY_rows [NP, kpg] x W_mat [kpg, patch].
        const Tensor w_mat = wn->value.slice0(grp * kpg, (grp + 1) * kpg).reshape({kpg, patch});
        Tensor drows(Shape{dy_rows.size(0), patch});
        gemm_f32(false, false, dy_rows.size(0), patch, kpg, 1.F, dy_rows.raw(), w_mat.raw(), 0.F,
                 drows.raw());
        const Tensor dx_slice = row2im_accumulate(drows, sub);
        if (geom.groups == 1) {
          dx += dx_slice;
        } else {
          add_into_channels(dx, dx_slice, grp * cpg);
        }
      }
    }
    if (need_dx) xn->accum_grad(dx);
    if (need_dw) wn->accum_grad(dw);
  });
}

ag::Variable max_pool2d(const ag::Variable& input, std::int64_t kernel, std::int64_t stride) {
  const Tensor& x = input.value();
  if (x.dim() != 4) throw std::invalid_argument("max_pool2d: expects NCHW");
  const std::int64_t n = x.size(0), c = x.size(1), h = x.size(2), w = x.size(3);
  const std::int64_t oh = (h - kernel) / stride + 1, ow = (w - kernel) / stride + 1;
  if (oh < 1 || ow < 1) throw std::invalid_argument("max_pool2d: output would be empty");

  Tensor out(Shape{n, c, oh, ow});
  auto argmax = std::make_shared<std::vector<std::int64_t>>(
      static_cast<std::size_t>(n * c * oh * ow));
  const float* xp = x.raw();
  float* op = out.raw();
  std::int64_t* ap = argmax->data();
  // (n, c) planes are independent: each reads and, in backward, writes only
  // its own input plane.
#pragma omp parallel for schedule(static) if (x.numel() >= kParallelSweepMin)
  for (std::int64_t plane = 0; plane < n * c; ++plane) {
    const std::int64_t in_base = plane * h * w, out_base = plane * oh * ow;
    for (std::int64_t i = 0; i < oh; ++i) {
      for (std::int64_t j = 0; j < ow; ++j) {
        float best = -std::numeric_limits<float>::infinity();
        // A window with no value above -inf (all -inf or NaN) routes to its
        // first element, so every plane writes only its own input plane.
        std::int64_t best_idx = in_base + i * stride * w + j * stride;
        for (std::int64_t fi = 0; fi < kernel; ++fi) {
          for (std::int64_t fj = 0; fj < kernel; ++fj) {
            const std::int64_t idx = in_base + (i * stride + fi) * w + j * stride + fj;
            const float v = xp[idx];
            if (v > best) {
              best = v;
              best_idx = idx;
            }
          }
        }
        op[out_base + i * ow + j] = best;
        ap[out_base + i * ow + j] = best_idx;
      }
    }
  }

  auto xn = input.node();
  const std::int64_t planes = n * c, per_plane = oh * ow;
  return ag::apply_op("max_pool2d", {input}, std::move(out),
                      [xn, argmax, planes, per_plane](ag::Node& node) {
    if (!xn->requires_grad) return;
    Tensor dx = Tensor::zeros(xn->value.shape());
    const float* g = node.grad.raw();
    const std::int64_t* src = argmax->data();
    float* dxp = dx.raw();
#pragma omp parallel for schedule(static) if (dx.numel() >= kParallelSweepMin)
    for (std::int64_t plane = 0; plane < planes; ++plane) {
      for (std::int64_t i = plane * per_plane; i < (plane + 1) * per_plane; ++i) {
        dxp[src[i]] += g[i];
      }
    }
    xn->accum_grad(dx);
  });
}

ag::Variable global_avg_pool(const ag::Variable& input) {
  const Tensor& x = input.value();
  if (x.dim() != 4) throw std::invalid_argument("global_avg_pool: expects NCHW");
  const std::int64_t n = x.size(0), c = x.size(1), h = x.size(2), w = x.size(3);
  Tensor out(Shape{n, c});
  const float inv = 1.F / static_cast<float>(h * w);
  for (std::int64_t b = 0; b < n; ++b) {
    for (std::int64_t ch = 0; ch < c; ++ch) {
      double acc = 0;
      for (std::int64_t i = 0; i < h; ++i)
        for (std::int64_t j = 0; j < w; ++j) acc += x(b, ch, i, j);
      out(b, ch) = static_cast<float>(acc) * inv;
    }
  }
  auto xn = input.node();
  return ag::apply_op("global_avg_pool", {input}, std::move(out), [xn, h, w, inv](ag::Node& node) {
    if (!xn->requires_grad) return;
    Tensor dx(xn->value.shape());
    const std::int64_t n = dx.size(0), c = dx.size(1);
    for (std::int64_t b = 0; b < n; ++b)
      for (std::int64_t ch = 0; ch < c; ++ch) {
        const float g = node.grad(b, ch) * inv;
        for (std::int64_t i = 0; i < h; ++i)
          for (std::int64_t j = 0; j < w; ++j) dx(b, ch, i, j) = g;
      }
    xn->accum_grad(dx);
  });
}

ag::Variable batch_norm2d(const ag::Variable& input, const ag::Variable& gamma,
                          const ag::Variable& beta, BatchNormState& state, bool training) {
  const Tensor& x = input.value();
  if (x.dim() != 4) throw std::invalid_argument("batch_norm2d: expects NCHW");
  const std::int64_t n = x.size(0), c = x.size(1), h = x.size(2), w = x.size(3);
  if (gamma.numel() != c || beta.numel() != c) {
    throw std::invalid_argument("batch_norm2d: gamma/beta must have C elements");
  }
  if (state.running_mean.numel() < c || state.running_var.numel() < c) {
    throw std::out_of_range("batch_norm2d: running statistics hold fewer than C elements");
  }
  const std::int64_t m = n * h * w;  // reduction size per channel
  const float eps = state.eps;

  auto mean = std::make_shared<Tensor>(Shape{c});
  auto inv_std = std::make_shared<Tensor>(Shape{c});
  const std::int64_t hw = h * w;
  const float* xp = x.raw();
  if (training) {
    // Channels are independent; each keeps its serial (n, h, w) double sums.
#pragma omp parallel for schedule(static) if (x.numel() >= kParallelSweepMin)
    for (std::int64_t ch = 0; ch < c; ++ch) {
      double acc = 0;
      for (std::int64_t b = 0; b < n; ++b) {
        const float* plane = xp + (b * c + ch) * hw;
        for (std::int64_t i = 0; i < hw; ++i) acc += plane[i];
      }
      const double mu = acc / static_cast<double>(m);
      double var_acc = 0;
      for (std::int64_t b = 0; b < n; ++b) {
        const float* plane = xp + (b * c + ch) * hw;
        for (std::int64_t i = 0; i < hw; ++i) {
          const double d = plane[i] - mu;
          var_acc += d * d;
        }
      }
      const double var = var_acc / static_cast<double>(m);
      mean->raw()[ch] = static_cast<float>(mu);
      inv_std->raw()[ch] = static_cast<float>(1.0 / std::sqrt(var + eps));
      float& rm = state.running_mean.raw()[ch];
      float& rv = state.running_var.raw()[ch];
      rm = (1.F - state.momentum) * rm + state.momentum * static_cast<float>(mu);
      rv = (1.F - state.momentum) * rv + state.momentum * static_cast<float>(var);
    }
  } else {
    for (std::int64_t ch = 0; ch < c; ++ch) {
      mean->at(ch) = state.running_mean.at(ch);
      inv_std->at(ch) = 1.F / std::sqrt(state.running_var.at(ch) + eps);
    }
  }

  Tensor out(x.shape());
  auto xhat = std::make_shared<Tensor>(x.shape());
  {
    const float* mp = mean->raw();
    const float* isp = inv_std->raw();
    const float* gp = gamma.value().raw();
    const float* bp = beta.value().raw();
    float* op = out.raw();
    float* xhp = xhat->raw();
#pragma omp parallel for schedule(static) if (x.numel() >= kParallelSweepMin)
    for (std::int64_t plane = 0; plane < n * c; ++plane) {
      const std::int64_t ch = plane % c;
      const float mu = mp[ch], is = isp[ch];
      const float ga = gp[ch], be = bp[ch];
      const std::int64_t base = plane * hw;
      for (std::int64_t i = 0; i < hw; ++i) {
        const float xh = (xp[base + i] - mu) * is;
        xhp[base + i] = xh;
        op[base + i] = ga * xh + be;
      }
    }
  }

  auto xn = input.node();
  auto gn = gamma.node();
  auto bn = beta.node();
  return ag::apply_op(
      "batch_norm2d", {input, gamma, beta}, std::move(out),
      [xn, gn, bn, xhat, inv_std, training, n, c, hw, m](ag::Node& node) {
        const float* dy = node.grad.raw();
        const float* xhp = xhat->raw();
        const bool parallel = node.grad.numel() >= kParallelSweepMin;
        // Per-channel reductions shared by all gradients: float sums in
        // each channel's serial (n, h, w) order.
        Tensor sum_dy(Shape{c}), sum_dy_xhat(Shape{c});
        float* sdy = sum_dy.raw();
        float* sdyx = sum_dy_xhat.raw();
#pragma omp parallel for schedule(static) if (parallel)
        for (std::int64_t ch = 0; ch < c; ++ch) {
          float a = 0.F, ax = 0.F;
          for (std::int64_t b = 0; b < n; ++b) {
            const std::int64_t base = (b * c + ch) * hw;
            for (std::int64_t i = 0; i < hw; ++i) {
              a += dy[base + i];
              ax += dy[base + i] * xhp[base + i];
            }
          }
          sdy[ch] = a;
          sdyx[ch] = ax;
        }
        if (bn->requires_grad) bn->accum_grad(sum_dy);
        if (gn->requires_grad) gn->accum_grad(sum_dy_xhat);
        if (!xn->requires_grad) return;

        Tensor dx(xn->value.shape());
        float* dxp = dx.raw();
        const float* gp = gn->value.raw();
        const float* isp = inv_std->raw();
        const float inv_m = 1.F / static_cast<float>(m);
#pragma omp parallel for schedule(static) if (parallel)
        for (std::int64_t plane = 0; plane < n * c; ++plane) {
          const std::int64_t ch = plane % c;
          const float ga = gp[ch], is = isp[ch];
          const float s1 = sdy[ch], s2 = sdyx[ch];
          const std::int64_t base = plane * hw;
          for (std::int64_t i = 0; i < hw; ++i) {
            const float g = dy[base + i];
            if (training) {
              // d/dx of batch-normalized output (standard closed form).
              dxp[base + i] = ga * is * (g - inv_m * s1 - inv_m * xhp[base + i] * s2);
            } else {
              dxp[base + i] = ga * is * g;
            }
          }
        }
        xn->accum_grad(dx);
      });
}

}  // namespace wa::nn
