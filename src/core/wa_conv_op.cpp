#include "core/wa_conv_op.hpp"

#include <cstring>
#include <memory>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "backend/perf_counters.hpp"
#include "winograd/small_mat.hpp"
#include "quant/quant.hpp"
#include "tensor/gemm.hpp"

namespace wa::core {

using wino::kLanes;
using wino::kMaxTile;
using wino::kSmallMatCap;
using wino::smm_add;
using wino::smm_nn;
using wino::smm_nt;
using wino::smm_sandwich;
using wino::smm_sandwich_lanes;
using wino::smm_sandwich_t;
using wino::smm_tn;

namespace {

using quant::QuantSpec;

/// Everything the backward pass needs, captured by shared_ptr.
struct Saved {
  // Quantized intermediates (the values actually consumed downstream).
  Tensor u_q;      // [groups, t*t, Kg, Cg]
  Tensor v_q;      // [groups, t*t, Cg, NP]
  Tensor m_q;      // [groups, t*t, Kg, NP]
  Tensor patches;  // [groups, Cg, NP, t, t] — pre-transform input tiles
  // STE clip masks, empty when spec is fp32.
  std::vector<std::uint8_t> mask_u, mask_v, mask_m, mask_y;
};

void fake_quant_stage(Tensor& x, quant::RangeObserver& obs, const QuantSpec& spec, bool training,
                      std::vector<std::uint8_t>* mask) {
  if (spec.is_float()) return;
  if (training) obs.observe(x);
  if (spec.is_affine()) {
    quant::fake_quant_qparams_(x, obs.qparams(spec), spec, mask);
  } else {
    quant::fake_quant_(x, obs.scale(spec), spec, mask);
  }
}

/// Per-tap variant for the transform-domain stages: x is one of the op's
/// [groups, t*t, ...] tensors (taps on axis 1). Ranges are tracked per group
/// of `group_size` contiguous taps and the fake-quant grid is the expanded
/// per-tap scale vector — the same grid the deployed per-tap executor
/// quantizes against. Symmetric schemes only (enforced at layer construction).
void fake_quant_stage_taps(Tensor& x, quant::TapRangeObserver& obs, std::int64_t taps,
                           std::int64_t group_size, const QuantSpec& spec, bool training,
                           std::vector<std::uint8_t>* mask) {
  if (spec.is_float()) return;
  obs.configure(taps, group_size);
  if (training) obs.observe(x, /*tap_dim=*/1);
  quant::fake_quant_taps_(x, obs.scale_vector(spec), /*tap_dim=*/1, spec, mask);
}

/// FNV-1a over arbitrary bytes, word-at-a-time (the U-cache key).
std::uint64_t fnv1a(const void* data, std::size_t bytes, std::uint64_t h) {
  constexpr std::uint64_t kPrime = 1099511628211ULL;
  const auto* p = static_cast<const unsigned char*>(data);
  std::size_t i = 0;
  for (; i + 8 <= bytes; i += 8) {
    std::uint64_t word;
    std::memcpy(&word, p + i, 8);
    h = (h ^ word) * kPrime;
  }
  for (; i < bytes; ++i) h = (h ^ p[i]) * kPrime;
  return h;
}

/// Content key of everything stage 1 depends on.
std::uint64_t u_cache_key(const Tensor& w, const Tensor& g, const Tensor* u_mask,
                          const WaQuantStages& stages) {
  std::uint64_t h = 14695981039346656037ULL;
  h = fnv1a(w.raw(), static_cast<std::size_t>(w.numel()) * sizeof(float), h);
  h = fnv1a(g.raw(), static_cast<std::size_t>(g.numel()) * sizeof(float), h);
  if (u_mask != nullptr && !u_mask->empty()) {
    h = fnv1a(u_mask->raw(), static_cast<std::size_t>(u_mask->numel()) * sizeof(float), h);
  }
  const quant::QuantSpec& spec = stages.u_spec();
  const struct {
    float mn, mx;
    std::int32_t init, bits, scheme;
  } qx{stages.u.tracked_min(), stages.u.tracked_max(),
       static_cast<std::int32_t>(stages.u.initialized()), spec.bits,
       static_cast<std::int32_t>(spec.scheme)};
  h = fnv1a(&qx, sizeof(qx), h);
  if (stages.per_tap()) {
    // Per-tap U ranges determine the cached tensor too: any group's tracked
    // interval moving must invalidate the cache.
    h = fnv1a(&stages.tap_group_size, sizeof(stages.tap_group_size), h);
    for (const quant::RangeObserver& g : stages.u_taps.groups()) {
      const struct {
        float mn, mx;
        std::int32_t init;
      } tg{g.tracked_min(), g.tracked_max(), static_cast<std::int32_t>(g.initialized())};
      h = fnv1a(&tg, sizeof(tg), h);
    }
  }
  return h;
}

}  // namespace

ag::Variable winograd_aware_conv2d(const ag::Variable& input, const ag::Variable& weight,
                                   const ag::Variable& bias, const ag::Variable& g_mat,
                                   const ag::Variable& bt_mat, const ag::Variable& at_mat,
                                   const backend::ConvGeometry& geom, int m_out,
                                   WaQuantStages& stages, bool training,
                                   const Tensor* u_mask) {
  geom.validate();
  const std::int64_t r = geom.kernel;
  const std::int64_t t = g_mat.shape()[0];
  const std::int64_t m = m_out;
  if (g_mat.shape() != Shape{t, r} || bt_mat.shape() != Shape{t, t} ||
      at_mat.shape() != Shape{m, t} || t != m + r - 1) {
    throw std::invalid_argument("winograd_aware_conv2d: transform shapes inconsistent with F(" +
                                std::to_string(m) + "," + std::to_string(r) + ")");
  }
  if (bias.defined() && bias.value().numel() != geom.out_channels) {
    throw std::invalid_argument("winograd_aware_conv2d: bias must have out_channels elements");
  }
  if (t > kMaxTile) {
    throw std::invalid_argument("winograd_aware_conv2d: tile size " + std::to_string(t) +
                                " exceeds supported maximum " + std::to_string(kMaxTile));
  }
  const std::int64_t groups = geom.groups;
  const std::int64_t cg = geom.in_channels / groups;
  const std::int64_t kg = geom.out_channels / groups;
  const std::int64_t oh = geom.out_height(), ow = geom.out_width();
  const std::int64_t th = (oh + m - 1) / m, tw = (ow + m - 1) / m;
  const std::int64_t np = geom.batch * th * tw;  // tiles across the batch
  const std::int64_t tt = t * t;
  const int ti_ = static_cast<int>(t), ri_ = static_cast<int>(r), mi_ = static_cast<int>(m);

  const Tensor& x = input.value();
  const Tensor& w = weight.value();
  if (x.shape() != Shape{geom.batch, geom.in_channels, geom.height, geom.width} ||
      w.shape() != Shape{geom.out_channels, cg, r, r}) {
    throw std::invalid_argument("winograd_aware_conv2d: input " + to_string(x.shape()) +
                                " or weight " + to_string(w.shape()) +
                                " does not match the geometry");
  }
  // Raw-index strides of the NCHW input and output.
  const std::int64_t in_plane = geom.height * geom.width;
  const std::int64_t out_plane = oh * ow;
  const float* gm = g_mat.value().raw();
  const float* bt = bt_mat.value().raw();
  const float* at = at_mat.value().raw();

  auto saved = std::make_shared<Saved>();

  // ---- 1) weight transform U = Qx(G g Gᵀ) --------------------------------
  // In eval the whole stage is deterministic in (w, G, mask, observer state),
  // so it is cached per layer and reused across forwards — a plain memcpy
  // instead of the transform + fake-quant passes.
  const bool use_u_cache = !training;
  const std::uint64_t ckey =
      use_u_cache ? u_cache_key(w, g_mat.value(), u_mask, stages) : 0;
  Tensor u;
  if (use_u_cache && stages.u_cache.valid && stages.u_cache.key == ckey) {
    u = stages.u_cache.u;
    saved->mask_u = stages.u_cache.mask_u;
  } else {
    u = Tensor(Shape{groups, tt, kg, cg});
    backend::count_weight_transform();
    float* ud = u.raw();
#pragma omp parallel for collapse(2) schedule(static)
    for (std::int64_t grp = 0; grp < groups; ++grp) {
      for (std::int64_t k = 0; k < kg; ++k) {
        const float* filters = w.raw() + (grp * kg + k) * cg * r * r;
        float* u_gk = ud + (grp * tt * kg + k) * cg;  // + ab * kg * cg + c
        std::int64_t c = 0;
        // Lane blocks of kLanes consecutive input channels.
        float lanes[kSmallMatCap * kLanes], tmp[kSmallMatCap * kLanes];
        float gg[kSmallMatCap * kLanes];
        for (; c + kLanes <= cg; c += kLanes) {
          for (std::int64_t l = 0; l < kLanes; ++l) {
            for (std::int64_t e = 0; e < r * r; ++e) {
              lanes[e * kLanes + l] = filters[(c + l) * r * r + e];
            }
          }
          smm_sandwich_lanes(gm, ti_, ri_, lanes, tmp, gg);  // [t, t] per lane
          for (std::int64_t ab = 0; ab < tt; ++ab) {
            std::memcpy(u_gk + ab * kg * cg + c, gg + ab * kLanes, sizeof(float) * kLanes);
          }
        }
        for (; c < cg; ++c) {
          smm_sandwich(gm, ti_, ri_, filters + c * r * r, tmp, gg);  // [t, t]
          for (std::int64_t ab = 0; ab < tt; ++ab) u_gk[ab * kg * cg + c] = gg[ab];
        }
      }
    }
    if (stages.per_tap()) {
      fake_quant_stage_taps(u, stages.u_taps, tt, stages.tap_group_size, stages.u_spec(),
                            training, &saved->mask_u);
    } else {
      fake_quant_stage(u, stages.u, stages.u_spec(), training, &saved->mask_u);
    }
    if (u_mask != nullptr && !u_mask->empty()) {
      // Winograd-domain pruning: zero masked U entries and fold the mask into
      // the STE mask so backward drops their gradients too (the pruned
      // positions stay pruned through fine-tuning).
      if (u_mask->shape() != u.shape()) {
        throw std::invalid_argument("winograd_aware_conv2d: u_mask shape " +
                                    to_string(u_mask->shape()) + " does not match U " +
                                    to_string(u.shape()));
      }
      auto ud = u.data();
      const auto md = u_mask->data();
      if (saved->mask_u.empty()) saved->mask_u.assign(ud.size(), 1);
      for (std::size_t i = 0; i < ud.size(); ++i) {
        if (md[i] == 0.F) {
          ud[i] = 0.F;
          saved->mask_u[i] = 0;
        }
      }
    }
    if (use_u_cache) {
      stages.u_cache.u = u;
      stages.u_cache.mask_u = saved->mask_u;
      stages.u_cache.key = ckey;
      stages.u_cache.valid = true;
    } else {
      // Training step: weights are moving, drop the stale entry.
      stages.u_cache.invalidate();
    }
  }

  // ---- 2) input transform V = Qx(Bᵀ d B) ----------------------------------
  Tensor patches(Shape{groups, cg, np, t, t});
  Tensor v(Shape{groups, tt, cg, np});
  {
    float* vd = v.raw();
    float* pd = patches.raw();
#pragma omp parallel for collapse(2) schedule(static)
    for (std::int64_t grp = 0; grp < groups; ++grp) {
      for (std::int64_t c = 0; c < cg; ++c) {
        const float* xc = x.raw() + (grp * cg + c) * in_plane;  // + n * C * H * W
        float* pc = pd + (grp * cg + c) * np * tt;               // + tile * t * t
        float* v_gc = vd + (grp * tt * cg + c) * np;             // + ab * cg * np + tile
        // Zero-padded input tile `tile` into pc[tile].
        const auto load_patch = [&](std::int64_t tile) {
          const std::int64_t n = tile / (th * tw), ti = (tile / tw) % th, tj = tile % tw;
          const std::int64_t i0 = ti * m - geom.pad, j0 = tj * m - geom.pad;
          const float* src = xc + n * geom.in_channels * in_plane;
          float* patch = pc + tile * tt;
          for (std::int64_t a = 0; a < t; ++a) {
            const std::int64_t ii = i0 + a;
            for (std::int64_t b = 0; b < t; ++b) {
              const std::int64_t jj = j0 + b;
              patch[a * t + b] = (ii >= 0 && ii < geom.height && jj >= 0 && jj < geom.width)
                                     ? src[ii * geom.width + jj]
                                     : 0.F;
            }
          }
        };
        std::int64_t tile0 = 0;
        // Lane blocks of kLanes consecutive tiles.
        float lanes[kSmallMatCap * kLanes], tmp[kSmallMatCap * kLanes];
        float bv[kSmallMatCap * kLanes];
        for (; tile0 + kLanes <= np; tile0 += kLanes) {
          for (std::int64_t l = 0; l < kLanes; ++l) {
            load_patch(tile0 + l);
            const float* patch = pc + (tile0 + l) * tt;
            for (std::int64_t e = 0; e < tt; ++e) lanes[e * kLanes + l] = patch[e];
          }
          smm_sandwich_lanes(bt, ti_, ti_, lanes, tmp, bv);  // [t, t] per lane
          for (std::int64_t ab = 0; ab < tt; ++ab) {
            std::memcpy(v_gc + ab * cg * np + tile0, bv + ab * kLanes, sizeof(float) * kLanes);
          }
        }
        for (std::int64_t tile = tile0; tile < np; ++tile) {
          load_patch(tile);
          smm_sandwich(bt, ti_, ti_, pc + tile * tt, tmp, bv);  // [t, t]
          for (std::int64_t ab = 0; ab < tt; ++ab) v_gc[ab * cg * np + tile] = bv[ab];
        }
      }
    }
  }
  if (stages.per_tap()) {
    fake_quant_stage_taps(v, stages.v_taps, tt, stages.tap_group_size, stages.v_spec(), training,
                          &saved->mask_v);
  } else {
    fake_quant_stage(v, stages.v, stages.v_spec(), training, &saved->mask_v);
  }

  // ---- 3) Hadamard + channel sum: t² GEMMs --------------------------------
  Tensor mm(Shape{groups, tt, kg, np});
  gemm_batched_f32(false, false, groups * tt, kg, np, cg, u.raw(), kg * cg, v.raw(), cg * np,
                   mm.raw(), kg * np);
  if (stages.per_tap()) {
    fake_quant_stage_taps(mm, stages.m_taps, tt, stages.tap_group_size, stages.m_spec(), training,
                          &saved->mask_m);
  } else {
    fake_quant_stage(mm, stages.m, stages.m_spec(), training, &saved->mask_m);
  }

  // ---- 4) output transform Y = Qx(Aᵀ M A), scatter -----------------------
  Tensor out(Shape{geom.batch, geom.out_channels, oh, ow});
  {
    const float* md = mm.raw();
    float* od = out.raw();
#pragma omp parallel for collapse(2) schedule(static)
    for (std::int64_t grp = 0; grp < groups; ++grp) {
      for (std::int64_t k = 0; k < kg; ++k) {
        const float* m_gk = md + (grp * tt * kg + k) * np;  // + ab * kg * np + tile
        float* ok = od + (grp * kg + k) * out_plane;         // + n * K * oh * ow
        // Write lane `l` of the [m, m] tile block `y` (stride `ls`) to tile
        // `tile`, clipping at the bottom and right edges.
        const auto store_tile = [&](std::int64_t tile, const float* y, std::int64_t ls) {
          const std::int64_t n = tile / (th * tw), ti = (tile / tw) % th, tj = tile % tw;
          float* dst = ok + n * geom.out_channels * out_plane;
          for (std::int64_t a = 0; a < m && ti * m + a < oh; ++a) {
            for (std::int64_t b = 0; b < m && tj * m + b < ow; ++b) {
              dst[(ti * m + a) * ow + tj * m + b] = y[(a * m + b) * ls];
            }
          }
        };
        std::int64_t tile0 = 0;
        float lanes[kSmallMatCap * kLanes], tmp[kSmallMatCap * kLanes];
        float y[kSmallMatCap * kLanes];
        for (; tile0 + kLanes <= np; tile0 += kLanes) {
          for (std::int64_t ab = 0; ab < tt; ++ab) {
            std::memcpy(lanes + ab * kLanes, m_gk + ab * kg * np + tile0, sizeof(float) * kLanes);
          }
          smm_sandwich_lanes(at, mi_, ti_, lanes, tmp, y);  // [m, m] per lane
          for (std::int64_t l = 0; l < kLanes; ++l) store_tile(tile0 + l, y + l, kLanes);
        }
        for (std::int64_t tile = tile0; tile < np; ++tile) {
          for (std::int64_t ab = 0; ab < tt; ++ab) lanes[ab] = m_gk[ab * kg * np + tile];
          smm_sandwich(at, mi_, ti_, lanes, tmp, y);  // [m, m]
          store_tile(tile, y, 1);
        }
      }
    }
  }
  if (bias.defined()) {
    const float* bd = bias.value().raw();
    float* od = out.raw();
#pragma omp parallel for collapse(2) schedule(static) if (out.numel() >= kParallelSweepMin)
    for (std::int64_t n = 0; n < geom.batch; ++n) {
      for (std::int64_t k = 0; k < geom.out_channels; ++k) {
        float* plane = od + (n * geom.out_channels + k) * out_plane;
        const float bv = bd[k];
        for (std::int64_t i = 0; i < out_plane; ++i) plane[i] += bv;
      }
    }
  }
  fake_quant_stage(out, stages.y, stages.y_spec(), training, &saved->mask_y);

  saved->u_q = std::move(u);
  saved->v_q = std::move(v);
  saved->m_q = std::move(mm);
  saved->patches = std::move(patches);

  // ---- backward ------------------------------------------------------------
  auto xn = input.node();
  auto wn = weight.node();
  auto bn = bias.defined() ? bias.node() : nullptr;
  auto gn = g_mat.node();
  auto btn = bt_mat.node();
  auto atn = at_mat.node();

  std::vector<ag::Variable> parents{input, weight, g_mat, bt_mat, at_mat};
  if (bias.defined()) parents.push_back(bias);

  auto backward = [=](ag::Node& node) {
    const float* gm_v = gn->value.raw();
    const float* bt_v = btn->value.raw();
    const float* at_v = atn->value.raw();
    const Tensor& w_v = wn->value;

    // dY with the output-stage STE mask applied.
    Tensor dy_full = node.grad;
    quant::apply_ste_mask(dy_full, saved->mask_y);
    const float* dyd = dy_full.raw();

    if (bn && bn->requires_grad) {
      // Per channel, the serial (n, i, j) sum.
      Tensor db(Shape{geom.out_channels});
      float* dbd = db.raw();
#pragma omp parallel for schedule(static) if (dy_full.numel() >= kParallelSweepMin)
      for (std::int64_t k = 0; k < geom.out_channels; ++k) {
        float acc = 0.F;
        for (std::int64_t n = 0; n < geom.batch; ++n) {
          const float* plane = dyd + (n * geom.out_channels + k) * out_plane;
          for (std::int64_t i = 0; i < out_plane; ++i) acc += plane[i];
        }
        dbd[k] = acc;
      }
      bn->accum_grad(db);
    }

    const bool need_dx = xn->requires_grad;
    const bool need_dw = wn->requires_grad;
    const bool need_dg = gn->requires_grad;
    const bool need_dbt = btn->requires_grad;
    const bool need_dat = atn->requires_grad;
    if (!(need_dx || need_dw || need_dg || need_dbt || need_dat)) return;

    // The per-tile products run with compile-time sizes for the two tiles
    // the models use (F4 and F2 with 3x3 filters), so the small-matrix loops
    // unroll; any other F(m, r) takes the same code with runtime sizes.
    const auto run = [&](auto t_c, auto m_c, auto r_c) {
      const int ti_ = t_c, mi_ = m_c, ri_ = r_c;
      // The transform gradients dAᵀ, dG and dBᵀ sum over every (group, filter)
      // or (group, channel) of the layer. Each parallel iteration leaves its
      // partial in its own slot; the slots are then added serially in index
      // order, so the sums are the same at any team size.

      // ---- dM = Aᵀ dY A (per tile), plus dAᵀ accumulation -------------------
      Tensor dm(Shape{groups, tt, kg, np});
      Tensor dat_acc(Shape{m, t});
      std::vector<float> dat_part(need_dat ? static_cast<std::size_t>(groups * kg * m * t) : 0);
      {
        float* dmd = dm.raw();
        const float* mqd = saved->m_q.raw();
#pragma omp parallel for collapse(2) schedule(static)
        for (std::int64_t grp = 0; grp < groups; ++grp) {
          for (std::int64_t k = 0; k < kg; ++k) {
            float dytile[kSmallMatCap], mtile[kSmallMatCap];
            float tmp[kSmallMatCap], res[kSmallMatCap];
            float dat_local[kSmallMatCap] = {};
            const float* dy_k = dyd + (grp * kg + k) * out_plane;  // + n * K * oh * ow
            const std::int64_t gk = (grp * tt * kg + k) * np;      // + ab * kg * np + tile
            for (std::int64_t n = 0; n < geom.batch; ++n) {
              const float* dy_plane = dy_k + n * geom.out_channels * out_plane;
              for (std::int64_t ti = 0; ti < th; ++ti) {
                for (std::int64_t tj = 0; tj < tw; ++tj) {
                  const std::int64_t tile = (n * th + ti) * tw + tj;
                  for (std::int64_t a = 0; a < m; ++a) {
                    for (std::int64_t b = 0; b < m; ++b) {
                      dytile[a * m + b] = (ti * m + a < oh && tj * m + b < ow)
                                              ? dy_plane[(ti * m + a) * ow + tj * m + b]
                                              : 0.F;
                    }
                  }
                  // dM = Atᵀ dY At.
                  smm_sandwich_t(at_v, mi_, ti_, dytile, tmp, res);  // [t, t]
                  for (std::int64_t ab = 0; ab < tt; ++ab) dmd[gk + ab * kg * np + tile] = res[ab];
                  if (need_dat) {
                    for (std::int64_t ab = 0; ab < tt; ++ab) {
                      mtile[ab] = mqd[gk + ab * kg * np + tile];
                    }
                    // dAt += dY·At·Mᵀ + dYᵀ·At·M.
                    smm_nn(dytile, mi_, mi_, at_v, ti_, tmp);      // [m, t]
                    smm_nt(tmp, mi_, ti_, mtile, ti_, res);        // [m, t]
                    smm_add(dat_local, res, mi_ * ti_);
                    smm_tn(dytile, mi_, mi_, at_v, ti_, tmp);      // [m, t]
                    smm_nn(tmp, mi_, ti_, mtile, ti_, res);        // [m, t]
                    smm_add(dat_local, res, mi_ * ti_);
                  }
                }
              }
            }
            if (need_dat) {
              std::memcpy(dat_part.data() + (grp * kg + k) * m * t, dat_local,
                          sizeof(float) * static_cast<std::size_t>(m * t));
            }
          }
        }
      }
      for (std::int64_t i = 0; need_dat && i < groups * kg; ++i) {
        smm_add(dat_acc.raw(), dat_part.data() + i * m * t, mi_ * ti_);
      }
      quant::apply_ste_mask(dm, saved->mask_m);

      // ---- dU / dV through the GEMM stage ------------------------------------
      Tensor du(Shape{groups, tt, kg, cg});
      Tensor dv(Shape{groups, tt, cg, np});
      // dU[xy] = dM[xy] (Kg x NP) x V[xy]ᵀ (NP x Cg)
      gemm_batched_f32(false, true, groups * tt, kg, cg, np, dm.raw(), kg * np, saved->v_q.raw(),
                       cg * np, du.raw(), kg * cg);
      // dV[xy] = U[xy]ᵀ (Cg x Kg) x dM[xy] (Kg x NP)
      gemm_batched_f32(true, false, groups * tt, cg, np, kg, saved->u_q.raw(), kg * cg, dm.raw(),
                       kg * np, dv.raw(), cg * np);
      quant::apply_ste_mask(du, saved->mask_u);
      quant::apply_ste_mask(dv, saved->mask_v);

      // ---- dw and dG from U = G g Gᵀ ------------------------------------------
      if (need_dw || need_dg) {
        Tensor dw = Tensor::zeros(w_v.shape());
        Tensor dg_acc(Shape{t, r});
        std::vector<float> dg_part(need_dg ? static_cast<std::size_t>(groups * kg * t * r) : 0);
        const float* dud = du.raw();
        float* dwd = dw.raw();
#pragma omp parallel for collapse(2) schedule(static)
        for (std::int64_t grp = 0; grp < groups; ++grp) {
          for (std::int64_t k = 0; k < kg; ++k) {
            float dut[kSmallMatCap], tmp[kSmallMatCap], res[kSmallMatCap];
            float dg_local[kSmallMatCap] = {};
            const float* du_gk = dud + (grp * tt * kg + k) * cg;  // + ab * kg * cg + c
            for (std::int64_t c = 0; c < cg; ++c) {
              for (std::int64_t ab = 0; ab < tt; ++ab) dut[ab] = du_gk[ab * kg * cg + c];
              if (need_dw) {
                // dg = Gᵀ dU G.
                smm_sandwich_t(gm_v, ti_, ri_, dut, tmp, res);  // [r, r]
                float* dst = dwd + ((grp * kg + k) * cg + c) * r * r;
                smm_add(dst, res, ri_ * ri_);
              }
              if (need_dg) {
                const float* filt = w_v.raw() + ((grp * kg + k) * cg + c) * r * r;
                // dG += dU·G·gᵀ + dUᵀ·G·g.
                smm_nn(dut, ti_, ti_, gm_v, ri_, tmp);    // [t, r]
                smm_nt(tmp, ti_, ri_, filt, ri_, res);    // [t, r]
                smm_add(dg_local, res, ti_ * ri_);
                smm_tn(dut, ti_, ti_, gm_v, ri_, tmp);    // [t, r]
                smm_nn(tmp, ti_, ri_, filt, ri_, res);    // [t, r]
                smm_add(dg_local, res, ti_ * ri_);
              }
            }
            if (need_dg) {
              std::memcpy(dg_part.data() + (grp * kg + k) * t * r, dg_local,
                          sizeof(float) * static_cast<std::size_t>(t * r));
            }
          }
        }
        for (std::int64_t i = 0; need_dg && i < groups * kg; ++i) {
          smm_add(dg_acc.raw(), dg_part.data() + i * t * r, ti_ * ri_);
        }
        if (need_dw) wn->accum_grad(dw);
        if (need_dg) gn->accum_grad(dg_acc);
      }

      // ---- dx and dBᵀ from V = Bᵀ d B -----------------------------------------
      if (need_dx || need_dbt) {
        Tensor dx = Tensor::zeros(x.shape());
        Tensor dbt_acc(Shape{t, t});
        std::vector<float> dbt_part(need_dbt ? static_cast<std::size_t>(groups * cg * tt) : 0);
        const float* dvd = dv.raw();
        const float* pd = saved->patches.raw();
        float* dxd = dx.raw();
#pragma omp parallel for collapse(2) schedule(static)
        for (std::int64_t grp = 0; grp < groups; ++grp) {
          for (std::int64_t c = 0; c < cg; ++c) {
            float dvt[kSmallMatCap], tmp[kSmallMatCap], res[kSmallMatCap];
            float dbt_local[kSmallMatCap] = {};
            const float* dv_gc = dvd + (grp * tt * cg + c) * np;  // + ab * cg * np + tile
            const float* pc = pd + (grp * cg + c) * np * tt;      // + tile * t * t
            float* dx_c = dxd + (grp * cg + c) * in_plane;        // + n * C * H * W
            for (std::int64_t n = 0; n < geom.batch; ++n) {
              float* dx_plane = dx_c + n * geom.in_channels * in_plane;
              for (std::int64_t ti = 0; ti < th; ++ti) {
                for (std::int64_t tj = 0; tj < tw; ++tj) {
                  const std::int64_t tile = (n * th + ti) * tw + tj;
                  for (std::int64_t ab = 0; ab < tt; ++ab) dvt[ab] = dv_gc[ab * cg * np + tile];
                  if (need_dx) {
                    // dd = Bt'ᵀ... : with V = Bᵀ d B, dd = B dV Bᵀ = (Bᵀ)ᵀ dV (Bᵀ).
                    smm_sandwich_t(bt_v, ti_, ti_, dvt, tmp, res);  // [t, t]
                    const std::int64_t i0 = ti * m - geom.pad, j0 = tj * m - geom.pad;
                    for (std::int64_t a = 0; a < t; ++a) {
                      const std::int64_t ii = i0 + a;
                      if (ii < 0 || ii >= geom.height) continue;
                      for (std::int64_t b = 0; b < t; ++b) {
                        const std::int64_t jj = j0 + b;
                        if (jj < 0 || jj >= geom.width) continue;
                        dx_plane[ii * geom.width + jj] += res[a * t + b];
                      }
                    }
                  }
                  if (need_dbt) {
                    const float* patch = pc + tile * tt;
                    // dBᵀ += dV·Bᵀ·dᵀ + dVᵀ·Bᵀ·d.
                    smm_nn(dvt, ti_, ti_, bt_v, ti_, tmp);
                    smm_nt(tmp, ti_, ti_, patch, ti_, res);
                    smm_add(dbt_local, res, ti_ * ti_);
                    smm_tn(dvt, ti_, ti_, bt_v, ti_, tmp);
                    smm_nn(tmp, ti_, ti_, patch, ti_, res);
                    smm_add(dbt_local, res, ti_ * ti_);
                  }
                }
              }
            }
            if (need_dbt) {
              std::memcpy(dbt_part.data() + (grp * cg + c) * tt, dbt_local,
                          sizeof(float) * static_cast<std::size_t>(tt));
            }
          }
        }
        for (std::int64_t i = 0; need_dbt && i < groups * cg; ++i) {
          smm_add(dbt_acc.raw(), dbt_part.data() + i * tt, ti_ * ti_);
        }
        if (need_dx) xn->accum_grad(dx);
        if (need_dbt) btn->accum_grad(dbt_acc);
      }

      if (need_dat) atn->accum_grad(dat_acc);
    };
    if (t == 6 && m == 4 && r == 3) {
      run(std::integral_constant<int, 6>{}, std::integral_constant<int, 4>{},
          std::integral_constant<int, 3>{});
    } else if (t == 4 && m == 2 && r == 3) {
      run(std::integral_constant<int, 4>{}, std::integral_constant<int, 2>{},
          std::integral_constant<int, 3>{});
    } else {
      run(ti_, mi_, ri_);
    }
  };

  return ag::apply_op("winograd_aware_conv2d[F" + std::to_string(m) + "]", std::move(parents),
                      std::move(out), std::move(backward));
}

}  // namespace wa::core
