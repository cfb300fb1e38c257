#include "quant/qparams.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace wa::quant {

QRange range_of(const QuantSpec& spec) {
  const auto qmax = static_cast<std::int32_t>(spec.qmax());
  return spec.is_affine() ? QRange{-qmax - 1, qmax} : QRange{-qmax, qmax};
}

namespace {

/// Geometry for slicing a tensor along one axis with plain index arithmetic:
/// channel(i) = (i / inner) % channels for a dense row-major layout.
struct AxisGeom {
  std::int64_t channels = 1;
  std::int64_t inner = 1;
};

AxisGeom axis_geom(const Tensor& x, std::int64_t channel_dim) {
  if (channel_dim < 0) return {1, 1};
  if (channel_dim >= x.dim()) {
    throw std::invalid_argument("choose_qparams: channel_dim " + std::to_string(channel_dim) +
                                " out of range for a " + std::to_string(x.dim()) + "-d tensor");
  }
  AxisGeom g;
  g.channels = x.size(channel_dim);
  for (std::int64_t d = channel_dim + 1; d < x.dim(); ++d) g.inner *= x.size(d);
  return g;
}

/// (scale, zero_point) from a [min, max] interval. The interval is first
/// widened to include 0 so that real zero is exactly representable.
void params_from_range(float lo, float hi, const QuantSpec& spec, const QRange& range,
                       float& scale, std::int32_t& zero_point) {
  lo = std::min(lo, 0.F);
  hi = std::max(hi, 0.F);
  if (spec.is_affine()) {
    const float span = hi - lo;
    scale = span > 1e-12F ? span / static_cast<float>(range.qmax - range.qmin) : 1e-12F;
    // z maps real 0.0 onto an integer level: q = round(x/s) + z.
    const float z = -lo / scale + static_cast<float>(range.qmin);
    zero_point = static_cast<std::int32_t>(std::lround(
        std::clamp(z, static_cast<float>(range.qmin), static_cast<float>(range.qmax))));
  } else {
    const float abs_max = std::max(std::fabs(lo), std::fabs(hi));
    scale = scale_for(abs_max, spec);
    zero_point = 0;
  }
}

}  // namespace

QParams choose_qparams(const Tensor& x, const QuantSpec& spec, std::int64_t channel_dim) {
  QParams p;
  p.channel_dim = channel_dim;
  if (spec.is_float()) {
    p.scales.assign(1, 1.F);
    p.zero_points.assign(1, 0);
    p.channel_dim = -1;
    return p;
  }
  const AxisGeom g = axis_geom(x, channel_dim);
  const QRange range = range_of(spec);
  std::vector<float> lo(static_cast<std::size_t>(g.channels),
                        std::numeric_limits<float>::infinity());
  std::vector<float> hi(static_cast<std::size_t>(g.channels),
                        -std::numeric_limits<float>::infinity());
  const auto d = x.data();
  for (std::size_t i = 0; i < d.size(); ++i) {
    const auto c = static_cast<std::size_t>(
        (static_cast<std::int64_t>(i) / g.inner) % g.channels);
    lo[c] = std::min(lo[c], d[i]);
    hi[c] = std::max(hi[c], d[i]);
  }
  p.scales.resize(static_cast<std::size_t>(g.channels));
  p.zero_points.resize(static_cast<std::size_t>(g.channels));
  for (std::size_t c = 0; c < p.scales.size(); ++c) {
    // An empty tensor leaves the infinities in place; collapse to [0, 0].
    const float l = std::isfinite(lo[c]) ? lo[c] : 0.F;
    const float h = std::isfinite(hi[c]) ? hi[c] : 0.F;
    params_from_range(l, h, spec, range, p.scales[c], p.zero_points[c]);
  }
  return p;
}

std::int64_t fake_quant_qparams_(Tensor& x, const QParams& params, const QuantSpec& spec,
                                 std::vector<std::uint8_t>* clip_mask) {
  auto d = x.data();
  if (spec.is_float()) {
    if (clip_mask) clip_mask->assign(d.size(), 1);
    return 0;
  }
  if (params.scales.empty() || params.scales.size() != params.zero_points.size()) {
    throw std::invalid_argument("fake_quant_qparams_: malformed QParams");
  }
  const AxisGeom g = axis_geom(x, params.channel_dim);
  if (g.channels != params.num_channels()) {
    throw std::invalid_argument("fake_quant_qparams_: QParams carry " +
                                std::to_string(params.num_channels()) +
                                " channels but axis has " + std::to_string(g.channels));
  }
  const QRange range = range_of(spec);
  const auto qmin = static_cast<float>(range.qmin);
  const auto qmax = static_cast<float>(range.qmax);
  if (clip_mask) clip_mask->assign(d.size(), 1);
  std::int64_t clipped = 0;
  for (std::size_t i = 0; i < d.size(); ++i) {
    const auto c = static_cast<std::size_t>(
        (static_cast<std::int64_t>(i) / g.inner) % g.channels);
    const float s = params.scales[c];
    const auto z = static_cast<float>(params.zero_points[c]);
    float q = std::nearbyint(d[i] / s) + z;
    if (q > qmax || q < qmin) {
      q = std::clamp(q, qmin, qmax);
      ++clipped;
      if (clip_mask) (*clip_mask)[i] = 0;
    }
    d[i] = (q - z) * s;
  }
  return clipped;
}

Tensor fake_quant_qparams(const Tensor& x, const QParams& params, const QuantSpec& spec) {
  Tensor out = x;
  fake_quant_qparams_(out, params, spec);
  return out;
}

std::int64_t fake_quant_taps_(Tensor& x, const ScaleVector& sv, std::int64_t tap_dim,
                              const QuantSpec& spec, std::vector<std::uint8_t>* clip_mask) {
  auto d = x.data();
  if (spec.is_float()) {
    if (clip_mask) clip_mask->assign(d.size(), 1);
    return 0;
  }
  const AxisGeom g = axis_geom(x, tap_dim);
  if (g.channels != sv.taps()) {
    throw std::invalid_argument("fake_quant_taps_: ScaleVector carries " +
                                std::to_string(sv.taps()) + " taps but axis has " +
                                std::to_string(g.channels));
  }
  // Per-tap reciprocals hoisted out of the element loop: the element
  // expression must stay exactly fake_quant_'s (x * (1/s), nearbyint, clip,
  // q * s) so a splat vector reproduces the scalar path bit-for-bit and the
  // training grid matches the deployed executor's reciprocal-multiply
  // quantization. The sweep walks contiguous [outer, tap, inner] slabs, so
  // the tap is loop-invariant per slab, and splits the slabs across the team.
  std::vector<float> inv(sv.scales.size());
  for (std::size_t tap = 0; tap < inv.size(); ++tap) inv[tap] = 1.F / sv.scales[tap];
  const float qmax = static_cast<float>(spec.qmax());
  const std::int64_t n = x.numel();
  const std::int64_t slabs = g.inner > 0 ? n / g.inner : 0;
  float* px = x.raw();
  std::uint8_t* mask = nullptr;
  if (clip_mask) {
    clip_mask->assign(d.size(), 1);
    mask = clip_mask->data();
  }
  std::int64_t clipped = 0;
#pragma omp parallel for schedule(static) reduction(+ : clipped) if (n >= kParallelSweepMin)
  for (std::int64_t s = 0; s < slabs; ++s) {
    const auto tap = static_cast<std::size_t>(s % g.channels);
    const float is = inv[tap], sc = sv.scales[tap];
    float* p = px + s * g.inner;
    std::uint8_t* pm = mask != nullptr ? mask + s * g.inner : nullptr;
    for (std::int64_t i = 0; i < g.inner; ++i) {
      float q = std::nearbyint(p[i] * is);
      if (q > qmax) {
        q = qmax;
        ++clipped;
        if (pm) pm[i] = 0;
      } else if (q < -qmax) {
        q = -qmax;
        ++clipped;
        if (pm) pm[i] = 0;
      }
      p[i] = q * sc;
    }
  }
  return clipped;
}

std::vector<std::int32_t> quantize_levels_qparams(const Tensor& x, const QParams& params,
                                                  const QuantSpec& spec) {
  const AxisGeom g = axis_geom(x, params.channel_dim);
  if (g.channels != params.num_channels()) {
    throw std::invalid_argument("quantize_levels_qparams: channel count mismatch");
  }
  const QRange range = range_of(spec);
  const auto d = x.data();
  std::vector<std::int32_t> q(d.size());
  for (std::size_t i = 0; i < d.size(); ++i) {
    const auto c = static_cast<std::size_t>(
        (static_cast<std::int64_t>(i) / g.inner) % g.channels);
    const float v = std::nearbyint(d[i] / params.scales[c]) +
                    static_cast<float>(params.zero_points[c]);
    q[i] = static_cast<std::int32_t>(
        std::clamp(v, static_cast<float>(range.qmin), static_cast<float>(range.qmax)));
  }
  return q;
}

Tensor dequantize_levels_qparams(const std::vector<std::int32_t>& q, const Shape& shape,
                                 const QParams& params) {
  Tensor t(shape);
  if (static_cast<std::int64_t>(q.size()) != t.numel()) {
    throw std::invalid_argument("dequantize_levels_qparams: count mismatch");
  }
  const AxisGeom g = axis_geom(t, params.channel_dim);
  if (g.channels != params.num_channels()) {
    throw std::invalid_argument("dequantize_levels_qparams: channel count mismatch");
  }
  auto d = t.data();
  for (std::size_t i = 0; i < q.size(); ++i) {
    const auto c = static_cast<std::size_t>(
        (static_cast<std::int64_t>(i) / g.inner) % g.channels);
    d[i] = static_cast<float>(q[i] - params.zero_points[c]) * params.scales[c];
  }
  return t;
}

float quantization_rmse_qparams(const Tensor& x, const QuantSpec& spec,
                                std::int64_t channel_dim) {
  if (spec.is_float() || x.empty()) return 0.F;
  const QParams p = choose_qparams(x, spec, channel_dim);
  const Tensor q = fake_quant_qparams(x, p, spec);
  double acc = 0;
  const auto a = x.data();
  const auto b = q.data();
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double diff = static_cast<double>(a[i]) - b[i];
    acc += diff * diff;
  }
  return static_cast<float>(std::sqrt(acc / static_cast<double>(a.size())));
}

}  // namespace wa::quant
