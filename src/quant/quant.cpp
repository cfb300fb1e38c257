#include "quant/quant.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace wa::quant {

float scale_for(float abs_max, const QuantSpec& spec) {
  if (spec.is_float()) return 1.F;
  const float qmax = static_cast<float>(spec.qmax());
  // A zero range would make the scale zero and divisions undefined;
  // fall back to a tiny epsilon so fake-quant of an all-zero tensor is a no-op.
  const float safe = abs_max > 1e-12F ? abs_max : 1e-12F;
  return safe / qmax;
}

std::int64_t fake_quant_(Tensor& x, float scale, const QuantSpec& spec,
                         std::vector<std::uint8_t>* clip_mask) {
  if (spec.is_float()) {
    if (clip_mask) clip_mask->assign(static_cast<std::size_t>(x.numel()), 1);
    return 0;
  }
  const float qmax = static_cast<float>(spec.qmax());
  const float inv = 1.F / scale;
  const std::int64_t n = x.numel();
  float* d = x.raw();
  std::uint8_t* mask = nullptr;
  if (clip_mask) {
    clip_mask->assign(static_cast<std::size_t>(n), 1);
    mask = clip_mask->data();
  }
  std::int64_t clipped = 0;
#pragma omp parallel for schedule(static) reduction(+ : clipped) if (n >= kParallelSweepMin)
  for (std::int64_t i = 0; i < n; ++i) {
    float q = std::nearbyint(d[i] * inv);
    if (q > qmax) {
      q = qmax;
      ++clipped;
      if (mask) mask[i] = 0;
    } else if (q < -qmax) {
      q = -qmax;
      ++clipped;
      if (mask) mask[i] = 0;
    }
    d[i] = q * scale;
  }
  return clipped;
}

Tensor fake_quant(const Tensor& x, float scale, const QuantSpec& spec) {
  Tensor out = x;
  fake_quant_(out, scale, spec);
  return out;
}

void apply_ste_mask(Tensor& t, const std::vector<std::uint8_t>& mask) {
  if (mask.empty()) return;
  const std::int64_t n = t.numel();
  float* d = t.raw();
  const std::uint8_t* m = mask.data();
#pragma omp parallel for schedule(static) if (n >= kParallelSweepMin)
  for (std::int64_t i = 0; i < n; ++i) {
    if (!m[i]) d[i] = 0.F;
  }
}

void slab_ranges(const float* d, std::int64_t n, std::int64_t slab, float* lo, float* hi) {
  const std::int64_t slabs = (n + slab - 1) / slab;
#pragma omp parallel for schedule(static) if (n >= kParallelSweepMin)
  for (std::int64_t s = 0; s < slabs; ++s) {
    const float* p = d + s * slab;
    const std::int64_t len = std::min(slab, n - s * slab);
    float l = std::numeric_limits<float>::infinity();
    float h = -std::numeric_limits<float>::infinity();
    for (std::int64_t i = 0; i < len; ++i) {
      l = std::min(l, p[i]);
      h = std::max(h, p[i]);
    }
    lo[s] = l;
    hi[s] = h;
  }
}

std::pair<float, float> value_range(const Tensor& x) {
  if (x.empty()) return {0.F, 0.F};
  // At most kSlabs slabs of at least 4,096 elements, so the partials live on
  // the stack. std::min_element folds from the first element; a NaN there
  // sticks, any later NaN is skipped — exactly what folding the slab ranges
  // from d[0] with the same strict comparisons gives.
  constexpr std::int64_t kSlabs = 64;
  const std::int64_t n = x.numel();
  const std::int64_t slab = std::max<std::int64_t>(4096, (n + kSlabs - 1) / kSlabs);
  const std::int64_t slabs = (n + slab - 1) / slab;
  const float* d = x.raw();
  float lo[kSlabs], hi[kSlabs];
  slab_ranges(d, n, slab, lo, hi);
  float mn = d[0], mx = d[0];
  for (std::int64_t s = 0; s < slabs; ++s) {
    if (lo[s] < mn) mn = lo[s];
    if (mx < hi[s]) mx = hi[s];
  }
  return {mn, mx};
}

std::vector<std::int32_t> quantize_levels(const Tensor& x, float scale, const QuantSpec& spec) {
  const auto qmax = static_cast<float>(spec.qmax());
  const float inv = 1.F / scale;
  std::vector<std::int32_t> q(static_cast<std::size_t>(x.numel()));
  auto d = x.data();
  for (std::size_t i = 0; i < d.size(); ++i) {
    float v = std::nearbyint(d[i] * inv);
    v = std::min(qmax, std::max(-qmax, v));
    q[i] = static_cast<std::int32_t>(v);
  }
  return q;
}

Tensor dequantize_levels(const std::vector<std::int32_t>& q, const Shape& shape, float scale) {
  Tensor t(shape);
  if (static_cast<std::int64_t>(q.size()) != t.numel()) {
    throw std::invalid_argument("dequantize_levels: count mismatch");
  }
  auto d = t.data();
  for (std::size_t i = 0; i < q.size(); ++i) d[i] = static_cast<float>(q[i]) * scale;
  return t;
}

float quantization_rmse(const Tensor& x, const QuantSpec& spec) {
  if (spec.is_float() || x.empty()) return 0.F;
  const float s = scale_for(x.abs_max(), spec);
  Tensor q = fake_quant(x, s, spec);
  double acc = 0;
  auto a = x.data();
  auto b = q.data();
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = static_cast<double>(a[i]) - b[i];
    acc += d * d;
  }
  return static_cast<float>(std::sqrt(acc / static_cast<double>(a.size())));
}

}  // namespace wa::quant
