#include "tensor/tensor.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "tensor/gemm.hpp"

namespace wa {

Tensor Tensor::randn(Shape shape, Rng& rng, float stddev) {
  Tensor t(std::move(shape));
  for (auto& v : t.data_) v = rng.normal(0.F, stddev);
  return t;
}

Tensor Tensor::rand(Shape shape, Rng& rng, float lo, float hi) {
  Tensor t(std::move(shape));
  for (auto& v : t.data_) v = rng.uniform(lo, hi);
  return t;
}

Tensor Tensor::arange(std::int64_t n) {
  Tensor t(Shape{n});
  for (std::int64_t i = 0; i < n; ++i) t.data_[static_cast<std::size_t>(i)] = static_cast<float>(i);
  return t;
}

Tensor Tensor::from_rows(std::initializer_list<std::initializer_list<float>> rows) {
  const auto r = static_cast<std::int64_t>(rows.size());
  const auto c = r > 0 ? static_cast<std::int64_t>(rows.begin()->size()) : 0;
  Tensor t(Shape{r, c});
  std::int64_t i = 0;
  for (const auto& row : rows) {
    if (static_cast<std::int64_t>(row.size()) != c) {
      throw std::invalid_argument("from_rows: ragged rows");
    }
    std::int64_t j = 0;
    for (float v : row) t(i, j++) = v;
    ++i;
  }
  return t;
}

std::int64_t Tensor::size(std::int64_t axis) const {
  if (axis < 0) axis += dim();
  if (axis < 0 || axis >= dim()) {
    throw std::out_of_range("Tensor::size: axis " + std::to_string(axis) + " for shape " +
                            wa::to_string(shape_));
  }
  return shape_[static_cast<std::size_t>(axis)];
}

Tensor Tensor::reshape(Shape new_shape) const {
  if (wa::numel(new_shape) != numel()) {
    throw std::invalid_argument("reshape: cannot view " + wa::to_string(shape_) + " as " +
                                wa::to_string(new_shape));
  }
  Tensor t = *this;
  t.shape_ = std::move(new_shape);
  return t;
}

Tensor Tensor::transposed() const {
  if (dim() != 2) throw std::invalid_argument("transposed: expects 2-D tensor");
  const std::int64_t r = shape_[0], c = shape_[1];
  Tensor t(Shape{c, r});
  for (std::int64_t i = 0; i < r; ++i)
    for (std::int64_t j = 0; j < c; ++j) t(j, i) = (*this)(i, j);
  return t;
}

Tensor Tensor::concat(const std::vector<Tensor>& parts, std::int64_t axis) {
  if (parts.empty()) throw std::invalid_argument("concat: no tensors");
  const auto& first = parts.front();
  Shape out_shape = first.shape();
  if (axis < 0 || axis >= first.dim()) throw std::invalid_argument("concat: bad axis");
  std::int64_t total = 0;
  for (const auto& p : parts) {
    if (p.dim() != first.dim()) throw std::invalid_argument("concat: rank mismatch");
    for (std::int64_t d = 0; d < p.dim(); ++d) {
      if (d != axis && p.shape()[static_cast<std::size_t>(d)] != first.shape()[static_cast<std::size_t>(d)]) {
        throw std::invalid_argument("concat: shape mismatch off-axis");
      }
    }
    total += p.shape()[static_cast<std::size_t>(axis)];
  }
  out_shape[static_cast<std::size_t>(axis)] = total;
  Tensor out(out_shape);

  // Treat the tensor as [outer, axis, inner] and copy contiguous inner runs.
  std::int64_t outer = 1, inner = 1;
  for (std::int64_t d = 0; d < axis; ++d) outer *= first.shape()[static_cast<std::size_t>(d)];
  for (std::int64_t d = axis + 1; d < first.dim(); ++d) inner *= first.shape()[static_cast<std::size_t>(d)];

  std::int64_t axis_off = 0;
  for (const auto& p : parts) {
    const std::int64_t a = p.shape()[static_cast<std::size_t>(axis)];
    for (std::int64_t o = 0; o < outer; ++o) {
      const float* src = p.raw() + o * a * inner;
      float* dst = out.raw() + (o * total + axis_off) * inner;
      std::copy(src, src + a * inner, dst);
    }
    axis_off += a;
  }
  return out;
}

Tensor Tensor::slice0(std::int64_t begin, std::int64_t end) const {
  if (dim() < 1 || begin < 0 || end > shape_[0] || begin > end) {
    throw std::out_of_range("slice0: range [" + std::to_string(begin) + ", " + std::to_string(end) +
                            ") for shape " + wa::to_string(shape_));
  }
  Shape s = shape_;
  s[0] = end - begin;
  const std::int64_t inner = numel() / std::max<std::int64_t>(shape_[0], 1);
  Tensor out(s);
  std::copy(raw() + begin * inner, raw() + end * inner, out.raw());
  return out;
}

Tensor& Tensor::operator+=(const Tensor& o) {
  check_same_shape(shape_, o.shape_, "operator+=");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += o.data_[i];
  return *this;
}

Tensor& Tensor::operator-=(const Tensor& o) {
  check_same_shape(shape_, o.shape_, "operator-=");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= o.data_[i];
  return *this;
}

Tensor& Tensor::operator*=(float s) {
  for (auto& v : data_) v *= s;
  return *this;
}

Tensor Tensor::operator+(const Tensor& o) const {
  Tensor t = *this;
  t += o;
  return t;
}
Tensor Tensor::operator-(const Tensor& o) const {
  Tensor t = *this;
  t -= o;
  return t;
}
Tensor Tensor::operator*(const Tensor& o) const {
  check_same_shape(shape_, o.shape_, "operator*");
  Tensor t = *this;
  for (std::size_t i = 0; i < data_.size(); ++i) t.data_[i] *= o.data_[i];
  return t;
}
Tensor Tensor::operator*(float s) const {
  Tensor t = *this;
  t *= s;
  return t;
}

Tensor& Tensor::apply(const std::function<float(float)>& f) {
  for (auto& v : data_) v = f(v);
  return *this;
}

Tensor Tensor::map(const std::function<float(float)>& f) const {
  Tensor t = *this;
  t.apply(f);
  return t;
}

float Tensor::sum() const {
  double acc = 0;
  for (float v : data_) acc += v;
  return static_cast<float>(acc);
}
float Tensor::mean() const { return empty() ? 0.F : sum() / static_cast<float>(numel()); }
float Tensor::min() const { return data_.empty() ? 0.F : *std::min_element(data_.begin(), data_.end()); }
float Tensor::max() const { return data_.empty() ? 0.F : *std::max_element(data_.begin(), data_.end()); }

float Tensor::abs_max() const {
  float m = 0.F;
  for (float v : data_) m = std::max(m, std::fabs(v));
  return m;
}

std::int64_t Tensor::argmax() const {
  if (data_.empty()) throw std::invalid_argument("argmax: empty tensor");
  return static_cast<std::int64_t>(
      std::distance(data_.begin(), std::max_element(data_.begin(), data_.end())));
}

float Tensor::norm() const {
  double acc = 0;
  for (float v : data_) acc += static_cast<double>(v) * v;
  return static_cast<float>(std::sqrt(acc));
}

float Tensor::max_abs_diff(const Tensor& a, const Tensor& b) {
  check_same_shape(a.shape_, b.shape_, "max_abs_diff");
  float m = 0.F;
  for (std::size_t i = 0; i < a.data_.size(); ++i) {
    m = std::max(m, std::fabs(a.data_[i] - b.data_[i]));
  }
  return m;
}

bool Tensor::allclose(const Tensor& a, const Tensor& b, float tol) {
  return a.shape_ == b.shape_ && max_abs_diff(a, b) <= tol;
}

std::string Tensor::to_string(int max_per_axis) const {
  std::ostringstream os;
  os << "Tensor" << wa::to_string(shape_) << " {";
  const std::int64_t show = std::min<std::int64_t>(numel(), max_per_axis);
  for (std::int64_t i = 0; i < show; ++i) {
    if (i) os << ", ";
    os << data_[static_cast<std::size_t>(i)];
  }
  if (numel() > show) os << ", ...";
  os << "}";
  return os.str();
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  if (a.dim() != 2 || b.dim() != 2 || a.size(1) != b.size(0)) {
    throw std::invalid_argument("matmul: incompatible shapes " + wa::to_string(a.shape()) + " x " +
                                wa::to_string(b.shape()));
  }
  Tensor c(Shape{a.size(0), b.size(1)});
  gemm_f32(false, false, a.size(0), b.size(1), a.size(1), 1.F, a.raw(), b.raw(), 0.F, c.raw());
  return c;
}

Tensor matmul_tn(const Tensor& a, const Tensor& b) {
  if (a.dim() != 2 || b.dim() != 2 || a.size(0) != b.size(0)) {
    throw std::invalid_argument("matmul_tn: incompatible shapes " + wa::to_string(a.shape()) +
                                "^T x " + wa::to_string(b.shape()));
  }
  Tensor c(Shape{a.size(1), b.size(1)});
  gemm_f32(true, false, a.size(1), b.size(1), a.size(0), 1.F, a.raw(), b.raw(), 0.F, c.raw());
  return c;
}

Tensor matmul_nt(const Tensor& a, const Tensor& b) {
  if (a.dim() != 2 || b.dim() != 2 || a.size(1) != b.size(1)) {
    throw std::invalid_argument("matmul_nt: incompatible shapes " + wa::to_string(a.shape()) +
                                " x " + wa::to_string(b.shape()) + "^T");
  }
  Tensor c(Shape{a.size(0), b.size(0)});
  gemm_f32(false, true, a.size(0), b.size(0), a.size(1), 1.F, a.raw(), b.raw(), 0.F, c.raw());
  return c;
}

}  // namespace wa
