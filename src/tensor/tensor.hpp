// Dense row-major FP32 tensor: the storage type used across the library.
#pragma once

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "tensor/rng.hpp"
#include "tensor/shape.hpp"

namespace wa {

/// Element count (1 MiB of floats) from which the elementwise training
/// sweeps (fake-quant, range observers, batch-norm, relu, gradient
/// accumulation) split across the OpenMP team; smaller tensors stay on the
/// calling thread. Each split adds a fork and a join, which cost far more
/// when other processes compete for the cores: with four processes each
/// running a team of 4 on a 4-core host, a QAT step of a width-0.125
/// ResNet-18 took 11.5 s with this at 2^14, 6.2 s at 2^17 and 4.0 s at
/// 2^18, against 4.1 s with every sweep on one thread.
inline constexpr std::int64_t kParallelSweepMin = std::int64_t{1} << 18;

/// Dense row-major single-precision tensor with value semantics.
///
/// Copying a Tensor deep-copies its storage; moves are cheap. All shape and
/// bounds violations throw std::invalid_argument / std::out_of_range so that
/// misuse is caught early (the library is used for research experiments, not
/// hot-path serving). Heavy inner loops (GEMM, convolution kernels) live in
/// gemm.hpp / backend and operate on raw spans obtained from data().
class Tensor {
 public:
  Tensor() = default;

  explicit Tensor(Shape shape, float fill = 0.F)
      : shape_(std::move(shape)), data_(static_cast<std::size_t>(wa::numel(shape_)), fill) {}

  Tensor(Shape shape, std::vector<float> values) : shape_(std::move(shape)), data_(std::move(values)) {
    if (static_cast<std::int64_t>(data_.size()) != wa::numel(shape_)) {
      throw std::invalid_argument("Tensor: value count " + std::to_string(data_.size()) +
                                  " does not match shape " + wa::to_string(shape_));
    }
  }

  // ---- factories ----------------------------------------------------------
  static Tensor zeros(Shape shape) { return Tensor(std::move(shape), 0.F); }
  static Tensor ones(Shape shape) { return Tensor(std::move(shape), 1.F); }
  static Tensor full(Shape shape, float v) { return Tensor(std::move(shape), v); }
  /// Standard-normal entries scaled by stddev.
  static Tensor randn(Shape shape, Rng& rng, float stddev = 1.F);
  /// Uniform entries in [lo, hi).
  static Tensor rand(Shape shape, Rng& rng, float lo = 0.F, float hi = 1.F);
  /// 0, 1, 2, ... n-1 as a 1-D tensor.
  static Tensor arange(std::int64_t n);
  /// 2-D tensor from nested initializer lists (rows must be equal length).
  static Tensor from_rows(std::initializer_list<std::initializer_list<float>> rows);

  // ---- shape accessors ----------------------------------------------------
  const Shape& shape() const { return shape_; }
  std::int64_t dim() const { return static_cast<std::int64_t>(shape_.size()); }
  std::int64_t size(std::int64_t axis) const;
  std::int64_t numel() const { return static_cast<std::int64_t>(data_.size()); }
  bool empty() const { return data_.empty(); }

  // ---- element access -----------------------------------------------------
  std::span<float> data() { return data_; }
  std::span<const float> data() const { return data_; }

  /// Steal the underlying storage, leaving the tensor empty. The serving
  /// frontend recycles request/response slabs through this (the vector's
  /// capacity survives the round trip back into the slab pool).
  std::vector<float> take_data() && {
    shape_.clear();
    return std::move(data_);
  }
  float* raw() { return data_.data(); }
  const float* raw() const { return data_.data(); }

  float& at(std::int64_t i) { return data_.at(static_cast<std::size_t>(i)); }
  float at(std::int64_t i) const { return data_.at(static_cast<std::size_t>(i)); }

  float& operator()(std::int64_t i, std::int64_t j) { return data_[idx2(i, j)]; }
  float operator()(std::int64_t i, std::int64_t j) const { return data_[idx2(i, j)]; }
  float& operator()(std::int64_t i, std::int64_t j, std::int64_t k) { return data_[idx3(i, j, k)]; }
  float operator()(std::int64_t i, std::int64_t j, std::int64_t k) const { return data_[idx3(i, j, k)]; }
  float& operator()(std::int64_t n, std::int64_t c, std::int64_t h, std::int64_t w) {
    return data_[idx4(n, c, h, w)];
  }
  float operator()(std::int64_t n, std::int64_t c, std::int64_t h, std::int64_t w) const {
    return data_[idx4(n, c, h, w)];
  }

  // ---- shape manipulation (all produce fresh tensors; storage is copied) --
  /// Reinterpret with a new shape of identical element count.
  Tensor reshape(Shape new_shape) const;
  /// 2-D transpose.
  Tensor transposed() const;
  /// Concatenate along axis 0 or 1 (2-D) or axis 1 (4-D, channels).
  static Tensor concat(const std::vector<Tensor>& parts, std::int64_t axis);
  /// Slice along axis 0: rows [begin, end).
  Tensor slice0(std::int64_t begin, std::int64_t end) const;

  // ---- elementwise arithmetic ---------------------------------------------
  Tensor& operator+=(const Tensor& o);
  Tensor& operator-=(const Tensor& o);
  Tensor& operator*=(float s);
  Tensor operator+(const Tensor& o) const;
  Tensor operator-(const Tensor& o) const;
  /// Hadamard (elementwise) product.
  Tensor operator*(const Tensor& o) const;
  Tensor operator*(float s) const;
  /// Apply `f` to each element in place; returns *this for chaining.
  Tensor& apply(const std::function<float(float)>& f);
  /// Out-of-place map.
  Tensor map(const std::function<float(float)>& f) const;
  void fill(float v) { std::fill(data_.begin(), data_.end(), v); }

  // ---- reductions ---------------------------------------------------------
  float sum() const;
  float mean() const;
  float min() const;
  float max() const;
  /// Largest absolute value (0 for empty tensors).
  float abs_max() const;
  /// Index of the maximum element (first on ties).
  std::int64_t argmax() const;
  /// Frobenius norm.
  float norm() const;

  /// Max absolute elementwise difference; shapes must match.
  static float max_abs_diff(const Tensor& a, const Tensor& b);
  /// True if all elements differ by at most `tol`.
  static bool allclose(const Tensor& a, const Tensor& b, float tol = 1e-5F);

  std::string to_string(int max_per_axis = 8) const;

 private:
  // Defined here so every operator() call inlines into its loop.
  std::size_t idx2(std::int64_t i, std::int64_t j) const {
    return static_cast<std::size_t>(i * shape_[1] + j);
  }
  std::size_t idx3(std::int64_t i, std::int64_t j, std::int64_t k) const {
    return static_cast<std::size_t>((i * shape_[1] + j) * shape_[2] + k);
  }
  std::size_t idx4(std::int64_t n, std::int64_t c, std::int64_t h, std::int64_t w) const {
    return static_cast<std::size_t>(((n * shape_[1] + c) * shape_[2] + h) * shape_[3] + w);
  }

  Shape shape_;
  std::vector<float> data_;
};

/// C = A x B for 2-D tensors ([M,K] x [K,N] -> [M,N]).
Tensor matmul(const Tensor& a, const Tensor& b);
/// C = A^T x B ([K,M]^T x [K,N] -> [M,N]).
Tensor matmul_tn(const Tensor& a, const Tensor& b);
/// C = A x B^T ([M,K] x [N,K]^T -> [M,N]).
Tensor matmul_nt(const Tensor& a, const Tensor& b);

}  // namespace wa
