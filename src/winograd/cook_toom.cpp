#include "winograd/cook_toom.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

#include "winograd/small_mat.hpp"

namespace wa::wino {

std::vector<double> default_points(int n) {
  if (n < 2) throw std::invalid_argument("default_points: need n >= 2");
  // 0, then symmetric pairs ordered by "goodness" for quantized ranges:
  // small magnitudes first, mixing x and 1/x so products stay near 1
  // (Barabasz et al. 2018 observe this balances the dynamic range of G/B).
  static const std::vector<double> pool = {
      0.0, 1.0,  -1.0, 2.0,  -2.0,  0.5,  -0.5, 4.0,   -0.25,
      -4.0, 0.25, 3.0, -3.0, 1.0/3, -1.0/3, 8.0, -0.125, -8.0};
  const int finite = n - 1;
  if (finite > static_cast<int>(pool.size())) {
    throw std::invalid_argument("default_points: no default set for n = " + std::to_string(n));
  }
  return {pool.begin(), pool.begin() + finite};
}

std::vector<double> poly_mul(const std::vector<double>& a, const std::vector<double>& b) {
  std::vector<double> out(a.size() + b.size() - 1, 0.0);
  for (std::size_t i = 0; i < a.size(); ++i) {
    for (std::size_t j = 0; j < b.size(); ++j) out[i + j] += a[i] * b[j];
  }
  return out;
}

TransformsD cook_toom_1d(int m, int r, const std::vector<double>& pts) {
  if (m < 1 || r < 1) throw std::invalid_argument("cook_toom_1d: need m, r >= 1");
  const int n = m + r - 1;
  if (static_cast<int>(pts.size()) != n - 1) {
    throw std::invalid_argument("cook_toom_1d: F(" + std::to_string(m) + "," + std::to_string(r) +
                                ") needs " + std::to_string(n - 1) + " finite points, got " +
                                std::to_string(pts.size()));
  }
  for (std::size_t i = 0; i < pts.size(); ++i) {
    for (std::size_t j = i + 1; j < pts.size(); ++j) {
      if (pts[i] == pts[j]) {
        throw std::invalid_argument("cook_toom_1d: duplicate point " + std::to_string(pts[i]));
      }
    }
  }

  TransformsD td;
  td.m = m;
  td.r = r;
  td.points = pts;

  // G: n x r. Finite row i = [aᵢ⁰ … aᵢ^{r-1}] / Nᵢ; last row = e_{r-1}.
  td.g_mat.assign(static_cast<std::size_t>(n), std::vector<double>(static_cast<std::size_t>(r), 0.0));
  for (int i = 0; i < n - 1; ++i) {
    double norm = 1.0;
    for (int k = 0; k < n - 1; ++k) {
      if (k != i) norm *= pts[static_cast<std::size_t>(i)] - pts[static_cast<std::size_t>(k)];
    }
    double power = 1.0;
    for (int j = 0; j < r; ++j) {
      td.g_mat[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] = power / norm;
      power *= pts[static_cast<std::size_t>(i)];
    }
  }
  td.g_mat[static_cast<std::size_t>(n - 1)][static_cast<std::size_t>(r - 1)] = 1.0;

  // Bᵀ: n x n. Finite row i = coeffs of Mᵢ(x) = Π_{k≠i}(x − a_k) (degree n-2);
  // ∞-row = coeffs of M(x) = Π(x − a_k) (degree n-1).
  td.bt_mat.assign(static_cast<std::size_t>(n), std::vector<double>(static_cast<std::size_t>(n), 0.0));
  for (int i = 0; i < n - 1; ++i) {
    std::vector<double> poly{1.0};
    for (int k = 0; k < n - 1; ++k) {
      if (k != i) poly = poly_mul(poly, {-pts[static_cast<std::size_t>(k)], 1.0});
    }
    for (std::size_t j = 0; j < poly.size(); ++j) {
      td.bt_mat[static_cast<std::size_t>(i)][j] = poly[j];
    }
  }
  {
    std::vector<double> poly{1.0};
    for (int k = 0; k < n - 1; ++k) poly = poly_mul(poly, {-pts[static_cast<std::size_t>(k)], 1.0});
    for (std::size_t j = 0; j < poly.size(); ++j) {
      td.bt_mat[static_cast<std::size_t>(n - 1)][j] = poly[j];
    }
  }

  // Aᵀ: m x n. Column j (finite) = [a_j⁰ … a_j^{m-1}]; ∞-column = e_{m-1}.
  td.at_mat.assign(static_cast<std::size_t>(m), std::vector<double>(static_cast<std::size_t>(n), 0.0));
  for (int j = 0; j < n - 1; ++j) {
    double power = 1.0;
    for (int i = 0; i < m; ++i) {
      td.at_mat[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] = power;
      power *= pts[static_cast<std::size_t>(j)];
    }
  }
  td.at_mat[static_cast<std::size_t>(m - 1)][static_cast<std::size_t>(n - 1)] = 1.0;

  return td;
}

namespace {
Tensor mat_to_tensor(const MatD& m) {
  const auto rows = static_cast<std::int64_t>(m.size());
  const auto cols = rows > 0 ? static_cast<std::int64_t>(m.front().size()) : 0;
  Tensor t(Shape{rows, cols});
  for (std::int64_t i = 0; i < rows; ++i) {
    for (std::int64_t j = 0; j < cols; ++j) {
      t(i, j) = static_cast<float>(m[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)]);
    }
  }
  return t;
}
}  // namespace

Transforms to_float(const TransformsD& td) {
  Transforms t;
  t.m = td.m;
  t.r = td.r;
  t.tile = td.m + td.r - 1;
  t.g_mat = mat_to_tensor(td.g_mat);
  t.bt_mat = mat_to_tensor(td.bt_mat);
  t.at_mat = mat_to_tensor(td.at_mat);
  return t;
}

void check_transforms(const Transforms& tr, const char* who) {
  const std::int64_t t = tr.tile, m = tr.m, r = tr.r;
  const auto fail = [who](const std::string& what) {
    throw std::invalid_argument(std::string(who) + ": " + what);
  };
  const auto f = [&] { return "F(" + std::to_string(m) + ", " + std::to_string(r) + ")"; };
  const auto is = [](const Tensor& mat, std::int64_t rows, std::int64_t cols) {
    return mat.dim() == 2 && mat.size(0) == rows && mat.size(1) == cols;
  };
  if (m < 1 || r < 1) fail("Winograd transform " + f() + " needs m >= 1 and r >= 1");
  if (t != m + r - 1) {
    fail("Winograd tile " + std::to_string(t) + " is not m + r - 1 for " + f());
  }
  if (t > kMaxTile) {
    fail("Winograd tile " + std::to_string(t) + " exceeds the supported maximum " +
         std::to_string(kMaxTile));
  }
  if (!is(tr.g_mat, t, r) || !is(tr.bt_mat, t, t) || !is(tr.at_mat, m, t)) {
    fail("Winograd transform matrices disagree with " + f() +
         " (G must be [t, r], Bt [t, t], At [m, t])");
  }
}

Transforms make_transforms(int m, int r) {
  return to_float(cook_toom_1d(m, r, default_points(m + r - 1)));
}

Transforms make_transforms(int m, int r, const std::vector<double>& finite_points) {
  return to_float(cook_toom_1d(m, r, finite_points));
}

MatrixCost matrix_cost(const Tensor& mat, float tol) {
  MatrixCost c;
  c.total = mat.numel();
  for (float v : mat.data()) {
    const float a = std::fabs(v);
    if (a <= tol) {
      ++c.zeros;
    } else if (std::fabs(a - 1.F) <= tol) {
      ++c.plus_minus_one;
    } else {
      ++c.general;
    }
  }
  return c;
}

}  // namespace wa::wino
