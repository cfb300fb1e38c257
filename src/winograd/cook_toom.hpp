// Cook-Toom construction of Winograd convolution transforms.
//
// For F(m, r) — m outputs from an r-tap filter — the minimal algorithm needs
// n = m + r - 1 evaluation points; we use n-1 finite polynomial points plus
// the point at infinity, the standard choice in the literature (Lavin & Gray
// 2016; Barabasz et al. 2018). The construction below is validated by
// property tests asserting  Aᵀ[(G g) ⊙ (Bᵀ d)] == correlate(d, g)  in FP64
// for every supported configuration, and its 2-D lift against direct 2-D
// correlation.
//
//   G [n×r]:  row i = [1, aᵢ, aᵢ², …] / Nᵢ,  Nᵢ = Π_{k≠i}(aᵢ − a_k);  ∞-row = e_{r−1}
//   Bᵀ[n×n]:  row i = coefficients of Mᵢ(x) = Π_{k≠i}(x − a_k);       ∞-row = coeffs of M(x)
//   Aᵀ[m×n]:  column j = [1, a_j, a_j², …];                            ∞-col = e_{m−1}
#pragma once

#include <vector>

#include "tensor/tensor.hpp"

namespace wa::wino {

/// Dense double-precision matrix used during synthesis (row major).
using MatD = std::vector<std::vector<double>>;

/// 1-D transform triple in double precision.
struct TransformsD {
  MatD g_mat;   // n x r
  MatD bt_mat;  // n x n
  MatD at_mat;  // m x n
  int m = 0;    // outputs per tile (per dimension)
  int r = 0;    // filter taps (per dimension)
  std::vector<double> points;  // the n-1 finite points used
};

/// Transform triple as FP32 tensors, ready for layer use.
/// For 2-D F(m×m, r×r) the same matrices apply on both sides:
/// U = G g Gᵀ, V = Bᵀ d B, Y = Aᵀ M A.
struct Transforms {
  Tensor g_mat;   // [t, r]
  Tensor bt_mat;  // [t, t]
  Tensor at_mat;  // [m, t]
  int m = 0;
  int r = 0;
  int tile = 0;  // t = m + r - 1
};

/// The conventional "good" finite points for n = m + r - 1 total points:
/// 0, ±1, ±2, ±1/2, ±4, ±1/4, ... (n-1 of them; ∞ is implicit).
std::vector<double> default_points(int n);

/// Synthesize 1-D transforms for F(m, r) from n-1 finite points.
/// Throws std::invalid_argument on duplicate points or wrong count.
TransformsD cook_toom_1d(int m, int r, const std::vector<double>& finite_points);

/// FP32 transforms for 2-D F(m×m, r×r) with the default points.
Transforms make_transforms(int m, int r);
/// FP32 transforms with explicit finite points (n-1 of them).
Transforms make_transforms(int m, int r, const std::vector<double>& finite_points);

/// Convert a synthesized double triple to FP32 tensors.
Transforms to_float(const TransformsD& td);

/// Refuse a transform set the tile kernels cannot run: throws
/// std::invalid_argument, its message prefixed "<who>: ", unless m, r >= 1,
/// tile == m + r - 1 <= kMaxTile (small_mat.hpp), G is [t, r], Bᵀ [t, t]
/// and Aᵀ [m, t]. The kernels size their stack tiles by kMaxTile and index
/// the three matrices unchecked, so every entry point that takes a
/// Transforms calls this first (the .wam loader too, for file input).
void check_transforms(const Transforms& tr, const char* who);

/// Multiply polynomials given as coefficient vectors (lowest degree first).
std::vector<double> poly_mul(const std::vector<double>& a, const std::vector<double>& b);

/// Sparsity statistics of a transform matrix, used by the latency model:
/// zero entries cost nothing, ±1 entries are adds, ±2^k are shifts-adds,
/// anything else is a real multiply. Learnt ("flex") transforms are dense,
/// which is exactly the A.2 latency overhead the paper reports.
struct MatrixCost {
  std::int64_t zeros = 0;
  std::int64_t plus_minus_one = 0;
  std::int64_t general = 0;  // entries needing a genuine multiplication
  std::int64_t total = 0;
  /// Fraction of entries that cost a multiply.
  double multiply_fraction() const {
    return total > 0 ? static_cast<double>(general) / static_cast<double>(total) : 0.0;
  }
};
MatrixCost matrix_cost(const Tensor& mat, float tol = 1e-6F);

}  // namespace wa::wino
