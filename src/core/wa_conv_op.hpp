// The Winograd-aware convolution op (paper Fig. 2).
//
// Forward, per layer:
//   U = Qx(G g Gᵀ)          weight transform
//   V = Qx(Bᵀ d B)          input-tile transform (tiles of t = m+r-1, stride m)
//   M = Qx(Σ_c U_kc ⊙ V_c)  Hadamard + channel sum, realised as t² GEMMs
//   Y = Qx(Aᵀ M A)          output transform, scattered into the layer output
//
// Every Qx is the same symmetric fake-quantization used for weights and
// activations (the paper quantizes all intermediates to the model's level).
// Backward is hand-derived (all stages are linear or bilinear):
//   dM = A dY Aᵀ,  dU = dM Vᵀ,  dV = Uᵀ dM,  dg = Gᵀ dU G,  dd = B dV Bᵀ
// and, when the transforms are learnable ("-flex"):
//   dG  = dU·G·gᵀ + dUᵀ·G·g          (from U = G g Gᵀ)
//   dBᵀ = dV·Bᵀ·dᵀ + dVᵀ·Bᵀ·d        (from V = Bᵀ d B)
//   dAᵀ = dY·Aᵀ·Mᵀ + dYᵀ·Aᵀ·M        (from Y = Aᵀ M A)
// with straight-through clip masks from each Qx. All of it is verified by
// finite-difference grad-checks in tests/test_core.cpp. Forward and backward
// give the same bits at every OpenMP team size (docs/NUMERICS.md, "Training
// numerics").
#pragma once

#include <optional>

#include "autograd/variable.hpp"
#include "backend/conv_kernels.hpp"
#include "quant/observer.hpp"

namespace wa::core {

/// Observers for the four Qx stages of one layer. The weight-transform
/// stage tracks min-max (it depends only on the weights); the activation-
/// dependent stages use EMA, matching standard QAT practice and the paper's
/// "warmup of all the moving averages involved in Eq. 1".
///
/// Each stage can carry its own bit-width ("quantization diversity", paper
/// §3.2: "each of these can be quantized to a different number of bits").
/// An unset override falls back to `spec`, the layer-level default — the
/// paper's default configuration where every intermediate is quantized to
/// the input/weight level.
struct WaQuantStages {
  quant::QuantSpec spec{32};
  std::optional<quant::QuantSpec> spec_u, spec_v, spec_m, spec_y;

  quant::RangeObserver u{quant::RangeObserver::Mode::kMinMax};  // G g Gᵀ
  quant::RangeObserver v{quant::RangeObserver::Mode::kEma};     // Bᵀ d B
  quant::RangeObserver m{quant::RangeObserver::Mode::kEma};     // Hadamard
  quant::RangeObserver y{quant::RangeObserver::Mode::kEma};     // Aᵀ M A

  /// Taps per scale group for the transform-domain stages. 0 = legacy
  /// per-tensor scales through the scalar observers above. > 0: U, V and M
  /// fake-quantize per tap (axis 1 of the op's [groups, t*t, ...] layouts)
  /// with ranges tracked by the tap observers below, grouped in contiguous
  /// runs of this many taps — so QAT trains against exactly the grid the
  /// per-tap int8 executor deploys. Y keeps the per-tensor observer either
  /// way (it is a pixel-domain tensor; there is no tap axis to key on).
  std::int64_t tap_group_size = 0;
  bool per_tap() const { return tap_group_size > 0; }

  quant::TapRangeObserver u_taps{quant::RangeObserver::Mode::kMinMax};
  quant::TapRangeObserver v_taps{quant::RangeObserver::Mode::kEma};
  quant::TapRangeObserver m_taps{quant::RangeObserver::Mode::kEma};

  const quant::QuantSpec& u_spec() const { return spec_u ? *spec_u : spec; }
  const quant::QuantSpec& v_spec() const { return spec_v ? *spec_v : spec; }
  const quant::QuantSpec& m_spec() const { return spec_m ? *spec_m : spec; }
  const quant::QuantSpec& y_spec() const { return spec_y ? *spec_y : spec; }

  /// Inference-time cache of stage 1, U = Qx(G g Gᵀ) (plus the pruning mask
  /// fold). Populated on the first eval forward and keyed on a content hash
  /// of everything that determines U — weights, G, mask, U-observer state and
  /// spec — so weight updates (optimizer steps, manual edits, gradcheck
  /// perturbations) invalidate it automatically. Never consulted during
  /// training: the U observer must keep observing there.
  struct UCache {
    Tensor u;                          // post-Qx (and post-mask) U
    std::vector<std::uint8_t> mask_u;  // STE/prune mask matching `u`
    std::uint64_t key = 0;
    bool valid = false;
    void invalidate() { valid = false; }
  };
  UCache u_cache;
};

/// Winograd-aware convolution.
///
/// `input` [N,C,H,W] and `weight` [K,C/groups,r,r] are expected already
/// fake-quantized by the caller (the layer owns those observers). `g_mat`
/// [t,r], `bt_mat` [t,t], `at_mat` [m,t] are the transforms — pass Variables
/// with requires_grad=true to learn them (-flex). `m_out` is the Winograd
/// output tile size m. Gradients flow to input, weight and (if required)
/// the three transforms. `bias` may be undefined.
///
/// `u_mask`, when non-null and non-empty, is a 0/1 tensor with the shape of
/// the transformed weights U = [groups, t², K/groups, C/groups]; masked
/// entries are pruned from the Hadamard stage in forward AND backward — the
/// Winograd-domain sparsity of Liu et al. (2018), which skips up to 90% of
/// the multiplications with no FP32 accuracy loss. Training with the mask
/// in place is the "prune-then-finetune" workflow (src/sparse).
ag::Variable winograd_aware_conv2d(const ag::Variable& input, const ag::Variable& weight,
                                   const ag::Variable& bias, const ag::Variable& g_mat,
                                   const ag::Variable& bt_mat, const ag::Variable& at_mat,
                                   const backend::ConvGeometry& geom, int m_out,
                                   WaQuantStages& stages, bool training,
                                   const Tensor* u_mask = nullptr);

}  // namespace wa::core
