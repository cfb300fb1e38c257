// Range observers deciding the quantization scale of each tensor.
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "quant/qparams.hpp"
#include "quant/quant.hpp"

namespace wa::quant {

/// Tracks the dynamic range of a quantized tensor site.
///
/// Weights use Mode::kMinMax (the scale follows the current values exactly);
/// activations and Winograd intermediates use Mode::kEma — an exponential
/// moving average over batches, the "moving averages" the paper warms up
/// before evaluating post-training Winograd swaps (Table 1 footnote).
///
/// min and max are tracked separately so the same observer serves both the
/// paper's symmetric scheme (scale from abs-max) and the affine extension
/// (scale and zero-point from the full interval).
class RangeObserver {
 public:
  enum class Mode { kMinMax, kEma };

  explicit RangeObserver(Mode mode = Mode::kEma, float ema_momentum = 0.95F)
      : mode_(mode), momentum_(ema_momentum) {}

  /// Update the tracked range from a batch (training / calibration).
  void observe(const Tensor& x) {
    if (x.empty()) return;
    const auto [lo, hi] = value_range(x);  // == {x.min(), x.max()}
    observe_range(lo, hi);
  }

  /// Update from a pre-computed [lo, hi] batch range (the per-tap observer
  /// feeds each tap group's slice range through here, so both granularities
  /// share one min-max/EMA rule).
  void observe_range(float lo, float hi) {
    if (mode_ == Mode::kMinMax || !initialized_) {
      min_ = lo;
      max_ = hi;
      initialized_ = true;
    } else {
      min_ = momentum_ * min_ + (1.F - momentum_) * lo;
      max_ = momentum_ * max_ + (1.F - momentum_) * hi;
    }
  }

  /// Scale for the tracked range at the given bit-width. When nothing has
  /// been observed yet the batch itself must be observed first; calling with
  /// no observations returns a scale for range 1.0 rather than throwing so
  /// that a cold evaluation pass is well-defined.
  float scale(const QuantSpec& spec) const {
    return scale_for(initialized_ ? tracked_abs_max() : 1.F, spec);
  }

  /// Per-tensor quantization parameters for the tracked range, honouring
  /// spec.scheme (symmetric zero-point 0, or affine with a learned offset).
  QParams qparams(const QuantSpec& spec) const {
    if (!spec.is_affine()) return QParams::per_tensor(scale(spec));
    const float lo = std::min(initialized_ ? min_ : -1.F, 0.F);
    const float hi = std::max(initialized_ ? max_ : 1.F, 0.F);
    const QRange range = range_of(spec);
    const float span = hi - lo;
    QParams p;
    p.channel_dim = -1;
    p.scales.assign(1, span > 1e-12F
                           ? span / static_cast<float>(range.qmax - range.qmin)
                           : 1e-12F);
    const float z = -lo / p.scales[0] + static_cast<float>(range.qmin);
    p.zero_points.assign(
        1, static_cast<std::int32_t>(std::lround(std::clamp(
               z, static_cast<float>(range.qmin), static_cast<float>(range.qmax)))));
    return p;
  }

  float tracked_abs_max() const { return std::max(std::fabs(min_), std::fabs(max_)); }
  float tracked_min() const { return min_; }
  float tracked_max() const { return max_; }
  bool initialized() const { return initialized_; }
  Mode mode() const { return mode_; }
  void reset() {
    min_ = 0.F;
    max_ = 0.F;
    initialized_ = false;
  }
  /// Switch tracking mode (used when freezing ranges for deployment).
  void set_mode(Mode m) { mode_ = m; }

 private:
  Mode mode_;
  float momentum_;
  float min_ = 0.F;
  float max_ = 0.F;
  bool initialized_ = false;
};

/// Per-tap range tracking for Winograd transform-domain tensors.
///
/// The tracked tensor carries its taps on one axis (dim 1 of the op's
/// [groups, t*t, ...] layouts); each batch is swept once to get per-tap
/// [lo, hi], collapsed over groups of `group_size` contiguous taps, and each
/// group's range feeds a RangeObserver — so kMinMax/kEma semantics are
/// exactly the per-tensor observer's, applied per group. group_size == taps
/// degenerates to one group, whose tracked range then matches the per-tensor
/// observer on the same data bit-for-bit.
class TapRangeObserver {
 public:
  explicit TapRangeObserver(RangeObserver::Mode mode = RangeObserver::Mode::kEma,
                            float ema_momentum = 0.95F)
      : mode_(mode), momentum_(ema_momentum) {}

  /// Fix the tap-axis geometry. Re-configuring with different values resets
  /// the tracked state (a layer's tile size changed; old ranges are
  /// meaningless). group_size must divide into taps' grouping cleanly at the
  /// last group only (the final group may be short).
  void configure(std::int64_t taps, std::int64_t group_size) {
    if (taps == taps_ && group_size == group_size_) return;
    if (taps <= 0 || group_size <= 0) {
      throw std::invalid_argument("TapRangeObserver: taps and group_size must be positive");
    }
    taps_ = taps;
    group_size_ = std::min(group_size, taps);
    groups_.assign(static_cast<std::size_t>((taps_ + group_size_ - 1) / group_size_),
                   RangeObserver(mode_, momentum_));
  }

  /// Update per-group ranges from a batch; `tap_dim` is the axis carrying
  /// the taps (must have extent == configured taps).
  void observe(const Tensor& x, std::int64_t tap_dim) {
    if (x.empty() || groups_.empty()) return;
    if (x.size(tap_dim) != taps_) {
      throw std::invalid_argument("TapRangeObserver: axis carries " +
                                  std::to_string(x.size(tap_dim)) + " taps, configured for " +
                                  std::to_string(taps_));
    }
    std::int64_t inner = 1;
    for (std::int64_t d = tap_dim + 1; d < x.dim(); ++d) inner *= x.size(d);
    // One [lo, hi] per contiguous [outer, tap, inner] slab, folded into its
    // tap's group in slab order: the serial per-group sweep's exact result.
    // Slabs go kBatch at a time so the partials live on the stack.
    constexpr std::int64_t kBatch = 256;
    float slab_lo[kBatch], slab_hi[kBatch];
    const std::int64_t slabs = x.numel() / inner;
    const std::size_t ng = groups_.size();
    std::vector<float> lo(ng, std::numeric_limits<float>::infinity());
    std::vector<float> hi(ng, -std::numeric_limits<float>::infinity());
    for (std::int64_t s0 = 0; s0 < slabs; s0 += kBatch) {
      const std::int64_t count = std::min(kBatch, slabs - s0);
      slab_ranges(x.raw() + s0 * inner, count * inner, inner, slab_lo, slab_hi);
      for (std::int64_t k = 0; k < count; ++k) {
        const auto g = static_cast<std::size_t>(((s0 + k) % taps_) / group_size_);
        lo[g] = std::min(lo[g], slab_lo[k]);
        hi[g] = std::max(hi[g], slab_hi[k]);
      }
    }
    for (std::size_t g = 0; g < ng; ++g) groups_[g].observe_range(lo[g], hi[g]);
  }

  /// Expanded per-tap scale vector for the tracked ranges (scale_for per
  /// group, the same rule the per-tensor observer applies to its one range).
  ScaleVector scale_vector(const QuantSpec& spec) const {
    ScaleVector sv;
    sv.group_size = group_size_;
    sv.scales.resize(static_cast<std::size_t>(taps_));
    for (std::int64_t tap = 0; tap < taps_; ++tap) {
      const RangeObserver& g = groups_[static_cast<std::size_t>(tap / group_size_)];
      sv.scales[static_cast<std::size_t>(tap)] =
          scale_for(g.initialized() ? g.tracked_abs_max() : 1.F, spec);
    }
    return sv;
  }

  std::int64_t taps() const { return taps_; }
  std::int64_t group_size() const { return group_size_; }
  bool configured() const { return !groups_.empty(); }
  bool initialized() const {
    for (const RangeObserver& g : groups_) {
      if (!g.initialized()) return false;
    }
    return !groups_.empty();
  }
  /// Per-group observers (hashing / diagnostics).
  const std::vector<RangeObserver>& groups() const { return groups_; }
  void reset() {
    for (RangeObserver& g : groups_) g.reset();
  }

 private:
  RangeObserver::Mode mode_;
  float momentum_;
  std::int64_t taps_ = 0;
  std::int64_t group_size_ = 0;
  std::vector<RangeObserver> groups_;
};

}  // namespace wa::quant
