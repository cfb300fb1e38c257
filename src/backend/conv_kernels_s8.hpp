// INT8 convolution kernels: int8 x int8 -> int32 accumulation with
// fixed-point requantization, mirroring integer inference on Arm cores.
//
// These kernels are what the Winograd-aware training in src/core makes
// possible: the quantized Winograd path matches the training-time Qx
// semantics (per-stage symmetric quantization) while the heavy Hadamard/GEMM
// stage runs entirely in int8/int32.
#pragma once

#include <atomic>

#include "backend/conv_kernels.hpp"
#include "backend/qtensor.hpp"
#include "quant/requant.hpp"

namespace wa::backend {

/// int8 GEMM: C_int32 = A_int8 [M,K] x B_int8 [K,N]. Dispatches through the
/// runtime-selected SIMD backend (backend/simd/kernel_table.hpp); results
/// are bit-identical across backends.
void gemm_s8_s32(std::int64_t m, std::int64_t n, std::int64_t k, const std::int8_t* a,
                 const std::int8_t* b, std::int32_t* c);

/// im2row weights repacked once at load: [K, C*r*r] -> [C*r*r, K] so the
/// per-forward GEMM consumes them directly. Grouped convolutions repack each
/// group contiguously: wt is [g][patch_g, K/g] with patch_g = (C/g)*r*r, so
/// group gi's GEMM operand starts at wt.data() + gi*patch*out_channels
/// (per-group strides; `patch` and `out_channels` stay the per-group sizes).
struct Im2rowWeightsS8 {
  std::vector<std::int8_t> wt;  // groups x [patch, K/groups]
  float scale = 1.F;
  std::int64_t out_channels = 0;  // K/groups (per-group)
  std::int64_t patch = 0;         // (C/groups)*r*r (per-group)
  std::int64_t groups = 1;
  bool empty() const { return wt.empty(); }
};

Im2rowWeightsS8 prepare_im2row_weights_s8(const QTensor& weights, std::int64_t groups = 1);

/// im2row int8 convolution from prepared weights; the lowered patch matrix
/// and int32 accumulators live in the calling thread's ScratchArena. Output
/// is int8 at `out_scale` (if > 0) or at the scale implied by the int32
/// result's abs-max (deployment calibrates this offline).
///
/// `reuse_storage`, when non-null, donates its buffer to the output tensor
/// instead of a fresh allocation — the memory planner's in-place execution.
/// It MAY alias input.data: the kernel reads the input only while lowering
/// patches (before any output byte exists) and only consumes the donated
/// vector afterwards, so out-of-place and in-place runs are bit-identical.
/// The donated vector is moved from (left empty).
QTensor im2row_conv_s8_prepared(const QTensor& input, const Im2rowWeightsS8& weights,
                                const ConvGeometry& g, float out_scale = -1.F,
                                const Tensor* bias = nullptr,
                                std::vector<std::int8_t>* reuse_storage = nullptr);

/// Per-stage scales of the Winograd int8 convolution (e.g. frozen from
/// winograd-aware training); non-positive entries are derived on the fly.
///
/// Each transform-domain stage optionally carries a per-tap scale vector
/// (t*t entries, tap-major like the executors' [t*t, ...] layouts) in the
/// `*_taps` fields. An empty vector means per-tensor (the scalar field
/// rules); a non-empty vector takes precedence and its scalar field must
/// also be set positive (any representative entry) so the > 0 "is this
/// stage frozen?" predicates all over deploy keep working unchanged.
/// The output stage stays scalar — Y is pixel-domain, there is no tap axis.
struct WinogradStageScales {
  float weights_transformed = -1.F;  // U = G g Gᵀ
  float input_transformed = -1.F;    // V = Bᵀ d B
  float hadamard = -1.F;             // M = Σ_c U ⊙ V
  float output = -1.F;               // Y = Aᵀ M A
  std::vector<float> weights_transformed_taps{};  // [t*t] or empty
  std::vector<float> input_transformed_taps{};    // [t*t] or empty
  std::vector<float> hadamard_taps{};             // [t*t] or empty
};

/// Input-channel block width of the fused Winograd path's GEMM layout: the
/// blocked U/V interleave groups of 4 channels per column, the granule one
/// AVX-512 `vpdpbusd` (and the scalar reference loop) consumes.
inline constexpr std::int64_t kWinoChannelBlock = 4;

/// Winograd weights transformed AND quantized once at load: U = Qx(G g Gᵀ)
/// as int8 levels at `scale`. This is the LANCE-style precomputation — per
/// forward only the input/Hadamard/output stages run.
///
/// `u_blocked` is the one stored copy of U, laid out for the fused streaming
/// executor: [t*t, K, Cpad] unsigned offset-binary bytes (level + 128),
/// Cpad = C rounded up to kWinoChannelBlock, pad bytes 128 (== level 0).
/// Offset-binary is what `vpdpbusd` (unsigned x signed) needs; the GEMM
/// removes the +128 exactly (see KernelTable::gemm_u8s8_s32_k4). The flat
/// reference executor unblocks it per call into its arena (byte - 128, pad
/// lanes dropped); the stored cache never changes, so that staging is not
/// counted as a weight repack.
/// Grouped layers store U with the per-group input width: Cpad pads
/// C/groups and k's group is k / (K/groups). `in_channels` is that
/// per-group width.
struct WinogradWeightsS8 {
  std::vector<std::uint8_t> u_blocked;  // [t*t, K, Cpad], offset-binary
  float scale = 1.F;
  /// Per-tap U scales ([t*t], tap ab's levels [ab, :, :] were quantized at
  /// entry ab).
  /// Empty = per-tensor (`scale` quantized every tap). When set, `scale`
  /// holds a representative entry (tap 0) for legacy predicates.
  std::vector<float> tap_scales;
  /// Sparse-U skip flags ([t*t] or empty = dense): tap_mask[ab] != 0 marks a
  /// tap whose entire U slice is zero (winograd_prune output), so both
  /// executors skip its Hadamard GEMM and zero-fill its M block instead —
  /// bit-identical to multiplying by the zeros, since quantize(0) == 0 and
  /// requant(0) == 0 at any scale.
  std::vector<std::uint8_t> tap_mask;
  std::int64_t out_channels = 0;
  std::int64_t in_channels = 0;  // per-group input channels
  std::int64_t groups = 1;
  std::int64_t tile = 0;
  /// Cpad = pad4(C/groups), the channel stride of u_blocked.
  std::int64_t padded_in_channels() const {
    return (in_channels + kWinoChannelBlock - 1) / kWinoChannelBlock * kWinoChannelBlock;
  }
  bool empty() const { return u_blocked.empty(); }
};

/// Build the cached transformed weights. `scale` <= 0 derives the scale from
/// the transformed weights' abs-max (what a cold calibration would do);
/// deployment passes the frozen training-time U-stage scale. `tap_scales`,
/// when non-empty ([t*t] entries), quantizes each tap's [K, C] slice at its
/// own scale — the per-tap U cache (scale is then ignored beyond recording a
/// representative).
/// `groups` > 1 expects [K, C/groups, r, r] weights and records the grouped
/// layout. `sparse_mask`, when non-null, is the winograd_prune tap mask
/// [groups, t*t, K/groups, C/groups] (values 0/1): masked U entries are
/// zeroed BEFORE quantization and taps whose whole slice dies get a
/// tap_mask skip flag.
WinogradWeightsS8 prepare_winograd_weights_s8(const Tensor& weights_fp32,
                                              const wino::Transforms& tr, float scale = -1.F,
                                              const std::vector<float>& tap_scales = {},
                                              std::int64_t groups = 1,
                                              const Tensor* sparse_mask = nullptr);

/// Per-phase wall-clock accumulator for one Winograd conv call — the
/// kernel-level tail of a request trace (src/telemetry). When a non-null
/// accumulator is passed to either Winograd entry point, every executor thread
/// adds its nanoseconds per phase with relaxed atomics (once per call on the
/// blocked path, once per stage on the flat path), so the totals are
/// CPU-time aggregates across the OpenMP team, not wall-clock intervals. On
/// the blocked path a thread's wait at each block's one barrier, after the
/// scatter, is its own phase; the flat path has no such barrier and leaves
/// it 0.
/// A null accumulator (the default, and every untraced forward) costs
/// nothing — the executors never read the clock for it.
struct WinoPhaseNs {
  std::atomic<std::int64_t> scatter{0};  // input transform + V quantize + interleave
  std::atomic<std::int64_t> wait{0};     // blocked path: the barrier after each block's scatter
  std::atomic<std::int64_t> gemm{0};     // t² Hadamard GEMMs
  std::atomic<std::int64_t> requant{0};  // M int32 -> int8 fixed-point requant
  std::atomic<std::int64_t> gather{0};   // inverse transform + output quantize
  std::int64_t total() const {
    return scatter.load(std::memory_order_relaxed) + wait.load(std::memory_order_relaxed) +
           gemm.load(std::memory_order_relaxed) + requant.load(std::memory_order_relaxed) +
           gather.load(std::memory_order_relaxed);
  }
};

/// Winograd int8 convolution from cached transformed weights: transforms in
/// FP32 with per-stage int8 requantization, the Hadamard stage as t² int8
/// GEMMs with int32 accumulators. U is reused, the input tiles are
/// dequantized on the fly (no full fp32 copy of the activation), and V / M /
/// Y intermediates live in the ScratchArena.
///
/// `reuse_storage` as in im2row_conv_s8_prepared: an optional donated output
/// buffer that may alias input.data — the input is fully consumed by the
/// scatter stage before the output tensor is materialized.
///
/// Execution strategy: exactly when every internal scale (input_transformed,
/// hadamard, output) is frozen, the conv runs the fused streaming executor —
/// per block of tiles, transform -> t² blocked GEMMs -> inverse transform +
/// requant in one loop whose V/M intermediates live in L1/L2-sized
/// ScratchArena buffers, with each block split across the OpenMP team
/// (channel quads, then output-channel slices). Any dynamic scale takes
/// winograd_conv_s8_flat (deriving a scale needs the full tensor's abs-max
/// before the next stage may quantize). Both executions are bit-identical.
QTensor winograd_conv_s8_prepared(const QTensor& input, const WinogradWeightsS8& weights,
                                  const ConvGeometry& g, const wino::Transforms& tr,
                                  const WinogradStageScales& scales = {},
                                  const Tensor* bias = nullptr,
                                  std::vector<std::int8_t>* reuse_storage = nullptr,
                                  WinoPhaseNs* phase_ns = nullptr);

/// The flat whole-tensor Winograd sequence: scatter + V quantize, t² GEMMs,
/// M requant, then gather + output quantize, each stage over the whole
/// tensor in the arena. Same arguments, validation and bytes as
/// winograd_conv_s8_prepared, at any scales; that function runs it for
/// dynamic-scale stages, and tests and benches call it directly as the
/// blocked executor's differential reference.
QTensor winograd_conv_s8_flat(const QTensor& input, const WinogradWeightsS8& weights,
                              const ConvGeometry& g, const wino::Transforms& tr,
                              const WinogradStageScales& scales = {},
                              const Tensor* bias = nullptr,
                              std::vector<std::int8_t>* reuse_storage = nullptr,
                              WinoPhaseNs* phase_ns = nullptr);

/// Stride-2 Winograd weights via the polyphase identity (src/winograd/
/// strided): y = Σ_st corr1(x_st, g_st) over the four parity subplanes. The
/// dense 2x2-tap phase g00 runs through the flat Winograd sequence over the
/// even/even input subplane (u00, F(m,2) transforms); the three rectangular
/// phases (5 taps total: w01,w21 | w10,w12 | w11) collapse into one im2row
/// GEMM over a 5*C patch lowered straight from the original (strided) input.
/// Their int32 partials are combined in fp32 and quantized once at the
/// output scale — a single code path, so backend pins cannot change the
/// bytes.
struct StridedWinogradWeightsS8 {
  WinogradWeightsS8 u00;             // phase (0,0): 2x2 taps, F(m,2) Winograd
  std::vector<std::int8_t> rect_wt;  // [5*C, K]: rect-phase taps, im2row order
  float rect_scale = 1.F;
  bool empty() const { return u00.empty(); }
};

/// Build the stride-2 cache from [K, C, 3, 3] fp32 weights. `tr` must be the
/// F(m,2) transform set used for the phase-00 subplane conv. Scales <= 0
/// derive from abs-max as elsewhere.
StridedWinogradWeightsS8 prepare_strided_winograd_weights_s8(const Tensor& weights_fp32,
                                                             const wino::Transforms& tr,
                                                             float u00_scale = -1.F,
                                                             float rect_scale = -1.F);

/// Stride-2 Winograd conv from the polyphase cache. Geometry must carry
/// stride == 2, kernel == 3, groups == 1; scales are per-tensor only (the
/// strided stage predates per-tap requant). Bit-identical across backends
/// by construction.
QTensor strided_winograd_conv_s8_prepared(const QTensor& input,
                                          const StridedWinogradWeightsS8& weights,
                                          const ConvGeometry& g, const wino::Transforms& tr,
                                          const WinogradStageScales& scales = {},
                                          const Tensor* bias = nullptr,
                                          std::vector<std::int8_t>* reuse_storage = nullptr);

/// Calibrated per-output-pixel cost model behind ConvStage::prepare's
/// stride-2 lowering of a 3x3 ungrouped Winograd stage. The polyphase
/// lowering spends ~7.25·C·K MACs per output pixel (4.41 effective in the
/// F(2,2) phase-00 sub-conv + 5·C·K rect GEMM) but pays a multi-pass fp32
/// join whose traffic scales with C+K; strided im2row spends the full
/// 9·C·K in ONE fused GEMM+requant pass. The overhead coefficient is
/// calibrated against bench/zoo_deploy (0.60x at C=K=64), putting the
/// crossover between C=K=287 and 288 — below that the fallback wins and
/// prepare() picks it.
bool strided_polyphase_profitable(std::int64_t in_channels, std::int64_t out_channels);

}  // namespace wa::backend
