// Runtime-dispatched multi-backend kernel layer for the int8 hot paths.
//
// Every function the deployment engine spends real time in — the int8 GEMM
// under both im2row convolution and the batched Winograd Hadamard stage, the
// Winograd scatter/gather data transforms, the flat fixed-point
// requantization loops, the residual join, and the fp32 GEMM micro-kernel —
// is reached through a per-process KernelTable instead of a fixed symbol.
// The table is selected once, lazily, from CPU feature detection (AVX2 and
// AVX-512/VNNI on x86-64, NEON-dotprod on AArch64 when compiled in), with a
// `WA_BACKEND=scalar|avx2|avx512|neon` environment
// override; the scalar table is the always-available bit-exact reference and
// every SIMD backend is validated against it kernel-by-kernel AND
// end-to-end (bit-identical Int8Pipeline logits) in
// tests/test_simd_backends.cpp.
//
// Bit-exactness contract: for a fixed input, every table entry must produce
// byte-identical output on every backend. Integer kernels are exact by
// construction; the fp32 transform kernels achieve it by mirroring the
// scalar reference's per-element operation sequence (same multiply/add
// order, no FMA contraction — the files are compiled with -ffp-contract=off)
// so each SIMD lane replays the scalar arithmetic exactly. docs/NUMERICS.md
// explains why the engine's numerics make this both possible and required.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "quant/requant.hpp"

namespace wa::backend::simd {

/// One backend's kernel set. Entries left null fall back to the scalar
/// reference when the table is registered (per-kernel fallback: a backend may
/// accelerate only the kernels its ISA is good at).
struct KernelTable {
  const char* name = "scalar";

  /// C_int32[m,n] = A_int8[m,k] x B_int8[k,n], all row-major, C overwritten.
  void (*gemm_s8_s32)(std::int64_t m, std::int64_t n, std::int64_t k, const std::int8_t* a,
                      const std::int8_t* b, std::int32_t* c) = nullptr;

  /// fp32 GEMM micro-kernel on a packed row-major A panel [mb,k] (leading
  /// dimension lda) and row-major B [k,n] (ldb): C = alpha*A*B + beta*C.
  /// This is the inner kernel of wa::gemm_f32 (tensor/gemm.cpp).
  void (*gemm_f32_packed_nn)(std::int64_t mb, std::int64_t n, std::int64_t k, float alpha,
                             const float* a, std::int64_t lda, const float* b, std::int64_t ldb,
                             float beta, float* c, std::int64_t ldc) = nullptr;

  /// dst[i] = int8(nearbyint(min(127, max(-127, src[i] * inv_scale)))).
  /// The engine's flat float->int8 quantization loop (Winograd V and Y
  /// stages). NOTE: multiplies by the reciprocal — callers pass 1/scale.
  void (*quantize_f32_s8)(const float* src, std::int8_t* dst, std::int64_t n,
                          float inv_scale) = nullptr;

  /// dst[i] = saturate_8(apply_multiplier(acc[i], mult)) — the fixed-point
  /// requantization loop under every int32 accumulator (im2row conv, linear,
  /// Winograd M stage). Must match quant::apply_multiplier bit-for-bit for
  /// every (acc, mult), including shift <= 0 and shift > 31 regimes.
  void (*requant_s32_s8)(const std::int32_t* acc, std::int8_t* dst, std::int64_t n,
                         quant::FixedPointMultiplier mult) = nullptr;

  /// Residual join of two int8 branches onto one output scale:
  ///   out[i] = clamp(relu(r_a(a[i]) + r_b(b[i])), -127, 127)
  /// where r(v) is v for a null multiplier (the exact ratio-1 identity) and
  /// quant::apply_multiplier(v, *mult) otherwise, summed without overflow,
  /// and relu (when set) clamps negatives to 0. `out` may alias `a` and/or
  /// `b`. The vector backends replay the arithmetic for the ratios joins
  /// use (requant_common.hpp: join_vector_regime) and take the scalar
  /// reference for any other multiplier.
  void (*residual_add_s8)(const std::int8_t* a, const std::int8_t* b, std::int8_t* out,
                          std::int64_t n, const quant::FixedPointMultiplier* a_mult,
                          const quant::FixedPointMultiplier* b_mult, bool relu) = nullptr;

  /// Winograd output transform (gather) for one (batch, out-channel) plane:
  /// gather the t*t requantized Hadamard levels of tile (ti,tj) from
  /// m_base[ab * ab_stride + ti*tw + tj], dequantize tap ab at sm[ab], apply
  /// Y = At M A (at is row-major [m,t]), add `bias`, and write the m x m
  /// output tile into oplane [oh, ow] (edge tiles are clipped). `sm` points
  /// at t*t per-tap M scales; the legacy per-tensor case passes a splat
  /// vector, which is bit-identical to the old scalar-sm kernel (same
  /// per-element multiply, same value in every lane).
  void (*wino_gather_f32)(const std::int8_t* m_base, std::int64_t ab_stride, const float* sm,
                          const float* at, std::int64_t t, std::int64_t m, std::int64_t th,
                          std::int64_t tw, std::int64_t oh, std::int64_t ow, float bias,
                          float* oplane) = nullptr;

  // --- Blocked-layout entries (the streaming tile-block Winograd path) -------
  //
  // The fused executor (winograd_conv_s8_blocked) processes one block of
  // consecutive tiles of one batch element at a time so the V and M
  // intermediates stay in a small L1/L2-resident scratch slab. Tiles are
  // indexed flat over the th x tw grid; a block is the range
  // [tile0, tile0 + ntiles). Per-element arithmetic is the flat path's:
  // wino_scatter_q4_s8 replays wino_scatter_block_f32 then quantize_f32_s8,
  // wino_gather_q_s8 replays wino_gather_f32 then quantize_f32_s8, so flat
  // and blocked executions are bit-identical.

  /// Winograd input transform (scatter) for tiles [tile0, tile0+ntiles) of
  /// one (batch, channel) plane: dequantize each t x t input tile at
  /// in_scale, apply V = Bt d B (bt is the row-major [t,t] Bt matrix), and
  /// write the t*t results of block-local tile `idx` to
  /// v_block[ab * block_stride + idx] for ab in [0, t*t). Tiles step by m
  /// with symmetric zero padding `pad`. The flat executor calls it once per
  /// plane with the whole tile range (it needs fp32 V: a dynamic V scale
  /// and the polyphase join both read it before any quantize).
  void (*wino_scatter_block_f32)(const std::int8_t* plane, std::int64_t height,
                                 std::int64_t width, std::int64_t pad, float in_scale,
                                 const float* bt, std::int64_t t, std::int64_t m, std::int64_t th,
                                 std::int64_t tw, std::int64_t tile0, std::int64_t ntiles,
                                 float* v_block, std::int64_t block_stride) = nullptr;

  /// The blocked executor's V producer: wino_scatter_block_f32, the per-tap
  /// quantize and the k4 byte interleave fused, for one channel quad.
  /// planes[lane] (lane in [0, 4)) is a (batch, channel) plane, or null for
  /// a pad lane past the group's last channel. For block-local tile idx and
  /// tap ab, lane's V element is quantized at v_inv[ab] (t*t reciprocals, a
  /// splat for a per-tensor V scale) exactly as quantize_f32_s8 would, and
  /// stored at v_q4[ab * tap_stride + idx * 4 + lane]; a pad lane stores 0.
  /// The vector backends run their lanes across the quad's channels and
  /// across consecutive block tiles, whatever their tile row.
  void (*wino_scatter_q4_s8)(const std::int8_t* const* planes, std::int64_t height,
                             std::int64_t width, std::int64_t pad, float in_scale,
                             const float* bt, std::int64_t t, std::int64_t m, std::int64_t tw,
                             std::int64_t tile0, std::int64_t ntiles, const float* v_inv,
                             std::int8_t* v_q4, std::int64_t tap_stride) = nullptr;

  /// Channel-blocked int8 GEMM in offset-binary form, the Hadamard core of
  /// the fused path (and the layout vpdpbusd consumes directly):
  ///   c[i,j] = sum_kk (a[i*kpad + kk] - 128) * b[(kk/4)*n*4 + j*4 + kk%4]
  /// A is u8 row-major [m, kpad] holding int8 levels + 128 (kpad a multiple
  /// of 4, pad entries 128 == level 0); B interleaves groups of 4 k values
  /// per column ([kpad/4, n, 4], pad rows 0). Accumulation is int32, exact.
  void (*gemm_u8s8_s32_k4)(std::int64_t m, std::int64_t n, std::int64_t kpad,
                           const std::uint8_t* a, const std::int8_t* b,
                           std::int32_t* c) = nullptr;

  /// Blocked wino_gather_f32 with the output quantization fused in: gather
  /// tiles [tile0, tile0+ntiles) from m_block[ab * block_stride + idx],
  /// dequantize tap ab at sm[ab] (t*t entries, splat for the per-tensor
  /// case), Y = At M A + bias, then write int8 levels
  /// nearbyint(min(127, max(-127, y * o_inv))) into oplane (edge tiles
  /// clipped). o_inv is the reciprocal of the output scale, exactly as
  /// quantize_f32_s8 would receive it on the flat path.
  void (*wino_gather_q_s8)(const std::int8_t* m_block, std::int64_t block_stride, const float* sm,
                           const float* at, std::int64_t t, std::int64_t m, std::int64_t th,
                           std::int64_t tw, std::int64_t tile0, std::int64_t ntiles,
                           std::int64_t oh, std::int64_t ow, float bias, float o_inv,
                           std::int8_t* oplane) = nullptr;
};

/// A compiled-in backend and whether this machine can run it.
struct BackendDesc {
  std::string name;
  bool available = false;
};

/// The active table. Resolved once on first use: the WA_BACKEND environment
/// variable names a backend explicitly (unknown or unavailable names warn on
/// stderr and fall back), otherwise the fastest available backend wins.
/// Every entry is non-null (nulls were filled from the scalar reference).
const KernelTable& kernels();

/// The always-available scalar reference table (every entry non-null).
const KernelTable& scalar_kernels();

/// Every compiled-in backend, in preference order (scalar first), with its
/// runtime availability. Unavailable backends (e.g. an AVX2 build running on
/// a non-AVX2 CPU) are listed but cannot be selected.
std::vector<BackendDesc> registered_backends();

/// Names of the backends that can actually run here.
std::vector<std::string> available_backends();

/// Select a backend by name. Returns false (and changes nothing) when the
/// name is unknown or the CPU lacks the ISA. This is a testing/bench hook —
/// production selection happens once via WA_BACKEND / feature detection. Not
/// safe to race with in-flight forwards: switch between runs, not during.
bool set_backend(const std::string& name);

/// Name of the active table (resolving it on first use).
std::string active_backend();

}  // namespace wa::backend::simd
