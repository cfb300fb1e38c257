// Int8 deployment pipeline: run a trained (QAT) network entirely with the
// integer backend kernels.
//
// This is the end of the paper's story: winograd-aware training exists so
// that the *deployed* network can execute Winograd convolutions in int8 on
// integer hardware. The pipeline freezes the scales the training observers
// learned, folds biases, and executes conv / relu / pool / linear stages on
// int8 levels, with int32 accumulators and fixed-point requantization —
// the contract the integration tests check against the QAT forward pass.
//
// Topology is a compiled graph, not just a stage list: every stage reads
// from named activation slots (an empty name chains it to the previous
// stage's output, so sequential pipelines look exactly like before) and can
// publish its result under a name for later consumers. That is what lets a
// residual network deploy: the block input is published once, the main path
// chains through conv/bn stages, and an AddStage joins it with the skip
// branch — requantizing both onto a common scale with fixed-point
// multipliers — before ReLU.
//
// On top of the compiled graph sits a compiler middle-end
// (src/deploy/passes, passes::optimize_pipeline): it fuses standalone
// relu / requant / batch-norm stages into their producing conv/linear/add
// stage (as in-place *epilogue ops*, so the intermediate tensor never
// round-trips through a slot), eliminates dead stages, and computes a
// static memory plan — which stages write their output over a dying operand
// (in-place residual add where a branch dies at the join, in-place
// convolution where the input dies inside the kernel) and the resulting
// peak activation byte count. The plan travels with the pipeline (the .wam
// plan section) and run() honors it; optimized execution is bit-identical
// to unoptimized execution (locked down by tests/test_pipeline_fuzz.cpp).
//
// Two compilers are provided: compile_lenet (sequential, the paper's
// 5x5-filter model) and compile_resnet18 (residual, the paper's
// pool-instead-of-stride ResNet-18 — Tables 2-3's workload).
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "backend/conv_kernels_s8.hpp"
#include "deploy/int8_ops.hpp"
#include "models/lenet.hpp"
#include "models/resnet.hpp"
#include "models/resnext.hpp"
#include "models/squeezenet.hpp"
#include "telemetry/trace.hpp"

namespace wa::deploy {

/// One convolution stage with frozen quantization parameters.
struct ConvStage {
  nn::ConvAlgo algo = nn::ConvAlgo::kIm2row;
  std::int64_t in_channels = 0;
  std::int64_t out_channels = 0;
  std::int64_t kernel = 3;
  std::int64_t pad = 1;
  std::int64_t groups = 1;  // grouped conv (ResNeXt cardinality); divides C and K
  std::int64_t stride = 1;  // 1, or 2 for the polyphase strided-Winograd path
  float input_scale = 0.F;         // activation scale frozen from the observer
  backend::QTensor weights_q;      // int8 weights (GEMM path), [K, C/g, r, r]
  Tensor weights_f;                // fp32 weights (Winograd path transforms live)
  wino::Transforms transforms;     // Winograd only (possibly learned/dense)
  backend::WinogradStageScales stage_scales;  // Winograd only
  float output_scale = -1.F;       // frozen Qx(y) scale
  Tensor bias;                     // may be empty
  Tensor sparse_mask;              // winograd_prune tap mask [g, t², K/g, C/g]; empty = dense
  bool relu_after = false;

  // Weight caches built once at load (Int8Pipeline::push calls prepare()):
  // the Winograd path never recomputes U = G g Gᵀ per forward, the GEMM path
  // never re-transposes its weight matrix per forward. A stride-2 Winograd
  // stage builds the polyphase cache (strided_cache) instead of wino_cache.
  backend::WinogradWeightsS8 wino_cache;
  backend::StridedWinogradWeightsS8 strided_cache;
  backend::Im2rowWeightsS8 im2row_cache;
  bool prepared() const {
    return !wino_cache.empty() || !strided_cache.empty() || !im2row_cache.empty();
  }
  void prepare();
};

struct PoolStage {
  std::int64_t kernel = 2;
  std::int64_t stride = 2;
};

struct FlattenStage {};

/// Global average pool [N,C,H,W] -> [N,C] on levels (global_avg_pool_s8).
struct AvgPoolStage {};

struct LinearStage {
  float input_scale = 0.F;
  backend::QTensor weights_q;
  Tensor bias;
  float output_scale = -1.F;
  bool relu_after = false;

  // Packed [F, O] weights built once at Int8Pipeline::push — the per-forward
  // GEMM never re-transposes the weight matrix.
  LinearWeightsS8 packed;
  bool prepared() const { return !packed.empty(); }
  void prepare();
};

/// Deployed batch-norm: per-channel integer affine on levels. Used when the
/// producing convolution's output scale is pinned by a training-time
/// observer (the Winograd Qx(y) stage), where folding gamma into the weights
/// would invalidate the frozen per-stage scales. GEMM convolutions fold
/// batch-norm into their weights at compile time instead and never emit this
/// stage. The fusion pass folds a chained BnStage into its producer as an
/// in-place affine epilogue.
struct BnStage {
  float input_scale = 0.F;   // expected incoming scale
  Tensor scale;              // per-channel A = gamma / sqrt(var + eps)
  Tensor bias;               // per-channel B = beta - A * mean
  float output_scale = -1.F;
  bool relu_after = false;

  ChannelAffineS8 affine;  // prepared at push
  bool prepared() const { return !affine.empty(); }
  void prepare();
};

/// Level-aligned residual join: requantizes both branches onto output_scale
/// with fixed-point multipliers, sums in int64, optionally fuses ReLU.
struct AddStage {
  float lhs_scale = 0.F;  // expected scale of the first operand
  float rhs_scale = 0.F;  // expected scale of the second operand
  float output_scale = -1.F;
  bool relu_after = true;

  RequantRatio lhs_ratio, rhs_ratio;  // prepared at push
  bool prepared_ = false;
  bool prepared() const { return prepared_; }
  void prepare();
};

/// Channel-concatenation join (the SqueezeNet fire-module merge): requantizes
/// both operands onto output_scale with fixed-point multipliers and writes
/// them into adjacent channel ranges of a fresh [N, C1+C2, H, W] tensor —
/// the level-aligned mirror of AddStage for fan-in by concatenation.
struct ConcatStage {
  float lhs_scale = 0.F;  // expected scale of the first operand
  float rhs_scale = 0.F;  // expected scale of the second operand
  float output_scale = -1.F;
  bool relu_after = false;

  RequantRatio lhs_ratio, rhs_ratio;  // prepared at push
  bool prepared_ = false;
  bool prepared() const { return prepared_; }
  void prepare();
};

/// Standalone ReLU on levels: max(0, x), scale unchanged (exact — symmetric
/// quantization maps level 0 to real 0). The compilers fuse ReLU into their
/// conv/linear stages via relu_after; this stage exists for hand-assembled
/// graphs and is folded into its producer by the fusion pass.
struct ReluStage {};

/// Standalone fixed-point requantization: remap int8 levels from
/// input_scale to output_scale through a prepared Q31 multiplier (the same
/// primitive AddStage uses per branch). Folded into its producer by the
/// fusion pass so the remapped tensor never round-trips through a slot.
struct RequantStage {
  float input_scale = 0.F;
  float output_scale = -1.F;

  RequantRatio ratio;  // prepared at push
  bool prepared_ = false;
  bool prepared() const { return prepared_; }
  void prepare();
};

using Stage = std::variant<ConvStage, PoolStage, FlattenStage, AvgPoolStage, LinearStage,
                           BnStage, AddStage, ReluStage, RequantStage, ConcatStage>;

/// Dataflow wiring of one stage. Empty `input` reads the previous stage's
/// output (sequential chaining); a named input reads an activation slot
/// published by an earlier stage. `input2` is the second operand of a
/// two-operand join (AddStage / ConcatStage — required there, rejected
/// elsewhere). A named `output` publishes the result into a slot for later
/// consumers instead of chaining it.
struct StageIO {
  std::string input;
  std::string input2;
  std::string output;
  std::string label;  // for error messages and per-stage profiling
};

/// One fused post-op applied IN PLACE to a producing stage's int8 output —
/// what the fusion pass turns a standalone ReluStage / RequantStage /
/// BnStage into. Applying the epilogue list in order is arithmetically
/// identical to running the folded stages standalone (same element ops, same
/// rounding); the only difference is that no intermediate tensor is
/// materialized into a slot.
struct EpilogueOp {
  enum class Kind : std::uint8_t { kRelu = 0, kRequant = 1, kAffine = 2 };
  Kind kind = Kind::kRelu;
  // kRequant: fixed-point remap onto out_scale.
  RequantRatio ratio;
  float out_scale = -1.F;
  // kAffine: per-channel integer affine (deployed batch-norm), optional
  // fused ReLU; the affine carries its own out_scale.
  ChannelAffineS8 affine;
  bool relu = false;
};

/// Per-stage wall-clock of one profiled forward (Int8Pipeline::run).
struct StageTiming {
  std::string label;
  double ms = 0.0;
};

/// Static memory plan computed by the planner (src/deploy/passes) for a
/// reference input shape: which stages write their output over a dying
/// operand, and the peak activation bytes with and without those rewrites.
/// Activation bytes are the int8 tensors that travel BETWEEN stages;
/// kernel-internal scratch (the per-thread ScratchArena) is accounted
/// separately and unchanged by the plan.
struct MemoryPlan {
  Shape reference_input;  // shape the peaks were computed for
  /// Per stage: 0 = fresh output buffer, 1 = write the output into the first
  /// operand's storage, 2 = into the second operand's (AddStage only). Only
  /// honored when the operand actually dies at this stage and fits.
  std::vector<std::uint8_t> in_place;
  std::int64_t peak_bytes = 0;        // planned live-byte high-water (run() measures this)
  std::int64_t naive_peak_bytes = 0;  // same schedule without the plan, reference shape
};

/// Counters one run() fills when asked: measured activation-buffer traffic.
/// peak_activation_bytes is the high-water mark of live inter-stage buffers
/// (by vector capacity), the quantity MemoryPlan::peak_bytes predicts.
/// Kernel-internal scratch is excluded by definition — in particular the
/// blocked Winograd executor's per-thread tile slab (conv_kernels_s8.hpp)
/// lives in the ScratchArena, not in an inter-stage buffer, so the
/// measured-peak == planned-peak equality holds on both executor paths.
struct RunStats {
  std::int64_t peak_activation_bytes = 0;
  std::int64_t allocated_bytes = 0;  // fresh activation buffers allocated
  std::int64_t inplace_reuses = 0;   // outputs written into a dying operand
  std::int64_t input_copies = 0;     // borrowed inputs copied for a rescale
};

/// A compiled integer-only network: the deployment-side inference engine.
///
/// push() finalises each stage at load time (weight transform + quantize +
/// repack happen exactly once); run() then executes the scatter -> batched
/// GEMM -> gather hot path allocation-free out of per-thread scratch arenas,
/// resolving slot reads/writes as it walks the schedule and honoring the
/// memory plan's buffer reuse when one is attached.
///
/// ## Thread-safety contract (audited for the serving runtime, src/serve)
///
/// `run()`, `run_batched()` and `classify()` are safe to call concurrently
/// from any number of threads on the same pipeline, because the const run
/// path touches no shared mutable state:
///   - stages, epilogues and the memory plan are immutable after
///     push()/freeze_scales()/set_plan() — the run loop only reads frozen
///     scales, prepared weight caches and fixed-point multipliers;
///   - every intermediate (activation slots, lowered patch matrices, int32
///     accumulators, Winograd V/M/Y tiles) is either a local QTensor or
///     lives in the calling thread's ScratchArena (one bump allocator per
///     OS thread, including OpenMP workers — growth never crosses threads);
///   - the plan's in-place reuse rewires buffers that are themselves
///     per-call locals, so concurrent runs never share an activation;
///   - the only global writes are the backend::PerfCounters relaxed atomics,
///     which are monotone counters: concurrent bumps cannot tear, and a
///     flat window observed around concurrent forwards proves no thread
///     re-transformed or repacked weights;
///   - per-stage timing goes only to the caller's StageTiming vector and,
///     for traced runs, into the tracer's per-thread rings, so concurrent
///     runs never race on it;
///   - stages with *dynamic* scales (output_scale <= 0, resolved from each
///     batch's own statistics) are still data-race-free — the derived scale
///     is a per-call local — but they are batch-composition dependent, so a
///     server must freeze_scales() before coalescing unrelated requests.
/// The mutating members — push(), freeze_scales(), set_plan() — are NOT safe
/// to race with anything, including each other: complete all
/// loading/freezing/optimizing before publishing the pipeline to worker
/// threads (the server does this under its registry lock).
class Int8Pipeline {
 public:
  /// One compiled stage plus its dataflow wiring and fused epilogue ops;
  /// exposed read-only so the artifact writer (src/serve) can serialize a
  /// pipeline stage-by-stage and the passes (src/deploy/passes) can rewrite
  /// the graph.
  struct Node {
    Stage op;
    StageIO io;
    std::vector<EpilogueOp> epilogue;
  };

  void push(Stage s) { push(std::move(s), StageIO{}); }
  void push(Stage s, StageIO io) { push(std::move(s), std::move(io), {}); }
  /// Full form: the loader and the passes re-push nodes with their fused
  /// epilogues. The new node alone is checked against the published slots
  /// with resolve_wiring's rules (minus the dead-slot rule) and its stage
  /// prepared; if either throws, the pipeline (nodes, slots and plan) is
  /// left as it was. A successful push invalidates any attached memory plan
  /// (stage indices shift); re-run the planner afterwards.
  void push(Stage s, StageIO io, std::vector<EpilogueOp> epilogue);
  std::size_t size() const { return nodes_.size(); }
  const std::vector<Node>& nodes() const { return nodes_; }
  /// Move the node list out (leaving the pipeline empty, plan cleared) so a
  /// pass can rewrite the graph without copying the weight caches; re-push
  /// the rewritten nodes to re-validate the wiring.
  std::vector<Node> take_nodes();

  /// Dataflow wiring resolved to value indices: value 0 is the quantized
  /// pipeline input, value i+1 is stage i's output. Throws
  /// std::invalid_argument (labeled with the stage) for graphs whose wiring
  /// is inconsistent — including, when `reject_dead` (the default, what
  /// run() enforces), published slots no stage ever consumes. The
  /// dead-stage-elimination pass resolves with reject_dead = false to find
  /// and remove exactly those stages.
  struct Wiring {
    std::vector<std::int32_t> in1;       // per stage: first operand value, -1 none
    std::vector<std::int32_t> in2;       // per stage: second operand value, -1 none
    std::vector<std::int32_t> last_use;  // per value: last consuming stage, -1 never
    std::vector<std::int32_t> use_count; // per value
  };
  Wiring resolve_wiring(bool reject_dead = true) const;

  /// Attach / inspect the static memory plan (computed by
  /// passes::optimize_pipeline). set_plan validates the plan's dimensions
  /// against the current schedule and throws std::invalid_argument on
  /// mismatch. run() honors the plan's in-place marks; a pipeline without a
  /// plan executes every stage into a fresh buffer (the planner-off
  /// baseline).
  void set_plan(MemoryPlan plan);
  const MemoryPlan* plan() const { return plan_.has_value() ? &*plan_ : nullptr; }

  /// Run a float input end-to-end; returns dequantized logits [N, classes].
  /// Activations stay int8 between stages. When `timings` is non-null it is
  /// filled with one entry per stage (label + milliseconds); when `stats` is
  /// non-null it is filled with this run's activation-memory counters.
  ///
  /// A valid `trace` context makes the run emit one `stage:<label>` span per
  /// stage plus scatter/gemm/requant/gather sub-spans for blocked Winograd
  /// convs into the telemetry tracer — logits are bit-identical traced or
  /// not (timing never touches the arithmetic).
  Tensor run(const Tensor& input, std::vector<StageTiming>* timings = nullptr,
             RunStats* stats = nullptr, telemetry::TraceContext trace = {}) const;

  /// run() with the batch split into micro-batches of at most `micro_batch`
  /// inputs. Caps the activation working set so a serving-sized batch stays
  /// inside the cache hierarchy (and inside a bounded arena) instead of
  /// scaling every intermediate with the full batch. micro_batch <= 0 runs
  /// the whole batch at once.
  ///
  /// Bit-identical to run() — and per-sample independent of how samples are
  /// grouped — which is only well-defined when every stage scale is frozen
  /// (> 0). A stage left with a dynamic scale (e.g. the final logits stage
  /// of compile_lenet) would derive it from each micro-batch's own
  /// statistics, letting coalesced batches of unrelated requests perturb
  /// each other's logits; splitting such a pipeline therefore throws
  /// std::invalid_argument naming the offending stages. Call
  /// freeze_scales() first (the serving load path does).
  Tensor run_batched(const Tensor& input, std::int64_t micro_batch) const;

  /// Argmax class per batch row.
  std::vector<std::int64_t> classify(const Tensor& input) const;

  /// Labels of stages whose output is NOT deterministic per sample: any
  /// stage with a dynamic output scale (output_scale <= 0, requantized from
  /// each batch's accumulator abs-max), a Winograd stage with a dynamic
  /// internal V/M scale, or a dynamic pipeline input scale (the input
  /// quantizer derives its scale from the whole batch). Empty means run()
  /// results are independent of batch composition.
  std::vector<std::string> dynamic_scale_labels() const;
  bool all_scales_frozen() const { return dynamic_scale_labels().empty(); }

  /// Comma-join of stage labels (e.g. dynamic_scale_labels()) for
  /// diagnostics — shared by the engine and the serving registry so their
  /// error messages stay in step.
  static std::string join_labels(const std::vector<std::string>& labels);

  /// Freeze every dynamic *output* scale (and the input quantizer's scale)
  /// to the value one forward over `calibration` derives, making every later
  /// run() batch-composition independent and run_batched() bit-identical to
  /// run(). A forward over the calibration batch itself is bit-identical
  /// before and after freezing (the captured scale is exactly the scale
  /// that forward derived). Winograd stages with dynamic *internal* scales
  /// (input_transformed / hadamard <= 0) cannot be frozen from the outside
  /// — those scales never leave the kernel — so they throw here: deploy
  /// them with observer-frozen stage scales as compile_lenet /
  /// compile_resnet18 do. Not thread-safe; call before publishing the
  /// pipeline to workers. Freeze BEFORE running the optimizer: fusion and
  /// the planner's copy analysis key off frozen scales.
  void freeze_scales(const Tensor& calibration);

 private:
  Tensor run_impl(const Tensor& input, std::vector<StageTiming>* timings,
                  std::vector<float>* out_scales, RunStats* stats,
                  telemetry::TraceContext trace) const;

  std::vector<Node> nodes_;
  /// Published slot -> value index (i + 1 for stage i) over nodes_: push()
  /// checks a new stage against it and extends it, take_nodes() clears it.
  std::map<std::string, std::int32_t> slots_;
  std::optional<MemoryPlan> plan_;
};

/// Readable stage position for error messages: the io label when set, else
/// "stage <i> (<type>)". Shared by the engine, the passes and the loaders.
std::string stage_where(const Int8Pipeline::Node& node, std::size_t index);

/// Whether remapping levels from `current` onto `target` would change them —
/// the exact complement of rescale_s8's identity short-circuit. The executor
/// uses it to decide when a borrowed activation must be copied, and the
/// memory planner MUST use the same predicate so its copy analysis matches
/// execution byte for byte.
bool rescale_changes_levels(float current, float target);

/// Compile a trained LeNet-5 (any conv algorithm, any flex/static
/// transforms) into an integer pipeline. The model must have been trained
/// or calibrated with qspec INT8 so its observers carry ranges; call
/// model.set_training(false) first. Throws std::invalid_argument when a
/// layer type is not supported or observers were never warmed up.
Int8Pipeline compile_lenet(models::LeNet5& model);

/// Compile a trained (or calibrated) ResNet-18 — the paper's
/// pool-instead-of-stride variant — into an integer pipeline: residual
/// skip-adds run level-aligned in int8, projection shortcuts and the stem
/// fold their batch-norm into the quantized weights, Winograd block convs
/// keep their frozen per-stage Qx scales and apply batch-norm as a
/// per-channel integer affine. Same calibration requirements as
/// compile_lenet (block branch observers included).
Int8Pipeline compile_resnet18(models::ResNet18& model);

/// Compile a trained (or calibrated) SqueezeNet: each fire module deploys as
/// squeeze conv → two parallel expand convs reading the published squeeze
/// slot → ConcatStage joining them level-aligned on the concat observer's
/// scale → integer batch-norm + ReLU. The expand-3x3 convs keep whatever
/// algorithm the model was built with (im2row or Winograd, per-tap included).
Int8Pipeline compile_squeezenet(models::SqueezeNet& model);

/// Compile a trained (or calibrated) ResNeXt-20: the compile_resnet18
/// residual pattern with grouped 3x3 bottleneck convs (cardinality groups
/// dispatch group-wise through both int8 executors).
Int8Pipeline compile_resnext(models::ResNeXt20& model);

}  // namespace wa::deploy
