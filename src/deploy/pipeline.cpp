#include "deploy/pipeline.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <stdexcept>
#include <utility>

#include "backend/bn_fold.hpp"
#include "core/wa_conv2d.hpp"

namespace wa::deploy {

using backend::QTensor;

namespace {

/// Remap int8 levels from one scale to another (identity when they match).
QTensor rescale_s8(QTensor x, float target_scale) {
  if (target_scale <= 0.F || std::fabs(x.scale - target_scale) < 1e-12F) return x;
  const float ratio = x.scale / target_scale;
  for (auto& v : x.data) {
    const float q = std::nearbyint(static_cast<float>(v) * ratio);
    v = static_cast<std::int8_t>(std::min(127.F, std::max(-127.F, q)));
  }
  x.scale = target_scale;
  return x;
}

std::string stage_type_name(const Stage& s) {
  return std::visit(
      [](const auto& st) -> std::string {
        using T = std::decay_t<decltype(st)>;
        if constexpr (std::is_same_v<T, ConvStage>) return "conv";
        else if constexpr (std::is_same_v<T, PoolStage>) return "max-pool";
        else if constexpr (std::is_same_v<T, FlattenStage>) return "flatten";
        else if constexpr (std::is_same_v<T, AvgPoolStage>) return "avg-pool";
        else if constexpr (std::is_same_v<T, LinearStage>) return "linear";
        else if constexpr (std::is_same_v<T, BnStage>) return "batch-norm";
        else if constexpr (std::is_same_v<T, AddStage>) return "add";
        else if constexpr (std::is_same_v<T, ConcatStage>) return "concat";
        else if constexpr (std::is_same_v<T, ReluStage>) return "relu";
        else return "requant";
      },
      s);
}

void expect(bool cond, const std::string& where, const std::string& msg) {
  if (!cond) throw std::invalid_argument(where + ": " + msg);
}

backend::ConvGeometry conv_geometry(const ConvStage& st, const Shape& in_shape) {
  backend::ConvGeometry g;
  g.batch = in_shape[0];
  g.in_channels = st.in_channels;
  g.height = in_shape[2];
  g.width = in_shape[3];
  g.out_channels = st.out_channels;
  g.kernel = st.kernel;
  g.pad = st.pad;
  g.groups = st.groups;
  g.stride = st.stride;
  return g;
}

void check_conv_input(const ConvStage& st, const QTensor& x, const std::string& where) {
  // Validate the activation against the stage BEFORE building the geometry:
  // a mis-assembled pipeline (e.g. a conv fed a flattened [N, F] tensor)
  // must fail loudly here, not read past the end of the shape array.
  expect(x.shape.size() == 4, where,
         "convolution expects a 4-d [N,C,H,W] activation, got " + to_string(x.shape));
  expect(x.shape[1] == st.in_channels, where,
         "activation has " + std::to_string(x.shape[1]) + " channels, stage expects " +
             std::to_string(st.in_channels));
  const std::int64_t oh = (x.shape[2] + 2 * st.pad - st.kernel) / st.stride + 1;
  const std::int64_t ow = (x.shape[3] + 2 * st.pad - st.kernel) / st.stride + 1;
  expect(oh >= 1 && ow >= 1, where,
         "activation " + to_string(x.shape) + " is smaller than the " +
             std::to_string(st.kernel) + "x" + std::to_string(st.kernel) + " kernel");
}

}  // namespace

bool rescale_changes_levels(float current, float target) {
  return target > 0.F && std::fabs(current - target) >= 1e-12F;
}

std::string stage_where(const Int8Pipeline::Node& node, std::size_t index) {
  return node.io.label.empty()
             ? "stage " + std::to_string(index) + " (" + stage_type_name(node.op) + ")"
             : node.io.label;
}

void ConvStage::prepare() {
  if (nn::is_winograd(algo) && stride == 2) {
    // Stride-2 Winograd lowers through the polyphase cache — but only where
    // the decomposition actually wins. The polyphase executor trades GEMM
    // volume (7.25·C·K vs im2row's 9·C·K per output pixel) for a multi-pass
    // fp32 join, which loses below C=K≈288 (bench/zoo_deploy measured it at
    // 0.60x at C=K=64), and it cannot run grouped at all. The cost model
    // picks the winner at prepare time; the policy setter forces either path
    // for differential tests and benches.
    const auto policy = backend::strided_polyphase_policy();
    const bool use_poly =
        groups == 1 &&
        (policy == backend::StridedPolicy::kForcePolyphase ||
         (policy == backend::StridedPolicy::kAuto &&
          backend::strided_polyphase_profitable(in_channels, out_channels)));
    if (!use_poly) {
      // Fallback: requantize the fp32 taps and run the stage as a plain
      // strided im2row GEMM. The algo flips to kIm2row so the stage's
      // serialized cache kind (0) and algo stay consistent (.wam contract).
      algo = nn::ConvAlgo::kIm2row;
      if (output_scale <= 0.F && stage_scales.output > 0.F) output_scale = stage_scales.output;
      weights_q = backend::quantize_s8(weights_f);
      weights_f = Tensor();
      im2row_cache = backend::prepare_im2row_weights_s8(weights_q, groups);
      weights_q = backend::QTensor{};  // only the packed copy is consulted
      return;
    }
    // The phase-00 subplane conv runs F(m, 2) over the 2x2 even/even weight
    // taps, so the stage's training-time F(m, 3) transform set is replaced
    // by the canonical F(m, 2) one here (the rect phases use no transform
    // at all).
    if (transforms.r != 2) {
      transforms = wino::make_transforms(transforms.m > 0 ? transforms.m : 2, 2);
    }
    strided_cache = backend::prepare_strided_winograd_weights_s8(
        weights_f, transforms, stage_scales.weights_transformed);
    stage_scales.weights_transformed = strided_cache.u00.scale;
    weights_f = Tensor();  // only the cached phases are consulted from here on
  } else if (nn::is_winograd(algo)) {
    wino_cache = backend::prepare_winograd_weights_s8(
        weights_f, transforms, stage_scales.weights_transformed,
        stage_scales.weights_transformed_taps, groups,
        sparse_mask.numel() > 0 ? &sparse_mask : nullptr);
    // The derived scale is now frozen: per-forward scale rediscovery would
    // otherwise disagree with the cached levels. Per-tap U scales travel the
    // same way (the cache records the vector it baked).
    stage_scales.weights_transformed = wino_cache.scale;
    stage_scales.weights_transformed_taps = wino_cache.tap_scales;
    weights_f = Tensor();       // only the cached U is consulted from here on
    sparse_mask = Tensor();     // baked into the cache (zeroed U + tap_mask)
  } else {
    im2row_cache = backend::prepare_im2row_weights_s8(weights_q, groups);
    weights_q = backend::QTensor{};  // only the packed copy is consulted
  }
}

void LinearStage::prepare() {
  packed = prepare_linear_weights_s8(weights_q);
  weights_q = backend::QTensor{};  // only the packed copy is consulted
}

void BnStage::prepare() {
  if (input_scale <= 0.F || output_scale <= 0.F) {
    throw std::invalid_argument("BnStage: input and output scales must be frozen (> 0)");
  }
  affine = prepare_channel_affine_s8(scale, bias, input_scale, output_scale);
}

void AddStage::prepare() {
  if (output_scale <= 0.F) {
    throw std::invalid_argument("AddStage: output scale must be frozen (> 0)");
  }
  lhs_ratio = make_requant_ratio(lhs_scale, output_scale);
  rhs_ratio = make_requant_ratio(rhs_scale, output_scale);
  prepared_ = true;
}

void ConcatStage::prepare() {
  if (output_scale <= 0.F) {
    throw std::invalid_argument("ConcatStage: output scale must be frozen (> 0)");
  }
  lhs_ratio = make_requant_ratio(lhs_scale, output_scale);
  rhs_ratio = make_requant_ratio(rhs_scale, output_scale);
  prepared_ = true;
}

void RequantStage::prepare() {
  if (input_scale <= 0.F || output_scale <= 0.F) {
    throw std::invalid_argument("RequantStage: input and output scales must be frozen (> 0)");
  }
  ratio = make_requant_ratio(input_scale, output_scale);
  prepared_ = true;
}

namespace {

/// The per-stage wiring rules shared by resolve_wiring and push: resolves
/// stage i's operands (value indices, -1 none) against the slots published
/// by the stages before it, and checks that its own output slot is free.
/// Throws std::invalid_argument labeled with the stage.
std::pair<std::int32_t, std::int32_t> wire_stage(
    const Int8Pipeline::Node& node, std::size_t i, const Int8Pipeline::Node* prev,
    const std::map<std::string, std::int32_t>& slot_value) {
  // Error labels are built lazily: this resolution runs on every forward
  // and must stay allocation-lean on the success path.
  const auto where = [&node, i] { return stage_where(node, i); };
  const bool is_join = std::holds_alternative<AddStage>(node.op) ||
                       std::holds_alternative<ConcatStage>(node.op);
  if (is_join && node.io.input2.empty()) {
    throw std::invalid_argument(
        where() +
        ": a join stage (add/concat) needs a second operand — set io.input2 to a published "
        "slot");
  }
  if (!is_join && !node.io.input2.empty()) {
    throw std::invalid_argument(where() +
                                ": io.input2 is only meaningful for a join stage (add/concat)");
  }

  std::int32_t in1 = -1, in2 = -1;
  if (node.io.input.empty()) {
    if (prev != nullptr && !prev->io.output.empty()) {
      throw std::invalid_argument(where() +
                                  ": no implicit input — the previous stage publishes to slot '" +
                                  prev->io.output + "'; name it as io.input");
    }
    in1 = static_cast<std::int32_t>(i);
  } else {
    if (prev != nullptr && prev->io.output.empty()) {
      throw std::invalid_argument(where() + ": reading slot '" + node.io.input +
                                  "' would drop the previous stage's chained output — publish "
                                  "that output to a slot (io.output) or consume it implicitly");
    }
    const auto it = slot_value.find(node.io.input);
    if (it == slot_value.end()) {
      throw std::invalid_argument(where() + ": input slot '" + node.io.input +
                                  "' is not produced by any earlier stage");
    }
    in1 = it->second;
  }
  if (!node.io.input2.empty()) {
    const auto it = slot_value.find(node.io.input2);
    if (it == slot_value.end()) {
      throw std::invalid_argument(where() + ": input slot '" + node.io.input2 +
                                  "' is not produced by any earlier stage");
    }
    in2 = it->second;
  }
  if (!node.io.output.empty() && slot_value.count(node.io.output) != 0) {
    throw std::invalid_argument(where() + ": output slot '" + node.io.output +
                                "' is already taken");
  }
  return {in1, in2};
}

}  // namespace

void Int8Pipeline::push(Stage s, StageIO io, std::vector<EpilogueOp> epilogue) {
  Node node{std::move(s), std::move(io), std::move(epilogue)};
  // Graph sanity at load time: the wiring rules run() also applies, checked
  // for the new stage only against the slot table (minus the dead-slot rule:
  // a later stage may still read the slot), so loading stays linear in the
  // stage count.
  wire_stage(node, nodes_.size(), nodes_.empty() ? nullptr : &nodes_.back(), slots_);
  const std::string published = node.io.output;
  nodes_.push_back(std::move(node));
  try {
    // Finalise weight caches / fixed-point multipliers at load so no
    // forward ever pays for them.
    std::visit(
        [](auto& st) {
          using T = std::decay_t<decltype(st)>;
          if constexpr (std::is_same_v<T, ConvStage> || std::is_same_v<T, LinearStage> ||
                        std::is_same_v<T, BnStage> || std::is_same_v<T, AddStage> ||
                        std::is_same_v<T, ConcatStage> || std::is_same_v<T, RequantStage>) {
            if (!st.prepared()) st.prepare();
          }
        },
        nodes_.back().op);
    if (!published.empty()) slots_.emplace(published, static_cast<std::int32_t>(nodes_.size()));
  } catch (...) {
    nodes_.pop_back();
    throw;
  }
  // Any attached plan indexes the old schedule; growing the graph voids it.
  plan_.reset();
}

std::vector<Int8Pipeline::Node> Int8Pipeline::take_nodes() {
  plan_.reset();
  slots_.clear();
  std::vector<Node> out;
  out.swap(nodes_);
  return out;
}

Int8Pipeline::Wiring Int8Pipeline::resolve_wiring(bool reject_dead) const {
  const std::size_t n = nodes_.size();
  Wiring w;
  w.in1.assign(n, -1);
  w.in2.assign(n, -1);
  w.use_count.assign(n + 1, 0);
  w.last_use.assign(n + 1, -1);
  std::map<std::string, std::int32_t> slot_value;  // published slot -> value index

  for (std::size_t i = 0; i < n; ++i) {
    const Node& node = nodes_[i];
    const auto [in1, in2] = wire_stage(node, i, i > 0 ? &nodes_[i - 1] : nullptr, slot_value);
    w.in1[i] = in1;
    w.in2[i] = in2;
    if (!node.io.output.empty()) slot_value[node.io.output] = static_cast<std::int32_t>(i + 1);

    for (const std::int32_t v : {w.in1[i], w.in2[i]}) {
      if (v < 0) continue;
      ++w.use_count[static_cast<std::size_t>(v)];
      w.last_use[static_cast<std::size_t>(v)] = static_cast<std::int32_t>(i);
    }
  }

  // Only the final stage may publish without a reader (it is the result).
  if (reject_dead) {
    for (std::size_t i = 0; i + 1 < n; ++i) {
      if (!nodes_[i].io.output.empty() && w.use_count[i + 1] == 0) {
        throw std::invalid_argument(stage_where(nodes_[i], i) + ": published slot '" +
                                    nodes_[i].io.output +
                                    "' is never consumed — dead dataflow");
      }
    }
  }
  return w;
}

void Int8Pipeline::set_plan(MemoryPlan plan) {
  const auto bad = [](const std::string& why) {
    throw std::invalid_argument("Int8Pipeline::set_plan: " + why);
  };
  if (plan.in_place.size() != nodes_.size()) bad("in_place marks do not match the stage count");
  for (const std::uint8_t m : plan.in_place) {
    if (m > 2) bad("in_place mark out of range (0, 1 or 2)");
  }
  if (plan.peak_bytes < 0 || plan.naive_peak_bytes < 0) bad("negative byte totals");
  if (numel(plan.reference_input) <= 0 || plan.reference_input.size() != 4) {
    bad("reference input shape must be a non-empty [N,C,H,W]");
  }
  plan_ = std::move(plan);
}

Tensor Int8Pipeline::run(const Tensor& input, std::vector<StageTiming>* timings,
                         RunStats* stats, telemetry::TraceContext trace) const {
  return run_impl(input, timings, nullptr, stats, trace);
}

Tensor Int8Pipeline::run_impl(const Tensor& input, std::vector<StageTiming>* timings,
                              std::vector<float>* out_scales, RunStats* stats,
                              telemetry::TraceContext trace) const {
  if (nodes_.empty()) throw std::invalid_argument("Int8Pipeline::run: empty pipeline");
  const auto* first = std::get_if<ConvStage>(&nodes_.front().op);
  if (first == nullptr) {
    throw std::invalid_argument("Int8Pipeline::run: pipeline must start with a convolution");
  }
  const std::size_t n = nodes_.size();
  if (timings != nullptr) {
    timings->clear();
    timings->reserve(n);
  }

  const Wiring w = resolve_wiring();
  const MemoryPlan* plan =
      plan_.has_value() && plan_->in_place.size() == n ? &*plan_ : nullptr;

  // Values: 0 = quantized input, i+1 = stage i's output. Buffers are
  // accounted by capacity from materialization to last use; `live` tracks
  // the executor-owned activation bytes, `peak` their high-water mark (what
  // MemoryPlan::peak_bytes predicts for the reference shape).
  std::vector<QTensor> vals(n + 1);
  std::vector<std::int32_t> refs = w.use_count;
  std::vector<std::int64_t> caps(n + 1, 0);
  std::int64_t live = 0, peak = 0;
  RunStats rs;

  const auto record = [&](std::size_t v, QTensor&& t) {
    caps[v] = static_cast<std::int64_t>(t.data.capacity());
    live += caps[v];
    if (live > peak) peak = live;
    vals[v] = std::move(t);
  };
  const auto release = [&](std::int32_t v) {
    if (v < 0) return;
    if (--refs[static_cast<std::size_t>(v)] == 0) {
      live -= caps[static_cast<std::size_t>(v)];
      caps[static_cast<std::size_t>(v)] = 0;
      vals[static_cast<std::size_t>(v)] = QTensor{};
    }
  };

  {
    QTensor q = backend::quantize_s8(input, first->input_scale);
    if (out_scales != nullptr) {
      out_scales->assign(n + 1, -1.F);
      (*out_scales)[0] = q.scale;  // the input quantizer's (possibly derived) scale
    }
    rs.allocated_bytes += static_cast<std::int64_t>(q.data.capacity());
    record(0, std::move(q));
  }

  // The clock is read only for a caller that asked for timings or a trace.
  const bool timed = timings != nullptr || trace.valid();
  for (std::size_t i = 0; i < n; ++i) {
    const Node& node = nodes_[i];
    const std::string where = stage_where(node, i);
    const auto t0 =
        timed ? std::chrono::steady_clock::now() : std::chrono::steady_clock::time_point{};

    const std::int32_t v1 = w.in1[i], v2 = w.in2[i];
    const bool same_operand = v2 >= 0 && v1 == v2;
    // This stage performs the value's final read(s) — it may take ownership.
    const bool owned1 =
        !same_operand && refs[static_cast<std::size_t>(v1)] == 1;
    const bool owned2 =
        v2 >= 0 && !same_operand && refs[static_cast<std::size_t>(v2)] == 1;

    // Acquire an operand at the stage's expected scale. Owned operands are
    // moved (and rescaled in place); borrowed operands are passed by
    // reference, copied only when a rescale would mutate them (the value has
    // later readers at its original scale).
    QTensor held1, held2;
    std::int64_t copy_bytes = 0;
    const auto acquire = [&](std::int32_t v, bool owned, float expected,
                             QTensor& held) -> const QTensor* {
      QTensor& src = vals[static_cast<std::size_t>(v)];
      if (owned) {
        held = rescale_s8(std::move(src), expected);
        return &held;
      }
      if (rescale_changes_levels(src.scale, expected)) {
        held = src;  // later readers still need the original levels
        copy_bytes += static_cast<std::int64_t>(held.data.capacity());
        ++rs.input_copies;
        held = rescale_s8(std::move(held), expected);
        return &held;
      }
      return &src;
    };
    // A two-input join's operands (Add and Concat alike) at their branch
    // scales. x + x acquires the value once and materializes separate
    // copies only when the two branch scales actually diverge.
    const auto acquire_join = [&](float lhs_scale,
                                  float rhs_scale) -> std::pair<const QTensor*, const QTensor*> {
      if (!same_operand) {
        return {acquire(v1, owned1, lhs_scale, held1), acquire(v2, owned2, rhs_scale, held2)};
      }
      const bool owned = refs[static_cast<std::size_t>(v1)] == 2;
      const float scale = vals[static_cast<std::size_t>(v1)].scale;
      if (rescale_changes_levels(scale, lhs_scale) || rescale_changes_levels(scale, rhs_scale)) {
        held1 = vals[static_cast<std::size_t>(v1)];
        copy_bytes += static_cast<std::int64_t>(held1.data.capacity());
        ++rs.input_copies;
        held1 = rescale_s8(std::move(held1), lhs_scale);
        return {&held1, acquire(v1, owned, rhs_scale, held2)};
      }
      const QTensor* x = acquire(v1, owned, lhs_scale, held2);
      return {x, x};
    };

    const std::uint8_t mark = plan != nullptr ? plan->in_place[i] : 0;
    // Per-phase accumulator for traced Winograd convs; a null pointer keeps
    // the executors clock-free on untraced forwards.
    backend::WinoPhaseNs phase_ns;
    QTensor out;
    bool donated = false;       // the output took over an operand's buffer
    bool plan_donated = false;  // ... because the plan said so
    std::int32_t donor_v = -1;  // donated: the value whose buffer was consumed

    std::visit(
        [&](const auto& st) {
          using T = std::decay_t<decltype(st)>;
          if constexpr (std::is_same_v<T, ConvStage>) {
            const QTensor* x = acquire(v1, owned1, st.input_scale, held1);
            check_conv_input(st, *x, where);
            const backend::ConvGeometry g = conv_geometry(st, x->shape);
            std::vector<std::int8_t>* reuse = nullptr;
            if (mark == 1 && x == &held1 && owned1) {
              // The kernel fully consumes the input before materializing the
              // output, so the dying input's buffer either hosts the output
              // (fits) or is freed before the output is allocated (grow) —
              // either way the two never coexist.
              reuse = &held1.data;
              donated = plan_donated = true;
              donor_v = v1;
            }
            if (!st.strided_cache.empty()) {
              out = backend::strided_winograd_conv_s8_prepared(
                  *x, st.strided_cache, g, st.transforms, st.stage_scales,
                  st.bias.empty() ? nullptr : &st.bias, reuse);
            } else if (nn::is_winograd(st.algo)) {
              out = backend::winograd_conv_s8_prepared(*x, st.wino_cache, g, st.transforms,
                                                       st.stage_scales,
                                                       st.bias.empty() ? nullptr : &st.bias,
                                                       reuse,
                                                       trace.valid() ? &phase_ns : nullptr);
            } else {
              out = backend::im2row_conv_s8_prepared(*x, st.im2row_cache, g, st.output_scale,
                                                     st.bias.empty() ? nullptr : &st.bias,
                                                     reuse);
            }
            if (st.relu_after) out = relu_s8(std::move(out));
          } else if constexpr (std::is_same_v<T, PoolStage>) {
            const QTensor* x = acquire(v1, owned1, -1.F, held1);
            expect(x->shape.size() == 4, where,
                   "max-pool expects [N,C,H,W], got " + to_string(x->shape));
            out = max_pool_s8(*x, st.kernel, st.stride);
          } else if constexpr (std::is_same_v<T, FlattenStage>) {
            const QTensor* x = acquire(v1, owned1, -1.F, held1);
            if (x == &held1) {
              out = flatten_s8(std::move(held1));
              donated = true;  // pure metadata change — the buffer carries over
              donor_v = v1;
            } else {
              out = flatten_s8(*x);  // copy: the value has later readers
            }
          } else if constexpr (std::is_same_v<T, AvgPoolStage>) {
            const QTensor* x = acquire(v1, owned1, -1.F, held1);
            expect(x->shape.size() == 4, where,
                   "avg-pool expects [N,C,H,W], got " + to_string(x->shape));
            out = global_avg_pool_s8(*x);
          } else if constexpr (std::is_same_v<T, LinearStage>) {
            const QTensor* x = acquire(v1, owned1, st.input_scale, held1);
            expect(x->shape.size() == 2, where,
                   "linear expects a 2-d [N, F] activation, got " + to_string(x->shape) +
                       " (flatten or avg-pool first)");
            expect(x->shape[1] == st.packed.in_features, where,
                   "activation has " + std::to_string(x->shape[1]) +
                       " features, stage expects " + std::to_string(st.packed.in_features));
            out = linear_s8_prepared(*x, st.packed, st.bias, st.output_scale);
            if (st.relu_after) out = relu_s8(std::move(out));
          } else if constexpr (std::is_same_v<T, BnStage>) {
            const QTensor* x = acquire(v1, owned1, st.input_scale, held1);
            expect(x->shape.size() == 4 || x->shape.size() == 2, where,
                   "batch-norm expects [N,C,H,W] or [N,C], got " + to_string(x->shape));
            expect(x->shape[1] == st.scale.numel(), where,
                   "activation has " + std::to_string(x->shape[1]) +
                       " channels, batch-norm has " + std::to_string(st.scale.numel()));
            if (mark == 1 && x == &held1 && owned1) {
              channel_affine_s8_(held1, st.affine, st.relu_after);
              out = std::move(held1);
              donated = plan_donated = true;
              donor_v = v1;
            } else {
              out = channel_affine_s8(*x, st.affine, st.relu_after);
            }
          } else if constexpr (std::is_same_v<T, AddStage>) {
            const auto [lhs, rhs] = acquire_join(st.lhs_scale, st.rhs_scale);
            expect(lhs->shape == rhs->shape, where,
                   "skip-add branch shapes " + to_string(lhs->shape) + " vs " +
                       to_string(rhs->shape) + " do not match");
            if (mark == 1 && lhs == &held1 && owned1 && !same_operand) {
              add_s8_into(held1, *rhs, st.lhs_ratio, st.rhs_ratio, st.output_scale,
                          st.relu_after);
              out = std::move(held1);
              donated = plan_donated = true;
              donor_v = v1;
            } else if (mark == 2 && rhs == &held2 && owned2 && !same_operand) {
              add_s8_into(held2, *lhs, st.rhs_ratio, st.lhs_ratio, st.output_scale,
                          st.relu_after);
              out = std::move(held2);
              donated = plan_donated = true;
              donor_v = v2;
            } else {
              out = add_s8(*lhs, *rhs, st.lhs_ratio, st.rhs_ratio, st.output_scale,
                           st.relu_after);
            }
          } else if constexpr (std::is_same_v<T, ConcatStage>) {
            // Never in place: the output is strictly larger than either
            // operand, so the planner marks it 0 unconditionally.
            const auto [lhs, rhs] = acquire_join(st.lhs_scale, st.rhs_scale);
            expect(lhs->shape.size() == 4 && rhs->shape.size() == 4, where,
                   "concat expects 4-d [N,C,H,W] operands, got " + to_string(lhs->shape) +
                       " and " + to_string(rhs->shape));
            expect(lhs->shape[0] == rhs->shape[0] && lhs->shape[2] == rhs->shape[2] &&
                       lhs->shape[3] == rhs->shape[3],
                   where,
                   "concat branch shapes " + to_string(lhs->shape) + " vs " +
                       to_string(rhs->shape) + " disagree outside the channel axis");
            out = concat_s8(*lhs, *rhs, st.lhs_ratio, st.rhs_ratio, st.output_scale,
                            st.relu_after);
          } else if constexpr (std::is_same_v<T, ReluStage>) {
            const QTensor* x = acquire(v1, owned1, -1.F, held1);
            if (x == &held1) {
              out = relu_s8(std::move(held1));
              donated = true;
              donor_v = v1;
            } else {
              out = relu_s8(*x);  // by-value copy: the value has later readers
            }
          } else {  // RequantStage
            const QTensor* x = acquire(v1, owned1, st.input_scale, held1);
            if (x == &held1) {
              requant_s8_(held1, st.ratio, st.output_scale);
              out = std::move(held1);
              donated = true;
              if (owned1) donor_v = v1;  // else the rescale copy hosts it
            } else {
              held1 = *x;
              copy_bytes += static_cast<std::int64_t>(held1.data.capacity());
              ++rs.input_copies;
              requant_s8_(held1, st.ratio, st.output_scale);
              out = std::move(held1);
              donated = true;  // the copy itself becomes the output
            }
          }
        },
        node.op);

    // Fused epilogues: in-place post-ops on the producing stage's output —
    // arithmetically identical to the standalone stages they replaced.
    for (const EpilogueOp& ep : node.epilogue) {
      switch (ep.kind) {
        case EpilogueOp::Kind::kRelu:
          out = relu_s8(std::move(out));
          break;
        case EpilogueOp::Kind::kRequant:
          requant_s8_(out, ep.ratio, ep.out_scale);
          break;
        case EpilogueOp::Kind::kAffine:
          expect(out.shape.size() == 4 || out.shape.size() == 2, where,
                 "fused batch-norm expects [N,C,H,W] or [N,C], got " + to_string(out.shape));
          expect(out.shape[1] == static_cast<std::int64_t>(ep.affine.m0.size()), where,
                 "activation has " + std::to_string(out.shape[1]) +
                     " channels, fused batch-norm has " + std::to_string(ep.affine.m0.size()));
          channel_affine_s8_(out, ep.affine, ep.relu);
          break;
      }
    }

    if (timed) {
      const auto t1 = std::chrono::steady_clock::now();
      const auto dur_ns =
          std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count();
      if (timings != nullptr) {
        timings->push_back({where, static_cast<double>(dur_ns) / 1e6});
      }
      if (trace.valid()) {
        auto& tracer = telemetry::Tracer::instance();
        const std::int64_t ts0 = tracer.to_ns(t0);
        tracer.emit({"stage:" + where, "pipeline", trace.id, ts0, dur_ns, {}});
        // Blocked-Winograd phase breakdown: the accumulators are CPU-time
        // sums across the OpenMP team, so lay the four sub-spans out
        // proportionally inside the stage's wall-clock interval and carry
        // the raw nanoseconds in args.
        if (const std::int64_t total = phase_ns.total(); total > 0) {
          const char* names[4] = {"wino.scatter", "wino.gemm", "wino.requant", "wino.gather"};
          const std::int64_t ns[4] = {
              phase_ns.scatter.load(std::memory_order_relaxed),
              phase_ns.gemm.load(std::memory_order_relaxed),
              phase_ns.requant.load(std::memory_order_relaxed),
              phase_ns.gather.load(std::memory_order_relaxed)};
          std::int64_t cursor = ts0;
          for (int p = 0; p < 4; ++p) {
            const std::int64_t sub = dur_ns * ns[p] / total;
            tracer.emit({names[p], "kernel", trace.id, cursor, sub,
                         "\"cpu_ns\":" + std::to_string(ns[p])});
            cursor += sub;
          }
        }
      }
    }
    if (out_scales != nullptr) (*out_scales)[i + 1] = out.scale;

    // Peak accounting: while the stage ran, every not-yet-released input was
    // still live alongside any rescale copies and — unless the output took
    // over (or grow-replaced) an operand's buffer — the output itself. A
    // grow-donation frees the donor before the larger output is allocated,
    // so only the growth is additional.
    const auto out_cap = static_cast<std::int64_t>(out.data.capacity());
    const std::int64_t donor_cap = donor_v >= 0 ? caps[static_cast<std::size_t>(donor_v)] : out_cap;
    const std::int64_t transient =
        live + copy_bytes +
        (donated ? std::max<std::int64_t>(0, out_cap - donor_cap) : out_cap);
    if (transient > peak) peak = transient;
    // A fresh buffer was allocated unless the output genuinely reuses an
    // operand's storage (a grow-donation frees the donor and allocates anew).
    if (!donated || out_cap > donor_cap) rs.allocated_bytes += out_cap;
    if (plan_donated) ++rs.inplace_reuses;

    release(v1);
    if (v2 >= 0) release(v2);
    record(i + 1, std::move(out));
  }

  rs.peak_activation_bytes = peak;
  if (stats != nullptr) *stats = rs;
  return backend::dequantize(vals[n]);
}

Tensor Int8Pipeline::run_batched(const Tensor& input, std::int64_t micro_batch) const {
  if (input.dim() < 1) throw std::invalid_argument("Int8Pipeline::run_batched: scalar input");
  const std::int64_t n = input.size(0);
  if (micro_batch <= 0 || micro_batch >= n) return run(input);
  // Splitting re-derives every dynamic scale from each chunk's own
  // statistics, so two identical samples could quantize differently based on
  // which neighbours they were coalesced with. Serving cannot tolerate that;
  // reject deterministically instead of silently perturbing logits.
  if (const auto dynamic = dynamic_scale_labels(); !dynamic.empty()) {
    throw std::invalid_argument(
        "Int8Pipeline::run_batched: splitting a batch across stages with dynamic scales would "
        "make results depend on batch composition — freeze_scales() first (dynamic: " +
        join_labels(dynamic) + ")");
  }
  std::vector<Tensor> chunks;
  chunks.reserve(static_cast<std::size_t>((n + micro_batch - 1) / micro_batch));
  for (std::int64_t b0 = 0; b0 < n; b0 += micro_batch) {
    chunks.push_back(run(input.slice0(b0, std::min(n, b0 + micro_batch))));
  }
  return Tensor::concat(chunks, 0);
}

std::string Int8Pipeline::join_labels(const std::vector<std::string>& labels) {
  std::string out;
  for (const std::string& l : labels) out += (out.empty() ? "" : ", ") + l;
  return out;
}

std::vector<std::string> Int8Pipeline::dynamic_scale_labels() const {
  std::vector<std::string> out;
  const auto where = [this](std::size_t i) { return stage_where(nodes_[i], i); };
  if (!nodes_.empty()) {
    if (const auto* first = std::get_if<ConvStage>(&nodes_.front().op);
        first != nullptr && first->input_scale <= 0.F) {
      out.push_back(where(0) + ".input-quantizer");
    }
  }
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    std::visit(
        [&](const auto& st) {
          using T = std::decay_t<decltype(st)>;
          if constexpr (std::is_same_v<T, ConvStage>) {
            if (nn::is_winograd(st.algo)) {
              // The Winograd kernel reads its scales from stage_scales, not
              // output_scale; V/M are internal stages, Y is the output.
              if (st.stage_scales.input_transformed <= 0.F) out.push_back(where(i) + ".v");
              if (st.stage_scales.hadamard <= 0.F) out.push_back(where(i) + ".m");
              if (st.stage_scales.output <= 0.F) out.push_back(where(i) + ".y");
            } else if (st.output_scale <= 0.F) {
              out.push_back(where(i));
            }
          } else if constexpr (std::is_same_v<T, LinearStage>) {
            if (st.output_scale <= 0.F) out.push_back(where(i));
          }
          // Pool/flatten/avg-pool/relu pass levels through unchanged;
          // BnStage, AddStage and RequantStage refuse to prepare() without
          // frozen scales, and epilogues carry frozen scales by construction
          // (the fusion pass only folds stages whose scales are pinned).
        },
        nodes_[i].op);
  }
  return out;
}

void Int8Pipeline::freeze_scales(const Tensor& calibration) {
  if (all_scales_frozen()) return;
  // Internal Winograd scales (V, M) are derived inside the kernel and never
  // surfaced, so a calibration forward cannot capture them.
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const auto* st = std::get_if<ConvStage>(&nodes_[i].op);
    if (st == nullptr || !nn::is_winograd(st->algo)) continue;
    const std::string label =
        nodes_[i].io.label.empty() ? "stage " + std::to_string(i) : nodes_[i].io.label;
    // Per-tap stages must arrive fully frozen from training: a calibration
    // forward can no more capture one dynamic tap than a dynamic tensor
    // scale. Name the exact stage and tap so the fix is obvious.
    const auto check_taps = [&](const std::vector<float>& taps, const char* stage_name) {
      for (std::size_t ab = 0; ab < taps.size(); ++ab) {
        if (taps[ab] <= 0.F) {
          throw std::invalid_argument(
              "Int8Pipeline::freeze_scales: " + label + " Winograd stage " + stage_name +
              " tap " + std::to_string(ab) +
              " has a dynamic per-tap scale that only the kernel sees — per-tap scale vectors "
              "must arrive fully frozen from training");
        }
      }
    };
    check_taps(st->stage_scales.weights_transformed_taps, "U");
    check_taps(st->stage_scales.input_transformed_taps, "V");
    check_taps(st->stage_scales.hadamard_taps, "M");
    if (st->stage_scales.input_transformed <= 0.F || st->stage_scales.hadamard <= 0.F) {
      throw std::invalid_argument(
          "Int8Pipeline::freeze_scales: " + label +
          " has dynamic internal Winograd scales (V/M) that only the kernel sees — deploy it "
          "with observer-frozen stage scales (compile_lenet/compile_resnet18 do)");
    }
  }
  std::vector<float> scales;
  run_impl(calibration, nullptr, &scales, nullptr, {});
  if (auto* first = std::get_if<ConvStage>(&nodes_.front().op); first->input_scale <= 0.F) {
    first->input_scale = scales[0];
  }
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    std::visit(
        [&](auto& st) {
          using T = std::decay_t<decltype(st)>;
          if constexpr (std::is_same_v<T, ConvStage>) {
            if (st.output_scale <= 0.F) st.output_scale = scales[i + 1];
            if (nn::is_winograd(st.algo) && st.stage_scales.output <= 0.F) {
              st.stage_scales.output = scales[i + 1];
            }
          } else if constexpr (std::is_same_v<T, LinearStage>) {
            if (st.output_scale <= 0.F) st.output_scale = scales[i + 1];
          }
        },
        nodes_[i].op);
  }
}

std::vector<std::int64_t> Int8Pipeline::classify(const Tensor& input) const {
  const Tensor logits = run(input);
  const std::int64_t n = logits.size(0), classes = logits.numel() / n;
  std::vector<std::int64_t> out(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    std::int64_t best = 0;
    for (std::int64_t c = 1; c < classes; ++c) {
      if (logits.at(i * classes + c) > logits.at(i * classes + best)) best = c;
    }
    out[static_cast<std::size_t>(i)] = best;
  }
  return out;
}

// ---- compilers --------------------------------------------------------------

namespace {

const quant::QuantSpec kInt8{8};

float observer_scale_checked(const quant::RangeObserver& obs, const std::string& where) {
  if (!obs.initialized()) {
    throw std::invalid_argument("compile: observer never calibrated at " + where +
                                " — train or run a calibration pass first");
  }
  return obs.scale(kInt8);
}

ConvStage compile_conv(nn::Module& layer, const std::string& name, bool relu_after) {
  ConvStage st;
  st.relu_after = relu_after;
  if (auto* conv = dynamic_cast<nn::Conv2d*>(&layer)) {
    const auto& o = conv->options();
    st.algo = nn::ConvAlgo::kIm2row;
    st.in_channels = o.in_channels;
    st.out_channels = o.out_channels;
    st.kernel = o.kernel;
    st.pad = o.pad;
    st.groups = o.groups;
    st.input_scale = observer_scale_checked(conv->input_observer(), name);
    st.weights_q = backend::quantize_s8(conv->weight().value());
    if (conv->bias().defined()) st.bias = conv->bias().value();
    return st;
  }
  if (auto* wa = dynamic_cast<core::WinogradAwareConv2d*>(&layer)) {
    const auto& o = wa->options();
    st.algo = o.algo;
    st.in_channels = o.in_channels;
    st.out_channels = o.out_channels;
    st.kernel = o.kernel;
    st.pad = o.pad;
    st.groups = o.groups;
    // A winograd_prune mask rides along and is baked into the U cache (zeroed
    // taps + skip flags) when the stage prepares.
    if (wa->winograd_mask().numel() > 0) st.sparse_mask = wa->winograd_mask();
    st.input_scale = observer_scale_checked(wa->input_observer(), name);
    // Training transforms the fake-quantized weights (U = Q(G ŵ Gᵀ));
    // replicate that here or the deployed U drifts from the trained one.
    Tensor w = wa->weight().value();
    quant::fake_quant_(w, quant::scale_for(w.abs_max(), kInt8), kInt8);
    st.weights_f = std::move(w);
    // The layer's live transforms — learned ("flex") ones carry over as-is,
    // which is exactly how a dense learned transform reaches deployment.
    st.transforms.m = wa->output_tile();
    st.transforms.r = static_cast<int>(o.kernel);
    st.transforms.tile = wa->input_tile();
    st.transforms.g_mat = wa->g_mat().value();
    st.transforms.bt_mat = wa->bt_mat().value();
    st.transforms.at_mat = wa->at_mat().value();
    auto& stg = wa->stages();
    if (stg.per_tap()) {
      // Per-tap QAT: freeze each transform-domain stage to the expanded scale
      // vector its tap observer tracked — exactly the grid training quantized
      // against. The scalar fields carry tap 0 as a representative so every
      // "> 0 == frozen" predicate in deploy keeps working unchanged.
      const auto vector_checked = [](quant::TapRangeObserver& obs, const std::string& w) {
        if (!obs.configured() || !obs.initialized()) {
          throw std::invalid_argument("compile: per-tap observer never calibrated at " + w +
                                      " — train or run a calibration pass first");
        }
        return obs.scale_vector(kInt8).scales;
      };
      st.stage_scales.weights_transformed_taps = vector_checked(stg.u_taps, name + ".u");
      st.stage_scales.input_transformed_taps = vector_checked(stg.v_taps, name + ".v");
      st.stage_scales.hadamard_taps = vector_checked(stg.m_taps, name + ".m");
      st.stage_scales.weights_transformed = st.stage_scales.weights_transformed_taps.front();
      st.stage_scales.input_transformed = st.stage_scales.input_transformed_taps.front();
      st.stage_scales.hadamard = st.stage_scales.hadamard_taps.front();
    } else {
      st.stage_scales.weights_transformed = stg.u.scale(kInt8);
      st.stage_scales.input_transformed = observer_scale_checked(stg.v, name + ".v");
      st.stage_scales.hadamard = observer_scale_checked(stg.m, name + ".m");
    }
    st.stage_scales.output = observer_scale_checked(stg.y, name + ".y");
    st.output_scale = st.stage_scales.output;
    if (wa->options().bias) st.bias = wa->bias().value();
    return st;
  }
  throw std::invalid_argument("compile: unsupported conv layer type at " + name);
}

}  // namespace

Int8Pipeline compile_lenet(models::LeNet5& model) {
  model.set_training(false);
  Int8Pipeline pipe;

  // LeNet's forward order: conv1-relu-pool1, conv2-relu-pool2, flatten,
  // fc1-relu, fc2-relu, fc3. Children are registered in that order; pull
  // them out by name so a registration reshuffle fails loudly here.
  nn::Module* conv1 = nullptr;
  nn::Module* conv2 = nullptr;
  nn::MaxPool2d* pool1 = nullptr;
  nn::MaxPool2d* pool2 = nullptr;
  nn::Linear* fc1 = nullptr;
  nn::Linear* fc2 = nullptr;
  nn::Linear* fc3 = nullptr;
  for (const auto& [name, child] : model.named_children()) {
    if (name == "conv1") conv1 = child.get();
    if (name == "conv2") conv2 = child.get();
    if (name == "pool1") pool1 = dynamic_cast<nn::MaxPool2d*>(child.get());
    if (name == "pool2") pool2 = dynamic_cast<nn::MaxPool2d*>(child.get());
    if (name == "fc1") fc1 = dynamic_cast<nn::Linear*>(child.get());
    if (name == "fc2") fc2 = dynamic_cast<nn::Linear*>(child.get());
    if (name == "fc3") fc3 = dynamic_cast<nn::Linear*>(child.get());
  }
  if (!conv1 || !conv2 || !pool1 || !pool2 || !fc1 || !fc2 || !fc3) {
    throw std::invalid_argument("compile_lenet: model does not look like LeNet-5");
  }

  auto linear_stage = [](nn::Linear& fc, const std::string& name, bool relu) {
    LinearStage st;
    st.relu_after = relu;
    st.input_scale = observer_scale_checked(fc.input_observer(), name);
    st.weights_q = backend::quantize_s8(fc.weight().value());
    if (fc.bias().defined()) st.bias = fc.bias().value();
    return st;
  };

  ConvStage c1 = compile_conv(*conv1, "conv1", /*relu_after=*/true);
  ConvStage c2 = compile_conv(*conv2, "conv2", /*relu_after=*/true);
  LinearStage l1 = linear_stage(*fc1, "fc1", true);
  LinearStage l2 = linear_stage(*fc2, "fc2", true);
  LinearStage l3 = linear_stage(*fc3, "fc3", false);

  // Chain output scales to the consumer's expected input scale so the
  // inter-stage rescale is the identity (what a real compiler emits).
  c1.output_scale = c2.input_scale;
  c2.output_scale = l1.input_scale;
  l1.output_scale = l2.input_scale;
  l2.output_scale = l3.input_scale;
  // l3 keeps output_scale < 0: logits requantize from their own range.

  auto labelled = [](const char* label) {
    StageIO io;
    io.label = label;
    return io;
  };
  pipe.push(std::move(c1), labelled("conv1"));
  pipe.push(PoolStage{pool1->kernel(), pool1->stride()}, labelled("pool1"));
  pipe.push(std::move(c2), labelled("conv2"));
  pipe.push(PoolStage{pool2->kernel(), pool2->stride()}, labelled("pool2"));
  pipe.push(FlattenStage{}, labelled("flatten"));
  pipe.push(std::move(l1), labelled("fc1"));
  pipe.push(std::move(l2), labelled("fc2"));
  pipe.push(std::move(l3), labelled("fc3"));
  return pipe;
}

// ---- compile_resnet18 -------------------------------------------------------

namespace {

quant::RangeObserver& conv_input_observer(nn::Module& m, const std::string& name) {
  if (auto* c = dynamic_cast<nn::Conv2d*>(&m)) return c->input_observer();
  if (auto* w = dynamic_cast<core::WinogradAwareConv2d*>(&m)) return w->input_observer();
  throw std::invalid_argument("compile: unsupported conv layer type at " + name);
}

/// Per-channel batch-norm coefficients in real units: A = gamma * inv_std,
/// B = beta - A * mean.
void bn_coefficients(nn::BatchNorm2d& bn, Tensor* a, Tensor* b) {
  const Tensor& var = bn.running_var();
  const Tensor& mean = bn.running_mean();
  const Tensor gamma = bn.gamma().value();
  const Tensor beta = bn.beta().value();
  const std::int64_t c = var.numel();
  *a = Tensor(Shape{c});
  *b = Tensor(Shape{c});
  for (std::int64_t k = 0; k < c; ++k) {
    const float inv_std = 1.F / std::sqrt(var.at(k) + bn.eps());
    a->at(k) = gamma.at(k) * inv_std;
    b->at(k) = beta.at(k) - a->at(k) * mean.at(k);
  }
}

/// GEMM convolutions fold batch-norm into the quantized weights — the
/// standard deployment order (src/backend/bn_fold.hpp), valid because their
/// output scale is free to be anything the compiler chains.
ConvStage compile_folded_conv(nn::Conv2d& conv, nn::BatchNorm2d& bn, const std::string& name,
                              bool relu_after, float out_scale) {
  ConvStage st;
  st.relu_after = relu_after;
  const auto& o = conv.options();
  st.algo = o.algo;
  st.in_channels = o.in_channels;
  st.out_channels = o.out_channels;
  st.kernel = o.kernel;
  st.pad = o.pad;
  st.groups = o.groups;
  st.input_scale = observer_scale_checked(conv.input_observer(), name);
  const backend::FoldedConv folded = backend::fold_batchnorm(
      conv.weight().value(), conv.bias().defined() ? conv.bias().value() : Tensor(),
      bn.gamma().value(), bn.beta().value(), bn.running_mean(), bn.running_var(), bn.eps());
  st.weights_q = backend::quantize_s8(folded.weights);
  st.bias = folded.bias;
  st.output_scale = out_scale;
  return st;
}

BnStage make_bn_stage(nn::BatchNorm2d& bn, float in_scale, float out_scale, bool relu) {
  BnStage st;
  st.input_scale = in_scale;
  st.output_scale = out_scale;
  st.relu_after = relu;
  bn_coefficients(bn, &st.scale, &st.bias);
  return st;
}

/// Emit conv [+ batch-norm] onto the pipeline. GEMM convs fold the norm into
/// their weights; Winograd-aware convs must keep their frozen Qx scales (the
/// Hadamard/output observers saw the *unfolded* weights), so they emit the
/// conv at its trained y-scale followed by an integer per-channel affine.
void emit_conv_bn(Int8Pipeline& pipe, nn::Module& conv, nn::BatchNorm2d& bn,
                  const std::string& name, bool relu, float out_scale,
                  const std::string& input_slot) {
  if (auto* gemm = dynamic_cast<nn::Conv2d*>(&conv)) {
    StageIO io;
    io.input = input_slot;
    io.label = name + "+bn";
    pipe.push(compile_folded_conv(*gemm, bn, name, relu, out_scale), std::move(io));
    return;
  }
  ConvStage st = compile_conv(conv, name, /*relu_after=*/false);
  const float y_scale = st.stage_scales.output;
  StageIO cio;
  cio.input = input_slot;
  cio.label = name;
  pipe.push(std::move(st), std::move(cio));
  StageIO bio;
  bio.label = name + ".bn";
  pipe.push(make_bn_stage(bn, y_scale, out_scale, relu), std::move(bio));
}

}  // namespace

Int8Pipeline compile_resnet18(models::ResNet18& model) {
  model.set_training(false);
  Int8Pipeline pipe;
  const auto& blocks = model.blocks();
  if (blocks.empty()) throw std::invalid_argument("compile_resnet18: model has no blocks");

  // Stem: conv_in + bn_in fold, ReLU, published as the first block's input.
  const std::string stem_name = "conv_in";
  ConvStage stem = compile_folded_conv(
      model.conv_in(), model.bn_in(), stem_name, /*relu_after=*/true,
      observer_scale_checked(conv_input_observer(blocks[0]->conv1(), "stage1.block0.conv1"),
                             "stage1.block0.conv1"));
  std::string x_slot = "stem.out";
  float x_scale = stem.output_scale;
  {
    StageIO io;
    io.output = x_slot;
    io.label = stem_name + "+bn";
    pipe.push(std::move(stem), std::move(io));
  }

  for (std::size_t i = 0; i < blocks.size(); ++i) {
    models::BasicBlock& b = *blocks[i];
    const std::string name =
        "stage" + std::to_string(i / 2 + 1) + ".block" + std::to_string(i % 2);
    const bool last = i + 1 == blocks.size();
    const float out_scale = observer_scale_checked(b.output_observer(), name + ".out");
    const float main_scale = observer_scale_checked(b.main_branch_observer(), name + ".main");

    // ---- skip branch first, so the main path can chain implicitly ----
    std::string skip_slot = x_slot;  // identity skip reads the block input
    float skip_scale = x_scale;
    if (b.shortcut() != nullptr) {
      skip_slot = name + ".skip";
      skip_scale = observer_scale_checked(b.skip_branch_observer(), name + ".skip");
      std::string conv_input = x_slot;
      if (b.downsample()) {
        StageIO io;
        io.input = x_slot;
        io.label = name + ".pool_short";
        pipe.push(PoolStage{2, 2}, std::move(io));
        conv_input.clear();  // shortcut conv chains off the pooled skip
      }
      StageIO io;
      io.input = conv_input;
      io.output = skip_slot;
      io.label = name + ".shortcut+bn";
      pipe.push(
          compile_folded_conv(*b.shortcut(), *b.bn_short(), name + ".shortcut",
                              /*relu_after=*/false, skip_scale),
          std::move(io));
    } else if (b.downsample()) {
      // Identity skip across a downsample (impossible in the stock topology,
      // where every downsample changes channels, but cheap to support).
      skip_slot = name + ".skip";
      StageIO io;
      io.input = x_slot;
      io.output = skip_slot;
      io.label = name + ".pool_short";
      pipe.push(PoolStage{2, 2}, std::move(io));
    }

    // ---- main path: [pool] conv1+bn1+relu, conv2+bn2 ----
    std::string main_input = x_slot;
    if (b.downsample()) {
      StageIO io;
      io.input = x_slot;
      io.label = name + ".pool";
      pipe.push(PoolStage{2, 2}, std::move(io));
      main_input.clear();
    }
    const float conv2_in =
        observer_scale_checked(conv_input_observer(b.conv2(), name + ".conv2"), name + ".conv2");
    emit_conv_bn(pipe, b.conv1(), b.bn1(), name + ".conv1", /*relu=*/true, conv2_in, main_input);
    emit_conv_bn(pipe, b.conv2(), b.bn2(), name + ".conv2", /*relu=*/false, main_scale, "");

    // ---- level-aligned residual join ----
    AddStage add;
    add.lhs_scale = main_scale;
    add.rhs_scale = skip_scale;
    add.output_scale = out_scale;
    add.relu_after = true;
    StageIO io;
    io.input2 = skip_slot;
    if (!last) io.output = name + ".out";
    io.label = name + ".add";
    pipe.push(std::move(add), std::move(io));

    x_slot = name + ".out";
    x_scale = out_scale;
  }

  {
    StageIO io;
    io.label = "gap";
    pipe.push(AvgPoolStage{}, std::move(io));
  }
  LinearStage fc;
  fc.input_scale = observer_scale_checked(model.fc().input_observer(), "fc");
  fc.weights_q = backend::quantize_s8(model.fc().weight().value());
  if (model.fc().bias().defined()) fc.bias = model.fc().bias().value();
  // fc keeps output_scale < 0: logits requantize from their own range.
  {
    StageIO io;
    io.label = "fc";
    pipe.push(std::move(fc), std::move(io));
  }
  return pipe;
}

// ---- compile_squeezenet -----------------------------------------------------

Int8Pipeline compile_squeezenet(models::SqueezeNet& model) {
  model.set_training(false);
  Int8Pipeline pipe;
  const auto& fires = model.fires();
  if (fires.empty()) throw std::invalid_argument("compile_squeezenet: model has no fire modules");

  // Stem: conv_in + bn_in fold, ReLU, chains straight into fire0's squeeze.
  {
    ConvStage stem = compile_folded_conv(
        model.conv_in(), model.bn_in(), "conv_in", /*relu_after=*/true,
        observer_scale_checked(fires[0]->squeeze().input_observer(), "fire0.squeeze"));
    StageIO io;
    io.label = "conv_in+bn";
    pipe.push(std::move(stem), std::move(io));
  }

  const auto& pool_after = model.pool_after();
  for (std::size_t i = 0; i < fires.size(); ++i) {
    models::Fire& f = *fires[i];
    const std::string name = "fire" + std::to_string(i);

    // Squeeze 1x1 + ReLU publishes the module's fan-out slot: both expand
    // branches read it (the second reader rescales onto its own input scale
    // if the two observers disagree).
    {
      ConvStage sq = compile_conv(f.squeeze(), name + ".squeeze", /*relu_after=*/true);
      sq.output_scale = observer_scale_checked(f.expand1().input_observer(), name + ".expand1");
      StageIO io;
      io.output = name + ".s";
      io.label = name + ".squeeze";
      pipe.push(std::move(sq), std::move(io));
    }

    const float e1_scale = observer_scale_checked(f.expand1_observer(), name + ".e1");
    {
      ConvStage e1 = compile_conv(f.expand1(), name + ".expand1", /*relu_after=*/false);
      e1.output_scale = e1_scale;
      StageIO io;
      io.input = name + ".s";
      io.output = name + ".e1";
      io.label = name + ".expand1";
      pipe.push(std::move(e1), std::move(io));
    }

    ConvStage e3 = compile_conv(f.expand3(), name + ".expand3", /*relu_after=*/false);
    if (!nn::is_winograd(e3.algo)) {
      // The GEMM branch has a free output scale; Winograd keeps its frozen y.
      e3.output_scale = observer_scale_checked(f.expand3_observer(), name + ".e3");
    }
    const float e3_scale = e3.output_scale;
    {
      StageIO io;
      io.input = name + ".s";
      io.output = name + ".e3";
      io.label = name + ".expand3";
      pipe.push(std::move(e3), std::move(io));
    }

    // Level-aligned channel concat at the concat observer's scale, then the
    // module batch-norm as an integer per-channel affine with fused ReLU.
    const float cat_scale = observer_scale_checked(f.concat_observer(), name + ".concat");
    {
      ConcatStage cat;
      cat.lhs_scale = e1_scale;
      cat.rhs_scale = e3_scale;
      cat.output_scale = cat_scale;
      cat.relu_after = false;  // the bn stage fuses the module's ReLU
      StageIO io;
      io.input = name + ".e1";
      io.input2 = name + ".e3";
      io.label = name + ".concat";
      pipe.push(std::move(cat), std::move(io));
    }
    {
      const float out_scale = observer_scale_checked(f.output_observer(), name + ".out");
      StageIO io;
      io.label = name + ".bn";
      pipe.push(make_bn_stage(f.bn(), cat_scale, out_scale, /*relu=*/true), std::move(io));
    }

    if (std::find(pool_after.begin(), pool_after.end(), static_cast<int>(i)) !=
        pool_after.end()) {
      StageIO io;
      io.label = name + ".pool";
      pipe.push(PoolStage{model.pool().kernel(), model.pool().stride()}, std::move(io));
    }
  }

  {
    StageIO io;
    io.label = "gap";
    pipe.push(AvgPoolStage{}, std::move(io));
  }
  LinearStage fc;
  fc.input_scale = observer_scale_checked(model.fc().input_observer(), "fc");
  fc.weights_q = backend::quantize_s8(model.fc().weight().value());
  if (model.fc().bias().defined()) fc.bias = model.fc().bias().value();
  // fc keeps output_scale < 0: logits requantize from their own range.
  {
    StageIO io;
    io.label = "fc";
    pipe.push(std::move(fc), std::move(io));
  }
  return pipe;
}

// ---- compile_resnext --------------------------------------------------------

Int8Pipeline compile_resnext(models::ResNeXt20& model) {
  model.set_training(false);
  Int8Pipeline pipe;
  const auto& blocks = model.blocks();
  if (blocks.empty()) throw std::invalid_argument("compile_resnext: model has no blocks");

  // Stem: conv_in + bn_in fold, ReLU, published as the first block's input.
  ConvStage stem = compile_folded_conv(
      model.conv_in(), model.bn_in(), "conv_in", /*relu_after=*/true,
      observer_scale_checked(blocks[0]->reduce().input_observer(), "stage1.block0.reduce"));
  std::string x_slot = "stem.out";
  float x_scale = stem.output_scale;
  {
    StageIO io;
    io.output = x_slot;
    io.label = "conv_in+bn";
    pipe.push(std::move(stem), std::move(io));
  }

  for (std::size_t i = 0; i < blocks.size(); ++i) {
    models::ResNeXtBlock& b = *blocks[i];
    const std::string name =
        "stage" + std::to_string(i / 2 + 1) + ".block" + std::to_string(i % 2);
    const bool last = i + 1 == blocks.size();
    const float out_scale = observer_scale_checked(b.output_observer(), name + ".out");
    const float main_scale = observer_scale_checked(b.main_branch_observer(), name + ".main");

    // ---- skip branch first, so the main path can chain implicitly ----
    std::string skip_slot = x_slot;  // identity skip reads the block input
    float skip_scale = x_scale;
    if (b.shortcut() != nullptr) {
      skip_slot = name + ".skip";
      skip_scale = observer_scale_checked(b.skip_branch_observer(), name + ".skip");
      std::string conv_input = x_slot;
      if (b.downsample()) {
        StageIO io;
        io.input = x_slot;
        io.label = name + ".pool_short";
        pipe.push(PoolStage{2, 2}, std::move(io));
        conv_input.clear();  // shortcut conv chains off the pooled skip
      }
      StageIO io;
      io.input = conv_input;
      io.output = skip_slot;
      io.label = name + ".shortcut+bn";
      pipe.push(
          compile_folded_conv(*b.shortcut(), *b.bn_short(), name + ".shortcut",
                              /*relu_after=*/false, skip_scale),
          std::move(io));
    } else if (b.downsample()) {
      skip_slot = name + ".skip";
      StageIO io;
      io.input = x_slot;
      io.output = skip_slot;
      io.label = name + ".pool_short";
      pipe.push(PoolStage{2, 2}, std::move(io));
    }

    // ---- main path: [pool] reduce+bn1+relu, grouped conv3+bn2+relu,
    // expand+bn3 ----
    std::string main_input = x_slot;
    if (b.downsample()) {
      StageIO io;
      io.input = x_slot;
      io.label = name + ".pool";
      pipe.push(PoolStage{2, 2}, std::move(io));
      main_input.clear();
    }
    const float conv3_in =
        observer_scale_checked(conv_input_observer(b.conv3(), name + ".conv3"), name + ".conv3");
    {
      StageIO io;
      io.input = main_input;
      io.label = name + ".reduce+bn";
      pipe.push(compile_folded_conv(b.reduce(), b.bn1(), name + ".reduce",
                                    /*relu_after=*/true, conv3_in),
                std::move(io));
    }
    const float expand_in = observer_scale_checked(b.expand().input_observer(), name + ".expand");
    emit_conv_bn(pipe, b.conv3(), b.bn2(), name + ".conv3", /*relu=*/true, expand_in, "");
    {
      StageIO io;
      io.label = name + ".expand+bn";
      pipe.push(compile_folded_conv(b.expand(), b.bn3(), name + ".expand",
                                    /*relu_after=*/false, main_scale),
                std::move(io));
    }

    // ---- level-aligned residual join ----
    AddStage add;
    add.lhs_scale = main_scale;
    add.rhs_scale = skip_scale;
    add.output_scale = out_scale;
    add.relu_after = true;
    StageIO io;
    io.input2 = skip_slot;
    if (!last) io.output = name + ".out";
    io.label = name + ".add";
    pipe.push(std::move(add), std::move(io));

    x_slot = name + ".out";
    x_scale = out_scale;
  }

  {
    StageIO io;
    io.label = "gap";
    pipe.push(AvgPoolStage{}, std::move(io));
  }
  LinearStage fc;
  fc.input_scale = observer_scale_checked(model.fc().input_observer(), "fc");
  fc.weights_q = backend::quantize_s8(model.fc().weight().value());
  if (model.fc().bias().defined()) fc.bias = model.fc().bias().value();
  // fc keeps output_scale < 0: logits requantize from their own range.
  {
    StageIO io;
    io.label = "fc";
    pipe.push(std::move(fc), std::move(io));
  }
  return pipe;
}

}  // namespace wa::deploy
