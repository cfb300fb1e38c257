#include "serve/artifact.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "tensor/io.hpp"
#include "winograd/cook_toom.hpp"

namespace wa::serve {

using deploy::AddStage;
using deploy::AvgPoolStage;
using deploy::BnStage;
using deploy::ConcatStage;
using deploy::ConvStage;
using deploy::EpilogueOp;
using deploy::FlattenStage;
using deploy::Int8Pipeline;
using deploy::LinearStage;
using deploy::MemoryPlan;
using deploy::PoolStage;
using deploy::ReluStage;
using deploy::RequantStage;
using deploy::Stage;
using deploy::StageIO;

namespace {

constexpr std::uint32_t kWamMagic = 0x5741'4d50;  // "WAMP" (pipeline artifact)

// Stage tags are part of the on-disk format: append-only, never renumber.
enum class Tag : std::uint8_t {
  kConv = 0,
  kPool = 1,
  kFlatten = 2,
  kAvgPool = 3,
  kLinear = 4,
  kBn = 5,
  kAdd = 6,
  kRelu = 7,
  kRequant = 8,
  kConcat = 9,
};

std::uint64_t fnv1a64(const char* data, std::size_t n) {
  std::uint64_t h = 14695981039346656037ULL;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 1099511628211ULL;
  }
  return h;
}

void save_optional_tensor(std::ostream& os, const Tensor& t) {
  save_pod(os, static_cast<std::uint8_t>(t.empty() ? 0 : 1));
  if (!t.empty()) save_tensor(os, t);
}

Tensor load_optional_tensor(std::istream& is) {
  return load_pod<std::uint8_t>(is) != 0 ? load_tensor(is) : Tensor();
}

void save_ratio(std::ostream& os, const deploy::RequantRatio& r) {
  save_pod(os, r.mult.m0);
  save_pod(os, static_cast<std::int32_t>(r.mult.shift));
  save_pod(os, static_cast<std::uint8_t>(r.identity ? 1 : 0));
}

deploy::RequantRatio load_ratio(std::istream& is) {
  deploy::RequantRatio r;
  r.mult.m0 = load_pod<std::int32_t>(is);
  r.mult.shift = static_cast<int>(load_pod<std::int32_t>(is));
  r.identity = load_pod<std::uint8_t>(is) != 0;
  r.levels = deploy::requant_level_map(r.mult, r.identity);
  return r;
}

/// The affine's level maps are filled by computing 1 << (exp - 1) and
/// scaling the bias by 2^exp; prepare_channel_affine_s8 only ever emits exp
/// in [0, 46]. A checksum-valid artifact whose affine escaped that range
/// would reach shift UB while its maps are filled, so reject it first.
void check_affine_tables(const deploy::ChannelAffineS8& a, const char* what) {
  const std::size_t c = a.m0.size();
  if (c == 0 || a.exp.size() != c || a.bias_q.size() != c) {
    throw std::runtime_error(std::string("load_pipeline: ") + what +
                             " channel counts disagree");
  }
  for (const std::int8_t e : a.exp) {
    if (e < 0 || e > 46) {
      throw std::runtime_error(std::string("load_pipeline: ") + what +
                               " shift exponent out of range (0..46)");
    }
  }
}

// ---- per-stage bodies -------------------------------------------------------

void save_conv(std::ostream& os, const ConvStage& st) {
  if (!st.prepared()) {
    // nodes() only exposes pushed (hence prepared) stages; a raw stage here
    // would deserialize without its weight caches and run nothing.
    throw std::runtime_error("save_pipeline: conv stage was never prepared");
  }
  save_pod(os, static_cast<std::uint8_t>(st.algo));
  save_pod(os, st.in_channels);
  save_pod(os, st.out_channels);
  save_pod(os, st.kernel);
  save_pod(os, st.pad);
  save_pod(os, st.groups);
  save_pod(os, st.stride);
  save_pod(os, st.input_scale);
  save_pod(os, st.output_scale);
  save_pod(os, static_cast<std::uint8_t>(st.relu_after ? 1 : 0));
  save_pod(os, st.stage_scales.weights_transformed);
  save_pod(os, st.stage_scales.input_transformed);
  save_pod(os, st.stage_scales.hadamard);
  save_pod(os, st.stage_scales.output);

  // Cache kind: 0 = im2row, 1 = winograd, 2 = strided polyphase winograd.
  const std::uint8_t kind = !st.strided_cache.empty() ? 2 : (!st.wino_cache.empty() ? 1 : 0);
  save_pod(os, kind);
  if (kind == 1) {
    save_pod(os, static_cast<std::int32_t>(st.transforms.m));
    save_pod(os, static_cast<std::int32_t>(st.transforms.r));
    save_pod(os, static_cast<std::int32_t>(st.transforms.tile));
    save_tensor(os, st.transforms.g_mat);
    save_tensor(os, st.transforms.bt_mat);
    save_tensor(os, st.transforms.at_mat);
    save_pod(os, st.wino_cache.scale);
    save_pod(os, st.wino_cache.out_channels);
    save_pod(os, st.wino_cache.in_channels);
    save_pod(os, st.wino_cache.tile);
    // The one U: the pre-blocked offset-binary layout the fused streaming
    // executor consumes (backend/conv_kernels_s8.hpp), so a load lands on
    // the blocked hot path without re-packing.
    save_vector(os, st.wino_cache.u_blocked);
    // Per-tap scale vectors for the transform-domain stages plus the per-tap
    // scales the U cache was baked at. Empty = per-tensor (the scalar
    // stage_scales fields rule).
    save_vector(os, st.stage_scales.weights_transformed_taps);
    save_vector(os, st.stage_scales.input_transformed_taps);
    save_vector(os, st.stage_scales.hadamard_taps);
    save_vector(os, st.wino_cache.tap_scales);
    // Whole-tap-zero skip flags from winograd_prune ([t*t] or empty =
    // dense). Carried so a pruned model skips its tap GEMMs after load too.
    save_vector(os, st.wino_cache.tap_mask);
  } else if (kind == 2) {
    // Strided polyphase cache — an F(m,2) Winograd sub-problem over the
    // even/even weight phase plus one im2row GEMM over the rect phases.
    save_pod(os, static_cast<std::int32_t>(st.transforms.m));
    save_pod(os, static_cast<std::int32_t>(st.transforms.r));
    save_pod(os, static_cast<std::int32_t>(st.transforms.tile));
    save_tensor(os, st.transforms.g_mat);
    save_tensor(os, st.transforms.bt_mat);
    save_tensor(os, st.transforms.at_mat);
    save_pod(os, st.strided_cache.u00.scale);
    save_pod(os, st.strided_cache.u00.out_channels);
    save_pod(os, st.strided_cache.u00.in_channels);
    save_pod(os, st.strided_cache.u00.tile);
    save_vector(os, st.strided_cache.u00.u_blocked);
    save_vector(os, st.strided_cache.rect_wt);
    save_pod(os, st.strided_cache.rect_scale);
  } else {
    save_vector(os, st.im2row_cache.wt);
    save_pod(os, st.im2row_cache.scale);
    save_pod(os, st.im2row_cache.out_channels);
    save_pod(os, st.im2row_cache.patch);
  }
  save_optional_tensor(os, st.bias);
}

/// Reads a Winograd stage's transform set. A checksum-valid artifact whose
/// set the kernels cannot run (wino::check_transforms) is rejected here,
/// before a forward can run, with a runtime_error like every other
/// malformed field.
wino::Transforms load_transforms(std::istream& is) {
  wino::Transforms tr;
  tr.m = static_cast<int>(load_pod<std::int32_t>(is));
  tr.r = static_cast<int>(load_pod<std::int32_t>(is));
  tr.tile = static_cast<int>(load_pod<std::int32_t>(is));
  tr.g_mat = load_tensor(is);
  tr.bt_mat = load_tensor(is);
  tr.at_mat = load_tensor(is);
  try {
    wino::check_transforms(tr, "load_pipeline");
  } catch (const std::invalid_argument& e) {
    throw std::runtime_error(e.what());  // a malformed file, not a bad call
  }
  return tr;
}

/// Element count of a size formed from file-supplied dimensions. They are
/// untrusted, so the product goes through the throwing wa::numel: a crafted
/// artifact gets an error naming the field instead of a wrapped size
/// (signed-overflow UB) that could still match a vector length.
std::int64_t file_size(const Shape& dims, const std::string& field) {
  try {
    return numel(dims);
  } catch (const std::invalid_argument&) {
    throw std::runtime_error("load_pipeline: " + field + " size has a negative dimension");
  } catch (const std::overflow_error&) {
    throw std::runtime_error("load_pipeline: " + field + " size overflows int64");
  }
}

/// `channels` rounded up to the Winograd channel block, without the
/// `channels + block - 1` sum that could overflow on a file-supplied count.
std::int64_t padded_channels(std::int64_t channels) {
  const std::int64_t b = backend::kWinoChannelBlock;
  return file_size({channels / b + (channels % b != 0 ? 1 : 0), b}, "padded channel count");
}

ConvStage load_conv(std::istream& is) {
  ConvStage st;
  const auto algo = load_pod<std::uint8_t>(is);
  if (algo > static_cast<std::uint8_t>(nn::ConvAlgo::kWinograd6)) {
    throw std::runtime_error("load_pipeline: unknown conv algorithm tag");
  }
  st.algo = static_cast<nn::ConvAlgo>(algo);
  st.in_channels = load_pod<std::int64_t>(is);
  st.out_channels = load_pod<std::int64_t>(is);
  st.kernel = load_pod<std::int64_t>(is);
  st.pad = load_pod<std::int64_t>(is);
  st.groups = load_pod<std::int64_t>(is);
  st.stride = load_pod<std::int64_t>(is);
  // Every cache size below is a product of these fields, and the executors
  // trust them for indexing: a negative pair whose product matches a cache
  // length must not load.
  for (const auto& [value, name] : {std::pair{st.in_channels, "in_channels"},
                                    std::pair{st.out_channels, "out_channels"},
                                    std::pair{st.kernel, "kernel"}}) {
    if (value < 1) {
      throw std::runtime_error(std::string("load_pipeline: conv ") + name + " must be positive");
    }
  }
  if (st.pad < 0) throw std::runtime_error("load_pipeline: conv pad must not be negative");
  if (st.groups < 1 || st.in_channels % st.groups != 0 || st.out_channels % st.groups != 0) {
    throw std::runtime_error("load_pipeline: conv groups must divide both channel counts");
  }
  if (st.stride < 1) throw std::runtime_error("load_pipeline: conv stride must be >= 1");
  st.input_scale = load_pod<float>(is);
  st.output_scale = load_pod<float>(is);
  st.relu_after = load_pod<std::uint8_t>(is) != 0;
  st.stage_scales.weights_transformed = load_pod<float>(is);
  st.stage_scales.input_transformed = load_pod<float>(is);
  st.stage_scales.hadamard = load_pod<float>(is);
  st.stage_scales.output = load_pod<float>(is);

  // Cache kind: 0 = im2row, 1 = winograd, 2 = strided polyphase winograd.
  const auto kind = load_pod<std::uint8_t>(is);
  if (kind > 2) throw std::runtime_error("load_pipeline: unknown conv cache kind");
  if ((kind != 0) != nn::is_winograd(st.algo)) {
    throw std::runtime_error("load_pipeline: conv cache kind disagrees with its algorithm");
  }
  if (kind == 2 && (st.stride != 2 || st.kernel != 3 || st.groups != 1)) {
    throw std::runtime_error(
        "load_pipeline: strided Winograd cache requires stride 2, 3x3 kernel, groups 1");
  }
  if (kind == 1 && st.stride != 1) {
    throw std::runtime_error("load_pipeline: dense Winograd cache requires stride 1");
  }
  if (kind == 1) {
    st.transforms = load_transforms(is);
    st.wino_cache.scale = load_pod<float>(is);
    st.wino_cache.out_channels = load_pod<std::int64_t>(is);
    st.wino_cache.in_channels = load_pod<std::int64_t>(is);
    st.wino_cache.tile = load_pod<std::int64_t>(is);
    st.wino_cache.u_blocked = load_vector<std::uint8_t>(is);
    // The checksum only proves the bytes are the writer's; a buggy or
    // crafted writer could still encode an internally inconsistent stage,
    // and both executors index U by [t², K, Cpad] unchecked. Grouped stages
    // cache U with the per-group width: in_channels is C/g. The U values are
    // the writer's responsibility (covered by the payload checksum).
    st.wino_cache.groups = st.groups;
    const std::int64_t t = st.wino_cache.tile;
    if (t != st.transforms.tile || st.transforms.r != st.kernel ||
        st.wino_cache.out_channels != st.out_channels ||
        file_size({st.wino_cache.in_channels, st.groups}, "Winograd cache channel count") !=
            st.in_channels ||
        static_cast<std::int64_t>(st.wino_cache.u_blocked.size()) !=
            file_size({t, t, st.out_channels, padded_channels(st.wino_cache.in_channels)},
                      "Winograd U cache")) {
      throw std::runtime_error("load_pipeline: Winograd cache disagrees with its stage geometry");
    }
    st.stage_scales.weights_transformed_taps = load_vector<float>(is);
    st.stage_scales.input_transformed_taps = load_vector<float>(is);
    st.stage_scales.hadamard_taps = load_vector<float>(is);
    st.wino_cache.tap_scales = load_vector<float>(is);
    // The executor indexes the tap vectors by [t²] unchecked and trusts the
    // U levels to match the recorded tap scales.
    const auto check_taps = [&](const std::vector<float>& v, const char* name) {
      if (v.empty()) return;
      if (static_cast<std::int64_t>(v.size()) != t * t) {
        throw std::runtime_error("load_pipeline: " + std::string(name) +
                                 " tap-scale vector disagrees with the stage's t*t");
      }
      for (const float s : v) {
        if (!(s > 0.F)) {
          throw std::runtime_error("load_pipeline: " + std::string(name) +
                                   " tap-scale vector has a non-positive entry");
        }
      }
    };
    check_taps(st.stage_scales.weights_transformed_taps, "weights_transformed");
    check_taps(st.stage_scales.input_transformed_taps, "input_transformed");
    check_taps(st.stage_scales.hadamard_taps, "hadamard");
    check_taps(st.wino_cache.tap_scales, "U-cache");
    if (st.stage_scales.weights_transformed_taps != st.wino_cache.tap_scales) {
      throw std::runtime_error(
          "load_pipeline: per-tap U stage scales disagree with the cached U's tap scales");
    }
    // Whole-tap-zero skip flags ([t*t] or empty = dense). Both executors
    // branch on these unchecked.
    st.wino_cache.tap_mask = load_vector<std::uint8_t>(is);
    if (!st.wino_cache.tap_mask.empty() &&
        static_cast<std::int64_t>(st.wino_cache.tap_mask.size()) != t * t) {
      throw std::runtime_error("load_pipeline: sparse tap mask disagrees with the stage's t*t");
    }
  } else if (kind == 2) {
    st.transforms = load_transforms(is);
    auto& sc = st.strided_cache;
    sc.u00.scale = load_pod<float>(is);
    sc.u00.out_channels = load_pod<std::int64_t>(is);
    sc.u00.in_channels = load_pod<std::int64_t>(is);
    sc.u00.tile = load_pod<std::int64_t>(is);
    sc.u00.u_blocked = load_vector<std::uint8_t>(is);
    sc.rect_wt = load_vector<std::int8_t>(is);
    sc.rect_scale = load_pod<float>(is);
    // The polyphase executor indexes u00 as [t*t, K, Cpad] (F(m,2): r == 2,
    // not the stage's 3x3 kernel) and rect_wt as [5*C, K], all unchecked.
    const std::int64_t t = sc.u00.tile;
    if (st.transforms.r != 2 || t != st.transforms.tile ||
        sc.u00.out_channels != st.out_channels || sc.u00.in_channels != st.in_channels ||
        static_cast<std::int64_t>(sc.u00.u_blocked.size()) !=
            file_size({t, t, st.out_channels, padded_channels(st.in_channels)},
                      "strided Winograd U cache") ||
        static_cast<std::int64_t>(sc.rect_wt.size()) !=
            file_size({5, st.in_channels, st.out_channels}, "strided rect-phase weights") ||
        !(sc.u00.scale > 0.F) || !(sc.rect_scale > 0.F)) {
      throw std::runtime_error(
          "load_pipeline: strided Winograd cache disagrees with its stage geometry");
    }
  } else {
    st.im2row_cache.wt = load_vector<std::int8_t>(is);
    st.im2row_cache.scale = load_pod<float>(is);
    st.im2row_cache.out_channels = load_pod<std::int64_t>(is);
    st.im2row_cache.patch = load_pod<std::int64_t>(is);
    st.im2row_cache.groups = st.groups;
    // Grouped stages pack wt as groups x [patch, K/g]: out_channels and
    // patch are per-group values.
    if (st.im2row_cache.empty() ||
        file_size({st.im2row_cache.out_channels, st.groups}, "im2row cache channel count") !=
            st.out_channels ||
        st.im2row_cache.patch !=
            file_size({st.in_channels / st.groups, st.kernel, st.kernel}, "im2row patch") ||
        static_cast<std::int64_t>(st.im2row_cache.wt.size()) !=
            file_size({st.groups, st.im2row_cache.patch, st.im2row_cache.out_channels},
                      "im2row weights")) {
      throw std::runtime_error("load_pipeline: im2row cache disagrees with its stage geometry");
    }
  }
  st.bias = load_optional_tensor(is);
  if (!st.bias.empty() && st.bias.numel() != st.out_channels) {
    throw std::runtime_error("load_pipeline: conv bias/channel mismatch");
  }
  return st;
}

void save_linear(std::ostream& os, const LinearStage& st) {
  if (!st.prepared()) throw std::runtime_error("save_pipeline: linear stage was never prepared");
  save_pod(os, st.input_scale);
  save_pod(os, st.output_scale);
  save_pod(os, static_cast<std::uint8_t>(st.relu_after ? 1 : 0));
  save_vector(os, st.packed.wt);
  save_pod(os, st.packed.scale);
  save_pod(os, st.packed.out_features);
  save_pod(os, st.packed.in_features);
  save_optional_tensor(os, st.bias);
}

LinearStage load_linear(std::istream& is) {
  LinearStage st;
  st.input_scale = load_pod<float>(is);
  st.output_scale = load_pod<float>(is);
  st.relu_after = load_pod<std::uint8_t>(is) != 0;
  st.packed.wt = load_vector<std::int8_t>(is);
  st.packed.scale = load_pod<float>(is);
  st.packed.out_features = load_pod<std::int64_t>(is);
  st.packed.in_features = load_pod<std::int64_t>(is);
  if (st.packed.empty() || st.packed.out_features <= 0 || st.packed.in_features <= 0 ||
      static_cast<std::int64_t>(st.packed.wt.size()) !=
          st.packed.in_features * st.packed.out_features) {
    throw std::runtime_error("load_pipeline: linear weights disagree with their features");
  }
  st.bias = load_optional_tensor(is);
  if (!st.bias.empty() && st.bias.numel() != st.packed.out_features) {
    throw std::runtime_error("load_pipeline: linear bias/feature mismatch");
  }
  return st;
}

void save_bn(std::ostream& os, const BnStage& st) {
  if (!st.prepared()) throw std::runtime_error("save_pipeline: bn stage was never prepared");
  save_pod(os, st.input_scale);
  save_pod(os, st.output_scale);
  save_pod(os, static_cast<std::uint8_t>(st.relu_after ? 1 : 0));
  save_tensor(os, st.scale);
  save_tensor(os, st.bias);
  save_vector(os, st.affine.m0);
  save_vector(os, st.affine.exp);
  save_vector(os, st.affine.bias_q);
  save_pod(os, st.affine.out_scale);
}

BnStage load_bn(std::istream& is) {
  BnStage st;
  st.input_scale = load_pod<float>(is);
  st.output_scale = load_pod<float>(is);
  st.relu_after = load_pod<std::uint8_t>(is) != 0;
  st.scale = load_tensor(is);
  st.bias = load_tensor(is);
  st.affine.m0 = load_vector<std::int32_t>(is);
  st.affine.exp = load_vector<std::int8_t>(is);
  st.affine.bias_q = load_vector<std::int64_t>(is);
  st.affine.out_scale = load_pod<float>(is);
  check_affine_tables(st.affine, "bn affine");
  deploy::fill_affine_levels(st.affine);
  if (st.scale.numel() != static_cast<std::int64_t>(st.affine.m0.size()) ||
      st.bias.numel() != static_cast<std::int64_t>(st.affine.m0.size())) {
    throw std::runtime_error("load_pipeline: bn affine channel counts disagree");
  }
  return st;
}

void save_add(std::ostream& os, const AddStage& st) {
  if (!st.prepared()) throw std::runtime_error("save_pipeline: add stage was never prepared");
  save_pod(os, st.lhs_scale);
  save_pod(os, st.rhs_scale);
  save_pod(os, st.output_scale);
  save_pod(os, static_cast<std::uint8_t>(st.relu_after ? 1 : 0));
  save_ratio(os, st.lhs_ratio);
  save_ratio(os, st.rhs_ratio);
}

AddStage load_add(std::istream& is) {
  AddStage st;
  st.lhs_scale = load_pod<float>(is);
  st.rhs_scale = load_pod<float>(is);
  st.output_scale = load_pod<float>(is);
  st.relu_after = load_pod<std::uint8_t>(is) != 0;
  st.lhs_ratio = load_ratio(is);
  st.rhs_ratio = load_ratio(is);
  st.prepared_ = true;  // the ratios above ARE the prepared state
  return st;
}

void save_concat(std::ostream& os, const ConcatStage& st) {
  if (!st.prepared()) throw std::runtime_error("save_pipeline: concat stage was never prepared");
  save_pod(os, st.lhs_scale);
  save_pod(os, st.rhs_scale);
  save_pod(os, st.output_scale);
  save_pod(os, static_cast<std::uint8_t>(st.relu_after ? 1 : 0));
  save_ratio(os, st.lhs_ratio);
  save_ratio(os, st.rhs_ratio);
}

ConcatStage load_concat(std::istream& is) {
  ConcatStage st;
  st.lhs_scale = load_pod<float>(is);
  st.rhs_scale = load_pod<float>(is);
  st.output_scale = load_pod<float>(is);
  st.relu_after = load_pod<std::uint8_t>(is) != 0;
  st.lhs_ratio = load_ratio(is);
  st.rhs_ratio = load_ratio(is);
  st.prepared_ = true;  // the ratios above ARE the prepared state
  return st;
}

void save_requant(std::ostream& os, const RequantStage& st) {
  if (!st.prepared()) throw std::runtime_error("save_pipeline: requant stage was never prepared");
  save_pod(os, st.input_scale);
  save_pod(os, st.output_scale);
  save_ratio(os, st.ratio);
}

RequantStage load_requant(std::istream& is) {
  RequantStage st;
  st.input_scale = load_pod<float>(is);
  st.output_scale = load_pod<float>(is);
  st.ratio = load_ratio(is);
  st.prepared_ = true;  // the ratio above IS the prepared state
  return st;
}

void save_stage(std::ostream& os, const Stage& s) {
  std::visit(
      [&os](const auto& st) {
        using T = std::decay_t<decltype(st)>;
        if constexpr (std::is_same_v<T, ConvStage>) {
          save_pod(os, static_cast<std::uint8_t>(Tag::kConv));
          save_conv(os, st);
        } else if constexpr (std::is_same_v<T, PoolStage>) {
          save_pod(os, static_cast<std::uint8_t>(Tag::kPool));
          save_pod(os, st.kernel);
          save_pod(os, st.stride);
        } else if constexpr (std::is_same_v<T, FlattenStage>) {
          save_pod(os, static_cast<std::uint8_t>(Tag::kFlatten));
        } else if constexpr (std::is_same_v<T, AvgPoolStage>) {
          save_pod(os, static_cast<std::uint8_t>(Tag::kAvgPool));
        } else if constexpr (std::is_same_v<T, LinearStage>) {
          save_pod(os, static_cast<std::uint8_t>(Tag::kLinear));
          save_linear(os, st);
        } else if constexpr (std::is_same_v<T, BnStage>) {
          save_pod(os, static_cast<std::uint8_t>(Tag::kBn));
          save_bn(os, st);
        } else if constexpr (std::is_same_v<T, AddStage>) {
          save_pod(os, static_cast<std::uint8_t>(Tag::kAdd));
          save_add(os, st);
        } else if constexpr (std::is_same_v<T, ReluStage>) {
          save_pod(os, static_cast<std::uint8_t>(Tag::kRelu));
        } else if constexpr (std::is_same_v<T, ConcatStage>) {
          save_pod(os, static_cast<std::uint8_t>(Tag::kConcat));
          save_concat(os, st);
        } else {
          save_pod(os, static_cast<std::uint8_t>(Tag::kRequant));
          save_requant(os, st);
        }
      },
      s);
}

Stage load_stage(std::istream& is) {
  switch (static_cast<Tag>(load_pod<std::uint8_t>(is))) {
    case Tag::kConv:
      return load_conv(is);
    case Tag::kPool: {
      PoolStage st;
      st.kernel = load_pod<std::int64_t>(is);
      st.stride = load_pod<std::int64_t>(is);
      return st;
    }
    case Tag::kFlatten:
      return FlattenStage{};
    case Tag::kAvgPool:
      return AvgPoolStage{};
    case Tag::kLinear:
      return load_linear(is);
    case Tag::kBn:
      return load_bn(is);
    case Tag::kAdd:
      return load_add(is);
    case Tag::kRelu:
      return ReluStage{};
    case Tag::kRequant:
      return load_requant(is);
    case Tag::kConcat:
      return load_concat(is);
  }
  throw std::runtime_error("load_pipeline: unknown stage tag");
}

// ---- fused epilogues and the static memory plan -----------------------------

void save_epilogue(std::ostream& os, const std::vector<EpilogueOp>& eps) {
  save_pod(os, static_cast<std::uint32_t>(eps.size()));
  for (const EpilogueOp& ep : eps) {
    save_pod(os, static_cast<std::uint8_t>(ep.kind));
    switch (ep.kind) {
      case EpilogueOp::Kind::kRelu:
        break;
      case EpilogueOp::Kind::kRequant:
        save_ratio(os, ep.ratio);
        save_pod(os, ep.out_scale);
        break;
      case EpilogueOp::Kind::kAffine:
        save_vector(os, ep.affine.m0);
        save_vector(os, ep.affine.exp);
        save_vector(os, ep.affine.bias_q);
        save_pod(os, ep.affine.out_scale);
        save_pod(os, static_cast<std::uint8_t>(ep.relu ? 1 : 0));
        save_pod(os, ep.out_scale);
        break;
    }
  }
}

std::vector<EpilogueOp> load_epilogue(std::istream& is) {
  const auto count = load_pod<std::uint32_t>(is);
  if (count > 1024) throw std::runtime_error("load_pipeline: implausible epilogue count");
  std::vector<EpilogueOp> eps;
  eps.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    EpilogueOp ep;
    const auto kind = load_pod<std::uint8_t>(is);
    if (kind > static_cast<std::uint8_t>(EpilogueOp::Kind::kAffine)) {
      throw std::runtime_error("load_pipeline: unknown epilogue kind");
    }
    ep.kind = static_cast<EpilogueOp::Kind>(kind);
    switch (ep.kind) {
      case EpilogueOp::Kind::kRelu:
        break;
      case EpilogueOp::Kind::kRequant:
        ep.ratio = load_ratio(is);
        ep.out_scale = load_pod<float>(is);
        break;
      case EpilogueOp::Kind::kAffine:
        ep.affine.m0 = load_vector<std::int32_t>(is);
        ep.affine.exp = load_vector<std::int8_t>(is);
        ep.affine.bias_q = load_vector<std::int64_t>(is);
        ep.affine.out_scale = load_pod<float>(is);
        ep.relu = load_pod<std::uint8_t>(is) != 0;
        ep.out_scale = load_pod<float>(is);
        check_affine_tables(ep.affine, "fused affine");
        deploy::fill_affine_levels(ep.affine);
        break;
    }
    eps.push_back(std::move(ep));
  }
  return eps;
}

void save_plan(std::ostream& os, const MemoryPlan* plan) {
  save_pod(os, static_cast<std::uint8_t>(plan != nullptr ? 1 : 0));
  if (plan == nullptr) return;
  save_vector(os, plan->reference_input);
  save_vector(os, plan->in_place);
  save_pod(os, plan->peak_bytes);
  save_pod(os, plan->naive_peak_bytes);
}

/// Reads the plan section and attaches it. Int8Pipeline::set_plan validates
/// every field against the just-loaded schedule, so a corrupted-but-
/// checksummed plan (a buggy writer) rejects the artifact instead of
/// executing with broken in-place marks.
void load_plan(std::istream& is, Int8Pipeline& pipe) {
  if (load_pod<std::uint8_t>(is) == 0) return;
  MemoryPlan plan;
  plan.reference_input = load_vector<std::int64_t>(is);
  plan.in_place = load_vector<std::uint8_t>(is);
  plan.peak_bytes = load_pod<std::int64_t>(is);
  plan.naive_peak_bytes = load_pod<std::int64_t>(is);
  try {
    pipe.set_plan(std::move(plan));
  } catch (const std::invalid_argument& e) {
    throw std::runtime_error("load_pipeline: invalid plan section — " + std::string(e.what()));
  }
}

void save_io(std::ostream& os, const StageIO& io) {
  save_string(os, io.input);
  save_string(os, io.input2);
  save_string(os, io.output);
  save_string(os, io.label);
}

StageIO load_io(std::istream& is) {
  StageIO io;
  io.input = load_string(is);
  io.input2 = load_string(is);
  io.output = load_string(is);
  io.label = load_string(is);
  return io;
}

}  // namespace

void save_pipeline(std::ostream& os, const Int8Pipeline& pipe) {
  std::ostringstream payload(std::ios::binary);
  save_pod(payload, static_cast<std::int64_t>(pipe.size()));
  for (const Int8Pipeline::Node& node : pipe.nodes()) {
    save_io(payload, node.io);
    save_stage(payload, node.op);
    save_epilogue(payload, node.epilogue);
  }
  save_plan(payload, pipe.plan());
  const std::string bytes = std::move(payload).str();
  save_pod(os, kWamMagic);
  save_pod(os, kWamVersion);
  save_pod(os, static_cast<std::uint64_t>(bytes.size()));
  save_pod(os, fnv1a64(bytes.data(), bytes.size()));
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!os) throw std::runtime_error("save_pipeline: stream write failed");
}

void save_pipeline(const std::string& path, const Int8Pipeline& pipe) {
  std::ofstream os(path, std::ios::binary);
  if (!os) throw std::runtime_error("save_pipeline: cannot open for write: " + path);
  save_pipeline(os, pipe);
}

Int8Pipeline load_pipeline(std::istream& is) {
  if (load_pod<std::uint32_t>(is) != kWamMagic) {
    throw std::runtime_error("load_pipeline: not a .wam artifact (bad magic)");
  }
  const auto version = load_pod<std::uint32_t>(is);
  if (version != kWamVersion) {
    throw std::runtime_error("load_pipeline: unsupported .wam version " +
                             std::to_string(version) + " (this reader handles only version " +
                             std::to_string(kWamVersion) + ")");
  }
  const auto payload_bytes = load_pod<std::uint64_t>(is);
  if (payload_bytes > (std::uint64_t{1} << 40)) {
    throw std::runtime_error("load_pipeline: implausible payload size");
  }
  const auto checksum = load_pod<std::uint64_t>(is);
  std::string bytes(static_cast<std::size_t>(payload_bytes), '\0');
  is.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!is) throw std::runtime_error("load_pipeline: truncated .wam payload");
  if (fnv1a64(bytes.data(), bytes.size()) != checksum) {
    throw std::runtime_error("load_pipeline: .wam checksum mismatch (corrupted artifact)");
  }

  std::istringstream payload(std::move(bytes), std::ios::binary);
  const auto count = load_pod<std::int64_t>(payload);
  if (count < 0 || count > 1'000'000) {
    throw std::runtime_error("load_pipeline: implausible stage count");
  }
  Int8Pipeline pipe;
  for (std::int64_t i = 0; i < count; ++i) {
    StageIO io = load_io(payload);
    // push() re-validates the graph wiring and — because every stage arrives
    // with its prepared caches — performs no weight transform or repack.
    Stage stage = load_stage(payload);
    std::vector<EpilogueOp> epilogue = load_epilogue(payload);
    pipe.push(std::move(stage), std::move(io), std::move(epilogue));
  }
  load_plan(payload, pipe);
  if (payload.peek() != std::char_traits<char>::eof()) {
    throw std::runtime_error("load_pipeline: trailing bytes after last stage");
  }
  return pipe;
}

Int8Pipeline load_pipeline(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("load_pipeline: cannot open for read: " + path);
  return load_pipeline(is);
}

}  // namespace wa::serve
