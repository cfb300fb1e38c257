// .wam model artifacts: a durable binary form of a compiled Int8Pipeline.
//
// The paper's deployment story ends with an integer-only pipeline; serving
// at scale additionally needs that pipeline to survive the process that
// compiled it. A .wam file serializes the *compiled* stage graph — StageIO
// wiring, packed/transformed int8 weight caches (U = Qx(G g Gᵀ) levels, the
// repacked GEMM operands), fixed-point multipliers, integer batch-norm
// affines and every frozen scale — so load_pipeline() reconstructs a
// pipeline that is bit-identical to the saved one *without recomputing
// anything*: the weight_transforms / weight_repacks counters stay flat
// across a load, and the first forward after load is already on the cached
// hot path.
//
// Layout: a fixed header (magic, format version, payload byte count, FNV-1a
// 64 checksum of the payload) followed by the stage list. The loader
// validates magic, version and checksum before parsing a single stage, so
// truncated, corrupted or foreign files are rejected with a clear
// std::runtime_error instead of materializing a garbage pipeline.
//
// Every stage record carries its fused epilogue ops and the payload ends
// with the optimizer's static memory plan, so an optimized pipeline serves
// with its planned peak-memory behavior immediately after load. Winograd
// conv stages carry their one U, the channel-blocked offset-binary layout
// the fused streaming executor consumes, plus their per-tap scale vectors
// (empty = per-tensor) and sparse tap mask; conv stages carry
// groups and stride, a cache-kind byte (0 = im2row, 1 = winograd, 2 =
// strided polyphase winograd), and a kConcat tag serializes channel-concat
// joins. The reader accepts exactly kWamVersion: an artifact of any other
// version is rejected with a message naming it, and a cache, transform set
// or plan section that fails validation rejects the artifact instead of
// executing with corrupt state.
//
// The byte-level specification of the format — field-by-field stage bodies,
// integer encodings, evolution rules for new tags and versions — lives in
// docs/WAM_FORMAT.md; keep that document in lockstep with this file (any
// payload change bumps kWamVersion there and here).
#pragma once

#include <iosfwd>
#include <string>

#include "deploy/pipeline.hpp"

namespace wa::serve {

/// The one format version the writer emits and the reader accepts.
constexpr std::uint32_t kWamVersion = 7;

void save_pipeline(std::ostream& os, const deploy::Int8Pipeline& pipe);
void save_pipeline(const std::string& path, const deploy::Int8Pipeline& pipe);

deploy::Int8Pipeline load_pipeline(std::istream& is);
deploy::Int8Pipeline load_pipeline(const std::string& path);

}  // namespace wa::serve
