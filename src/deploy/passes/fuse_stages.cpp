// Fusion pass: fold standalone ReluStage / RequantStage / BnStage nodes
// into the producing conv / linear / add (or batch-norm) stage as in-place
// epilogue ops, so the intermediate int8 tensor never round-trips through
// an activation slot.
//
// Fusion is only performed when it is provably bit-preserving:
//   - the folded stage must consume the producer's output directly — either
//     plain chaining, or a published slot with exactly one reader that is
//     the very next stage (the slot disappears with the fold);
//   - a folded BnStage / RequantStage must expect EXACTLY the producer's
//     frozen output scale, so the inter-stage rescale it replaces was the
//     identity (ReluStage never rescales and fuses unconditionally);
//   - the epilogue body is the same element kernel the standalone stage
//     runs (relu_s8 / requant_s8_ / channel_affine_s8_), applied in the
//     same order.
// Producers with dynamic (<= 0) output scales are left alone.
#include <cmath>

#include "deploy/passes/pass_internal.hpp"

namespace wa::deploy::passes::internal {

namespace {

using Node = Int8Pipeline::Node;

bool fusable_producer(const Node& n) {
  return std::holds_alternative<ConvStage>(n.op) || std::holds_alternative<LinearStage>(n.op) ||
         std::holds_alternative<AddStage>(n.op) || std::holds_alternative<ConcatStage>(n.op) ||
         std::holds_alternative<BnStage>(n.op) || std::holds_alternative<RequantStage>(n.op);
}

/// Scales match exactly — the rescale the fold removes was the identity.
bool identity_scale(float producer, float expected) {
  return producer > 0.F && expected > 0.F && std::fabs(producer - expected) < 1e-12F;
}

/// How many stages read slot `name`.
std::size_t slot_readers(const std::vector<Node>& nodes, const std::string& name) {
  std::size_t readers = 0;
  for (const Node& n : nodes) {
    if (n.io.input == name) ++readers;
    if (n.io.input2 == name) ++readers;
  }
  return readers;
}

std::string merge_label(const Node& producer, const Node& consumer, std::size_t consumer_index) {
  const std::string lhs =
      producer.io.label.empty() ? "(unlabeled)" : producer.io.label;
  const std::string rhs =
      consumer.io.label.empty() ? "stage" + std::to_string(consumer_index) : consumer.io.label;
  return lhs + "+" + rhs;
}

}  // namespace

std::size_t fuse_stages(Int8Pipeline& pipe) {
  std::vector<Node> nodes = pipe.take_nodes();
  std::size_t fused = 0;

  for (std::size_t i = 1; i < nodes.size();) {
    Node& consumer = nodes[i];
    Node& producer = nodes[i - 1];
    const bool foldable_kind = std::holds_alternative<ReluStage>(consumer.op) ||
                               std::holds_alternative<RequantStage>(consumer.op) ||
                               std::holds_alternative<BnStage>(consumer.op);
    if (!foldable_kind || !fusable_producer(producer)) {
      ++i;
      continue;
    }
    // Adjacency: the consumer must read exactly the producer's output.
    bool chained = producer.io.output.empty() && consumer.io.input.empty();
    bool via_slot = !producer.io.output.empty() && consumer.io.input == producer.io.output &&
                    slot_readers(nodes, producer.io.output) == 1;
    if (!chained && !via_slot) {
      ++i;
      continue;
    }
    // Scale precondition (Relu is scale-free; Bn/Requant must replace an
    // identity rescale).
    const float produced = node_result_scale(producer, /*in_scale=*/-1.F);
    EpilogueOp ep;
    if (const auto* bn = std::get_if<BnStage>(&consumer.op)) {
      if (!identity_scale(produced, bn->input_scale)) {
        ++i;
        continue;
      }
      ep.kind = EpilogueOp::Kind::kAffine;
      ep.affine = bn->affine;
      ep.relu = bn->relu_after;
      ep.out_scale = bn->output_scale;
    } else if (const auto* rq = std::get_if<RequantStage>(&consumer.op)) {
      if (!identity_scale(produced, rq->input_scale)) {
        ++i;
        continue;
      }
      ep.kind = EpilogueOp::Kind::kRequant;
      ep.ratio = rq->ratio;
      ep.out_scale = rq->output_scale;
    } else {
      ep.kind = EpilogueOp::Kind::kRelu;
    }

    producer.epilogue.push_back(std::move(ep));
    // A consumer that was itself a fusion target earlier carries its own
    // epilogues (e.g. bn+relu already folded together) — keep them in
    // order behind the new op.
    for (EpilogueOp& tail : consumer.epilogue) producer.epilogue.push_back(std::move(tail));
    producer.io.label = merge_label(producer, consumer, i);
    producer.io.output = consumer.io.output;  // the fold takes over publishing
    nodes.erase(nodes.begin() + static_cast<std::ptrdiff_t>(i));
    ++fused;
    // Stay at i: the next node shifted down and may fold into the same
    // producer (conv -> bn -> relu collapses in two steps).
  }

  for (Node& n : nodes) pipe.push(std::move(n.op), std::move(n.io), std::move(n.epilogue));
  return fused;
}

}  // namespace wa::deploy::passes::internal
