#include "core/losses.h"

#include "autograd/loss_ops.h"
#include "util/logging.h"

namespace adamgnn::core {

autograd::Variable ReconstructionLoss(const autograd::Variable& h,
                                      const graph::Graph& g, util::Rng* rng,
                                      int neg_per_pos) {
  ADAMGNN_CHECK_GE(neg_per_pos, 1);
  std::vector<size_t> src, dst;
  std::vector<double> targets;
  for (const graph::Edge& e : g.UndirectedEdges()) {
    src.push_back(static_cast<size_t>(e.src));
    dst.push_back(static_cast<size_t>(e.dst));
    targets.push_back(1.0);
  }
  const size_t num_pos = src.size();
  ADAMGNN_CHECK_GT(num_pos, 0u);
  const size_t n = g.num_nodes();
  size_t wanted = num_pos * static_cast<size_t>(neg_per_pos);
  size_t guard = 0;
  while (wanted > 0 && ++guard < num_pos * 50 + 1000) {
    const size_t u = rng->NextUint64(n);
    const size_t v = rng->NextUint64(n);
    if (u == v) continue;
    if (g.HasEdge(static_cast<graph::NodeId>(u),
                  static_cast<graph::NodeId>(v))) {
      continue;
    }
    src.push_back(u);
    dst.push_back(v);
    targets.push_back(0.0);
    --wanted;
  }
  autograd::Variable logits = autograd::EdgeDotProduct(h, src, dst);
  return autograd::BinaryCrossEntropyWithLogits(logits, targets);
}

autograd::Variable ReconstructionLossOnEdges(
    const autograd::Variable& h,
    const std::vector<std::pair<size_t, size_t>>& positives,
    const std::vector<std::pair<size_t, size_t>>& negatives) {
  ADAMGNN_CHECK(!positives.empty());
  std::vector<size_t> src, dst;
  for (const auto* edges : {&positives, &negatives}) {
    for (const auto& [u, v] : *edges) {
      src.push_back(u);
      dst.push_back(v);
    }
  }
  std::vector<double> targets(positives.size(), 1.0);
  targets.resize(src.size(), 0.0);
  autograd::Variable logits = autograd::EdgeDotProduct(h, src, dst);
  return autograd::BinaryCrossEntropyWithLogits(logits, targets);
}

autograd::Variable KlSelfOptimisationLoss(
    const autograd::Variable& h, const std::vector<size_t>& ego_rows) {
  return autograd::SelfOptimisationLoss(h, ego_rows);
}

}  // namespace adamgnn::core
