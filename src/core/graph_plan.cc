#include "core/graph_plan.h"

#include <cstring>
#include <string>
#include <utility>

#include "util/cancel.h"
#include "util/logging.h"

namespace adamgnn::core {

LevelTopology LevelTopology::FromAdjacency(
    std::vector<std::vector<size_t>> adjacency, int lambda) {
  LevelTopology topo;
  topo.pairs = EgoPairs::Build(adjacency, lambda);
  topo.adjacency = std::move(adjacency);
  return topo;
}

std::shared_ptr<const GraphPlan> GraphPlan::Build(const graph::Graph& g,
                                                  int lambda) {
  ADAMGNN_CHECK_GE(lambda, 1);
  util::Result<std::shared_ptr<const GraphPlan>> plan = TryBuild(g, lambda);
  // Without an ambient cancellation token TryBuild cannot fail for a valid
  // lambda, so the training path keeps its infallible signature.
  plan.status().CheckOK();
  return std::move(plan).ValueOrDie();
}

util::Result<std::shared_ptr<const GraphPlan>> GraphPlan::TryBuild(
    const graph::Graph& g, int lambda) {
  if (lambda < 1) {
    return util::Status::InvalidArgument("lambda must be >= 1, got " +
                                         std::to_string(lambda));
  }
  auto plan = std::shared_ptr<GraphPlan>(new GraphPlan());
  plan->num_nodes_ = g.num_nodes();
  plan->lambda_ = lambda;
  plan->fingerprint_ = Fingerprint(g);
  // Cooperative cancellation between (and, for the per-node loops, inside)
  // the construction phases: each phase's partial output is discarded when
  // the ambient token fires, so the checks never change what a completed
  // plan contains.
  ADAMGNN_RETURN_NOT_OK(util::CheckCancel());
  plan->norm_adj_ = std::make_shared<const graph::SparseMatrix>(
      graph::SparseMatrix::NormalizedAdjacency(g));
  // Every training epoch's backward pass multiplies by Âᵀ; building the
  // transposed view here — once per plan, not once per epoch — keeps the
  // gather SpMMᵀ kernel allocation-free on the hot path.
  plan->norm_adj_->PrewarmTranspose();
  ADAMGNN_RETURN_NOT_OK(util::CheckCancel());
  plan->adjacency_ = graph::SparseMatrix::Adjacency(g);
  ADAMGNN_RETURN_NOT_OK(util::CheckCancel());
  plan->level0_ = LevelTopology::FromAdjacency(AdjacencyLists(g), lambda);
  ADAMGNN_RETURN_NOT_OK(util::CheckCancel());
  if (g.has_features()) {
    plan->feature_constant_ = autograd::Variable::Constant(g.features());
  }
  ADAMGNN_RETURN_NOT_OK(util::CheckCancel());
  return std::static_pointer_cast<const GraphPlan>(std::move(plan));
}

uint64_t GraphPlan::Fingerprint(const graph::Graph& g) {
  // FNV-1a over the node count, the CSR neighbor stream (rows in order,
  // neighbors sorted by construction), and the raw feature bytes. The
  // feature matrix is folded in because plans hoist a copy of it: a plan
  // must be dropped when either the topology or the features change.
  constexpr uint64_t kOffset = 14695981039346656037ull;
  constexpr uint64_t kPrime = 1099511628211ull;
  uint64_t h = kOffset;
  auto mix = [&h](uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xffu;
      h *= kPrime;
    }
  };
  mix(g.num_nodes());
  for (graph::NodeId v = 0; static_cast<size_t>(v) < g.num_nodes(); ++v) {
    // Strided cancellation poll: a fired token makes the caller discard the
    // digest, so the early exit can never leak a truncated fingerprint.
    if ((v & 1023) == 0 && util::CancelRequested()) return h;
    const auto neighbors = g.Neighbors(v);
    mix(neighbors.size());
    for (graph::NodeId u : neighbors) mix(static_cast<uint64_t>(u));
  }
  if (g.has_features()) {
    const tensor::Matrix& x = g.features();
    mix(x.cols());
    for (size_t i = 0; i < x.size(); ++i) {
      if ((i & 8191) == 0 && util::CancelRequested()) return h;
      uint64_t bits;
      std::memcpy(&bits, &x.data()[i], sizeof(bits));
      mix(bits);
    }
  }
  return h;
}

}  // namespace adamgnn::core
