#include "core/batch_plan.h"

#include <string>
#include <utility>

#include "util/cancel.h"
#include "util/logging.h"

namespace adamgnn::core {

namespace {

/// Rebases rows [base, base + n) of a block-diagonal matrix to a standalone
/// n x n member matrix. Under the block-diagonal invariant every entry of
/// those rows has a column in [base, base + n); entries are already in
/// canonical CSR order, and values are copied bit-for-bit, so the result is
/// identical to building the member's matrix directly.
graph::SparseMatrix SliceBlock(const graph::SparseMatrix& merged, size_t base,
                               size_t n) {
  std::vector<graph::Triplet> triplets;
  const std::vector<size_t>& row_offsets = merged.row_offsets();
  const std::vector<size_t>& col_indices = merged.col_indices();
  const std::vector<double>& values = merged.values();
  triplets.reserve(row_offsets[base + n] - row_offsets[base]);
  for (size_t r = 0; r < n; ++r) {
    for (size_t p = row_offsets[base + r]; p < row_offsets[base + r + 1];
         ++p) {
      ADAMGNN_DCHECK_GE(col_indices[p], base);
      ADAMGNN_DCHECK_LT(col_indices[p], base + n);
      triplets.push_back({r, col_indices[p] - base, values[p]});
    }
  }
  return graph::SparseMatrix::FromTriplets(n, n, std::move(triplets));
}

}  // namespace

util::Result<std::shared_ptr<const BatchPlan>> BatchPlan::TryBuild(
    const graph::GraphBatch& batch, int lambda) {
  if (batch.num_graphs() == 0) {
    return util::Status::InvalidArgument("empty batch");
  }
  if (batch.offsets.size() != batch.num_graphs() + 1 ||
      batch.offsets.back() != batch.merged.num_nodes()) {
    return util::Status::InvalidArgument(
        "batch offsets do not partition the merged graph");
  }
  auto plan = std::shared_ptr<BatchPlan>(new BatchPlan());
  // One fused precompute over the union: Â, A, the λ-hop enumeration, and
  // the feature constant, all built once instead of once per member.
  ADAMGNN_ASSIGN_OR_RETURN(plan->merged_,
                           GraphPlan::TryBuild(batch.merged, lambda));
  plan->offsets_ = batch.offsets;

  const LevelTopology& level0 = plan->merged_->level0();
  const EgoPairs& pairs = level0.pairs;
  size_t pair_cursor = 0;  // pairs are grouped by ascending ego id
  plan->members_.reserve(batch.num_graphs());
  for (size_t m = 0; m < batch.num_graphs(); ++m) {
    ADAMGNN_RETURN_NOT_OK(util::CheckCancel());
    MemberView view;
    view.base = batch.offsets[m];
    view.num_nodes = batch.offsets[m + 1] - batch.offsets[m];
    view.norm_adj = std::make_shared<const graph::SparseMatrix>(
        SliceBlock(*plan->merged_->norm_adj(), view.base, view.num_nodes));
    view.adjacency =
        SliceBlock(plan->merged_->adjacency(), view.base, view.num_nodes);

    // The member's pair range: egos are emitted in ascending merged-node
    // order, so member m owns the contiguous run with ego < offsets[m+1].
    const size_t begin = pair_cursor;
    while (pair_cursor < pairs.num_pairs() &&
           pairs.ego[pair_cursor] < batch.offsets[m + 1]) {
      ++pair_cursor;
    }
    EgoPairs member_pairs;
    member_pairs.num_nodes = view.num_nodes;
    member_pairs.ego.reserve(pair_cursor - begin);
    member_pairs.member.reserve(pair_cursor - begin);
    for (size_t p = begin; p < pair_cursor; ++p) {
      ADAMGNN_DCHECK_GE(pairs.ego[p], view.base);
      ADAMGNN_DCHECK_GE(pairs.member[p], view.base);
      member_pairs.ego.push_back(pairs.ego[p] - view.base);
      member_pairs.member.push_back(pairs.member[p] - view.base);
    }
    view.level0.pairs = std::move(member_pairs);
    view.level0.adjacency.resize(view.num_nodes);
    for (size_t r = 0; r < view.num_nodes; ++r) {
      const std::vector<size_t>& merged_row = level0.adjacency[view.base + r];
      std::vector<size_t>& member_row = view.level0.adjacency[r];
      member_row.reserve(merged_row.size());
      for (size_t u : merged_row) member_row.push_back(u - view.base);
    }
    plan->members_.push_back(std::move(view));
  }
  ADAMGNN_DCHECK_EQ(pair_cursor, pairs.num_pairs());
  return std::static_pointer_cast<const BatchPlan>(std::move(plan));
}

std::shared_ptr<const BatchPlan> BatchPlan::Build(
    const graph::GraphBatch& batch, int lambda) {
  util::Result<std::shared_ptr<const BatchPlan>> plan = TryBuild(batch, lambda);
  plan.status().CheckOK();
  return std::move(plan).ValueOrDie();
}

}  // namespace adamgnn::core
