// Differentiable losses: the task losses (softmax CE, BCE-with-logits, MSE),
// the edge-reconstruction scorer behind L_R (Eq. 6), and the Student-t
// self-optimisation clustering loss L_KL (Eq. 5).

#ifndef ADAMGNN_AUTOGRAD_LOSS_OPS_H_
#define ADAMGNN_AUTOGRAD_LOSS_OPS_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "autograd/variable.h"

namespace adamgnn::autograd {

/// Mean softmax cross-entropy over the rows listed in `rows`:
///   L = -1/|rows| Σ_{r in rows} log softmax(logits.row(r))[labels[r]].
/// `labels` is indexed by absolute row id and must cover every listed row.
Variable SoftmaxCrossEntropy(const Variable& logits,
                             const std::vector<int>& labels,
                             const std::vector<size_t>& rows);

/// Predicted class per row (argmax of logits). Not differentiable.
std::vector<int> ArgmaxRows(const tensor::Matrix& logits);

/// Mean binary cross-entropy with logits (m x 1); targets in [0,1].
/// Computed in the numerically stable form
///   max(x,0) - x·t + log(1 + exp(-|x|)).
Variable BinaryCrossEntropyWithLogits(const Variable& logits,
                                      const std::vector<double>& targets);

/// Mean squared error against a constant target of the same shape.
Variable MeanSquaredError(const Variable& pred, const tensor::Matrix& target);

/// logits_e = h.row(u[e]) · h.row(v[e]) for each pair (m x 1). This is the
/// decoder of the reconstruction loss A' = σ(H Hᵀ) restricted to sampled
/// entries, the link-prediction scorer, and Eq. 2's f^c term.
Variable EdgeDotProduct(const Variable& h, const std::vector<size_t>& u,
                        const std::vector<size_t>& v);

/// Student-t self-optimisation clustering loss (Xie et al. 2016; Eq. 5):
/// soft assignment q_ij of every node j to every ego i (μ = 1), sharpened
/// target p_ij treated as constant, loss = KL(P ‖ Q) averaged over nodes.
/// `ego_rows` are the row ids of the selected egos in h; must be non-empty.
Variable SelfOptimisationLoss(const Variable& h,
                              const std::vector<size_t>& ego_rows);

}  // namespace adamgnn::autograd

#endif  // ADAMGNN_AUTOGRAD_LOSS_OPS_H_
