// Differentiable segment (scatter/gather) reductions — the message-passing
// primitives — and the pair gather of the attention logits. Segments
// identify, e.g., the destination node of each edge message, the
// ego-network of each member, or the source graph of each node in a batch
// (readout). Index lists are borrowed: an op copies one only when it records
// its pullback.

#ifndef ADAMGNN_AUTOGRAD_SEGMENT_OPS_H_
#define ADAMGNN_AUTOGRAD_SEGMENT_OPS_H_

#include <vector>

#include "autograd/variable.h"

namespace adamgnn::autograd {

/// out.row(s) = Σ_{i : seg[i]==s} x.row(i). out has num_segments rows.
Variable SegmentSum(const Variable& x, const std::vector<size_t>& segments,
                    size_t num_segments);

/// Per-segment mean; empty segments produce zero rows.
Variable SegmentMean(const Variable& x, const std::vector<size_t>& segments,
                     size_t num_segments);

/// Per-segment, per-column max; gradient flows to the arg-max element.
/// Empty segments produce zero rows (and receive no gradient).
Variable SegmentMax(const Variable& x, const std::vector<size_t>& segments,
                    size_t num_segments);

/// Softmax of scores (m x 1) *within* each segment:
///   out_i = exp(s_i - max_seg) / Σ_{j in seg(i)} exp(s_j - max_seg).
/// This is the attention normalizer of GAT, of AdamGNN's fitness component
/// f^s_φ (Eq. 2), of the hyper-node attention α (Eq. 3), and of the flyback
/// attention β (Eq. 4).
Variable SegmentSoftmax(const Variable& scores,
                        const std::vector<size_t>& segments,
                        size_t num_segments);

/// Decomposed pair attention logits (P x 1). Row i of s (n x 2) holds node
/// i's member-side and ego-side attention terms, and
///   out_p = scale_p · s(member[p], 0) + s(ego[p], 1),
/// with scale_p = 1 when `scale` (P x 1) is undefined. Splitting
/// a = [a_m; a_e] turns the concat-then-project logit [u_m ‖ u_e]·a into
/// this form, so no P x d gather is ever built. The pullback scatter-adds
/// scalars into ds in ascending pair order, which makes it deterministic.
Variable PairLogits(const Variable& s, const std::vector<size_t>& member,
                    const std::vector<size_t>& ego,
                    const Variable& scale = Variable());

}  // namespace adamgnn::autograd

#endif  // ADAMGNN_AUTOGRAD_SEGMENT_OPS_H_
