// Differentiable dense ops over Variables. Unless stated otherwise, shapes
// follow the corresponding tensor:: kernels, and each op's gradient is
// checked against finite differences in tests/autograd_ops_test.cc.

#ifndef ADAMGNN_AUTOGRAD_OPS_H_
#define ADAMGNN_AUTOGRAD_OPS_H_

#include <initializer_list>
#include <memory>
#include <utility>
#include <vector>

#include "autograd/variable.h"
#include "util/logging.h"

namespace adamgnn::autograd {

namespace internal {
/// Creates an op output node. requires_grad is inherited from parents; when
/// no parent requires gradients, or under a NoGradGuard, the pullback and
/// parent links are dropped so inference-only subgraphs cost nothing at
/// backward time. The pullback is only wrapped in a std::function (a heap
/// allocation) when it is kept, which eval and serving forwards skip.
template <typename BackwardFn>
std::shared_ptr<Node> NewOpNode(
    tensor::Matrix value, std::initializer_list<std::shared_ptr<Node>> parents,
    BackwardFn&& backward_fn) {
  auto node = std::make_shared<Node>();
  node->value = std::move(value);
  bool needs = false;
  for (const auto& p : parents) {
    ADAMGNN_CHECK(p != nullptr);
    needs = needs || p->requires_grad;
  }
  needs = needs && GradEnabled();
  node->requires_grad = needs;
  if (needs) {
    node->parents.assign(parents.begin(), parents.end());
    node->backward_fn = std::forward<BackwardFn>(backward_fn);
  }
  return node;
}

/// True when `parent` makes an op record its pullback: NewOpNode records
/// when any parent requires gradients and recording is enabled. Ops copy
/// index lists that only the pullback reads under this test, so eval and
/// serving forwards borrow them instead.
inline bool Records(const Node& parent) {
  return parent.requires_grad && GradEnabled();
}
}  // namespace internal

/// a + b (same shape).
Variable Add(const Variable& a, const Variable& b);
/// Sum of one or more same-shaped variables.
Variable AddN(const std::vector<Variable>& xs);
/// a - b (same shape).
Variable Sub(const Variable& a, const Variable& b);
/// a * scalar.
Variable Scale(const Variable& a, double scalar);
/// Elementwise product (same shape).
Variable CwiseMul(const Variable& a, const Variable& b);
/// Adds a 1 x d bias row to every row of a (rows x d).
Variable AddBias(const Variable& a, const Variable& bias);
/// Scales row r of a (rows x d) by col (rows x 1); differentiable in both.
Variable MulColBroadcast(const Variable& a, const Variable& col);
/// Matrix product (m,k) x (k,n).
Variable MatMul(const Variable& a, const Variable& b);
/// Transpose.
Variable Transpose(const Variable& a);

/// Activations.
Variable Relu(const Variable& a);
Variable LeakyRelu(const Variable& a, double slope = 0.2);
Variable Sigmoid(const Variable& a);
Variable Tanh(const Variable& a);
Variable Exp(const Variable& a);
/// Natural log; inputs must be strictly positive.
Variable Log(const Variable& a);

/// Row-wise softmax.
Variable SoftmaxRows(const Variable& a);

/// [a | b] column concatenation.
Variable ConcatCols(const Variable& a, const Variable& b);

/// [a ; b] row concatenation.
Variable ConcatRows(const Variable& a, const Variable& b);

/// Columns [start, start+len) of x as a new (rows x len) variable.
Variable SliceCols(const Variable& x, size_t start, size_t len);

/// Row gather: out.row(i) = x.row(indices[i]); indices may repeat.
Variable GatherRows(const Variable& x, const std::vector<size_t>& indices);

/// Row scatter (inverse of gather): out has num_rows rows, out.row(idx[i])
/// += x.row(i); rows not referenced stay zero. Used by Graph U-Net unpooling.
Variable ScatterRows(const Variable& x, std::vector<size_t> indices,
                     size_t num_rows);

/// Reinterprets x's row-major data as (rows x cols); sizes must match.
Variable Reshape(const Variable& x, size_t rows, size_t cols);

/// Sum / mean of all entries, as a 1x1 variable.
Variable Sum(const Variable& x);
Variable Mean(const Variable& x);

/// Row sums as rows x 1.
Variable RowSum(const Variable& x);

/// Stops gradient flow: value passes through, backward does not.
Variable Detach(const Variable& x);

}  // namespace adamgnn::autograd

#endif  // ADAMGNN_AUTOGRAD_OPS_H_
