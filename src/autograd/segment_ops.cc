#include "autograd/segment_ops.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "autograd/ops.h"
#include "tensor/kernels.h"
#include "util/logging.h"

namespace adamgnn::autograd {

using internal::AccumulateGrad;
using internal::NewOpNode;
using internal::Node;
using internal::Records;
using tensor::Matrix;

Variable SegmentSum(const Variable& x, const std::vector<size_t>& segments,
                    size_t num_segments) {
  ADAMGNN_CHECK_EQ(segments.size(), x.rows());
  auto px = x.node();
  Matrix out = tensor::SegmentSum(x.value(), segments, num_segments);
  std::vector<size_t> kept = Records(*px) ? segments : std::vector<size_t>();
  return Variable::FromNode(NewOpNode(
      std::move(out), {px}, [px, seg = std::move(kept)](Node& self) {
        Matrix d(px->value.rows(), px->value.cols());
        for (size_t i = 0; i < seg.size(); ++i) {
          const double* g = self.grad.row(seg[i]);
          std::copy(g, g + d.cols(), d.row(i));
        }
        AccumulateGrad(px.get(), d);
      }));
}

Variable SegmentMean(const Variable& x, const std::vector<size_t>& segments,
                     size_t num_segments) {
  ADAMGNN_CHECK_EQ(segments.size(), x.rows());
  auto px = x.node();
  std::vector<double> inv_counts(num_segments, 0.0);
  for (size_t s : segments) {
    ADAMGNN_CHECK_LT(s, num_segments);
    inv_counts[s] += 1.0;
  }
  for (double& c : inv_counts) {
    if (c > 0.0) c = 1.0 / c;
  }
  Matrix out = tensor::SegmentMean(x.value(), segments, num_segments);
  std::vector<size_t> kept = Records(*px) ? segments : std::vector<size_t>();
  return Variable::FromNode(
      NewOpNode(std::move(out), {px},
                [px, seg = std::move(kept), inv_counts](Node& self) {
                  Matrix d(px->value.rows(), px->value.cols());
                  for (size_t i = 0; i < seg.size(); ++i) {
                    const double w = inv_counts[seg[i]];
                    const double* g = self.grad.row(seg[i]);
                    double* dr = d.row(i);
                    for (size_t j = 0; j < d.cols(); ++j) dr[j] = w * g[j];
                  }
                  AccumulateGrad(px.get(), d);
                }));
}

Variable SegmentMax(const Variable& x, const std::vector<size_t>& segments,
                    size_t num_segments) {
  ADAMGNN_CHECK_EQ(segments.size(), x.rows());
  auto px = x.node();
  const size_t d = x.cols();
  // argmax[s * d + j] = input row that owns the max of column j in segment s.
  std::vector<int64_t> argmax;
  Matrix out = tensor::SegmentMax(x.value(), segments, num_segments, &argmax);
  return Variable::FromNode(NewOpNode(
      std::move(out), {px},
      [px, argmax = std::move(argmax), d](Node& self) {
        Matrix dx(px->value.rows(), d);
        for (size_t s = 0; s < self.grad.rows(); ++s) {
          const double* g = self.grad.row(s);
          for (size_t j = 0; j < d; ++j) {
            const int64_t am = argmax[s * d + j];
            if (am >= 0) dx(static_cast<size_t>(am), j) += g[j];
          }
        }
        AccumulateGrad(px.get(), dx);
      }));
}

Variable SegmentSoftmax(const Variable& scores,
                        const std::vector<size_t>& segments,
                        size_t num_segments) {
  ADAMGNN_CHECK_EQ(scores.cols(), 1u);
  ADAMGNN_CHECK_EQ(segments.size(), scores.rows());
  auto ps = scores.node();
  Matrix out = tensor::SegmentSoftmax(scores.value(), segments, num_segments);
  std::vector<size_t> kept = Records(*ps) ? segments : std::vector<size_t>();
  return Variable::FromNode(NewOpNode(
      std::move(out), {ps},
      [ps, seg = std::move(kept), num_segments](Node& self) {
        // ds_i = p_i (g_i - Σ_{j in seg} p_j g_j)
        std::vector<double> seg_dot(num_segments, 0.0);
        const size_t m2 = self.value.rows();
        for (size_t i = 0; i < m2; ++i) {
          seg_dot[seg[i]] += self.grad(i, 0) * self.value(i, 0);
        }
        Matrix d(m2, 1);
        for (size_t i = 0; i < m2; ++i) {
          d(i, 0) = self.value(i, 0) * (self.grad(i, 0) - seg_dot[seg[i]]);
        }
        AccumulateGrad(ps.get(), d);
      }));
}

Variable PairLogits(const Variable& s, const std::vector<size_t>& member,
                    const std::vector<size_t>& ego, const Variable& scale) {
  ADAMGNN_CHECK_EQ(s.cols(), 2u);
  ADAMGNN_CHECK_EQ(member.size(), ego.size());
  const size_t n = s.rows();
  for (size_t p = 0; p < member.size(); ++p) {
    ADAMGNN_CHECK_LT(member[p], n);
    ADAMGNN_CHECK_LT(ego[p], n);
  }
  auto ps = s.node();
  std::shared_ptr<Node> pc;  // null: scale_p = 1
  if (scale.defined()) {
    ADAMGNN_CHECK_EQ(scale.rows(), member.size());
    ADAMGNN_CHECK_EQ(scale.cols(), 1u);
    pc = scale.node();
  }
  const Matrix& sv = s.value();
  Matrix out = Matrix::Uninit(member.size(), 1);
  for (size_t p = 0; p < member.size(); ++p) {
    const double w = pc ? pc->value(p, 0) : 1.0;  // × 1.0 is exact
    out(p, 0) = w * sv(member[p], 0) + sv(ego[p], 1);
  }
  const bool keep = Records(*ps) || (pc && Records(*pc));
  auto pullback = [ps, pc, m = keep ? member : std::vector<size_t>(),
                   e = keep ? ego : std::vector<size_t>()](Node& self) {
    if (ps->requires_grad) {
      Matrix ds(ps->value.rows(), 2);
      for (size_t p = 0; p < m.size(); ++p) {
        const double g = self.grad(p, 0);
        ds(m[p], 0) += pc ? pc->value(p, 0) * g : g;
        ds(e[p], 1) += g;
      }
      AccumulateGrad(ps.get(), std::move(ds));
    }
    if (pc && pc->requires_grad) {
      Matrix dc = Matrix::Uninit(m.size(), 1);
      for (size_t p = 0; p < m.size(); ++p) {
        dc(p, 0) = self.grad(p, 0) * ps->value(m[p], 0);
      }
      AccumulateGrad(pc.get(), std::move(dc));
    }
  };
  return Variable::FromNode(
      pc ? NewOpNode(std::move(out), {ps, pc}, std::move(pullback))
         : NewOpNode(std::move(out), {ps}, std::move(pullback)));
}

}  // namespace adamgnn::autograd
