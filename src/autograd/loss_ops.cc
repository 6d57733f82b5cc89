#include "autograd/loss_ops.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "autograd/ops.h"
#include "tensor/kernels.h"
#include "util/logging.h"

namespace adamgnn::autograd {

using internal::AccumulateGrad;
using internal::NewOpNode;
using internal::Node;
using tensor::Matrix;

namespace {
// Shared numeric floors for the loss kernels. kLogEps keeps log() arguments
// strictly positive (log(1e-300) is finite); kNormEps keeps soft-assignment
// normalizers away from zero when a degenerate embedding collapses every
// kernel weight to 0.
constexpr double kLogEps = 1e-300;
constexpr double kNormEps = 1e-12;
}  // namespace

Variable SoftmaxCrossEntropy(const Variable& logits,
                             const std::vector<int>& labels,
                             const std::vector<size_t>& rows) {
  ADAMGNN_CHECK(!rows.empty());
  ADAMGNN_CHECK_EQ(labels.size(), logits.rows());
  const size_t num_classes = logits.cols();
  auto pl = logits.node();

  // Per-selected-row softmax, cached for the pullback.
  Matrix probs(rows.size(), num_classes);
  double loss = 0.0;
  for (size_t i = 0; i < rows.size(); ++i) {
    const size_t r = rows[i];
    ADAMGNN_CHECK_LT(r, logits.rows());
    const int label = labels[r];
    ADAMGNN_CHECK_GE(label, 0);
    ADAMGNN_CHECK_LT(static_cast<size_t>(label), num_classes);
    const double* x = logits.value().row(r);
    double mx = x[0];
    for (size_t c = 1; c < num_classes; ++c) mx = std::max(mx, x[c]);
    double z = 0.0;
    for (size_t c = 0; c < num_classes; ++c) {
      probs(i, c) = std::exp(x[c] - mx);
      z += probs(i, c);
    }
    for (size_t c = 0; c < num_classes; ++c) probs(i, c) /= z;
    loss -= std::log(std::max(probs(i, static_cast<size_t>(label)), kLogEps));
  }
  loss /= static_cast<double>(rows.size());

  return Variable::FromNode(NewOpNode(
      Matrix(1, 1, loss), {pl},
      [pl, probs = std::move(probs), labels, rows](Node& self) {
        const double scale = self.grad(0, 0) / static_cast<double>(rows.size());
        Matrix d(pl->value.rows(), pl->value.cols());
        for (size_t i = 0; i < rows.size(); ++i) {
          const size_t r = rows[i];
          double* dr = d.row(r);
          for (size_t c = 0; c < d.cols(); ++c) {
            dr[c] += scale * probs(i, c);
          }
          dr[static_cast<size_t>(labels[r])] -= scale;
        }
        AccumulateGrad(pl.get(), d);
      }));
}

std::vector<int> ArgmaxRows(const Matrix& logits) {
  std::vector<int> out(logits.rows());
  for (size_t r = 0; r < logits.rows(); ++r) {
    const double* x = logits.row(r);
    size_t best = 0;
    for (size_t c = 1; c < logits.cols(); ++c) {
      if (x[c] > x[best]) best = c;
    }
    out[r] = static_cast<int>(best);
  }
  return out;
}

Variable BinaryCrossEntropyWithLogits(const Variable& logits,
                                      const std::vector<double>& targets) {
  ADAMGNN_CHECK_EQ(logits.cols(), 1u);
  ADAMGNN_CHECK_EQ(targets.size(), logits.rows());
  ADAMGNN_CHECK(!targets.empty());
  auto pl = logits.node();

  double loss = 0.0;
  for (size_t i = 0; i < targets.size(); ++i) {
    const double x = logits.value()(i, 0);
    const double t = targets[i];
    loss += std::max(x, 0.0) - x * t + std::log1p(std::exp(-std::fabs(x)));
  }
  loss /= static_cast<double>(targets.size());

  return Variable::FromNode(
      NewOpNode(Matrix(1, 1, loss), {pl}, [pl, targets](Node& self) {
        const double scale =
            self.grad(0, 0) / static_cast<double>(targets.size());
        Matrix d(pl->value.rows(), 1);
        for (size_t i = 0; i < targets.size(); ++i) {
          const double x = pl->value(i, 0);
          const double sig =
              x >= 0.0 ? 1.0 / (1.0 + std::exp(-x))
                       : std::exp(x) / (1.0 + std::exp(x));
          d(i, 0) = scale * (sig - targets[i]);
        }
        AccumulateGrad(pl.get(), d);
      }));
}

Variable MeanSquaredError(const Variable& pred, const Matrix& target) {
  ADAMGNN_CHECK(pred.value().SameShape(target));
  ADAMGNN_CHECK_GT(pred.value().size(), 0u);
  auto pp = pred.node();
  double loss = 0.0;
  for (size_t i = 0; i < target.size(); ++i) {
    const double diff = pred.value().data()[i] - target.data()[i];
    loss += diff * diff;
  }
  loss /= static_cast<double>(target.size());
  return Variable::FromNode(
      NewOpNode(Matrix(1, 1, loss), {pp}, [pp, target](Node& self) {
        const double scale =
            2.0 * self.grad(0, 0) / static_cast<double>(target.size());
        Matrix d(pp->value.rows(), pp->value.cols());
        for (size_t i = 0; i < target.size(); ++i) {
          d.data()[i] =
              scale * (pp->value.data()[i] - target.data()[i]);
        }
        AccumulateGrad(pp.get(), d);
      }));
}

Variable EdgeDotProduct(const Variable& h, const std::vector<size_t>& u,
                        const std::vector<size_t>& v) {
  ADAMGNN_CHECK(!u.empty());
  auto ph = h.node();
  const size_t d = h.cols();
  Matrix out = tensor::EdgeDots(h.value(), u, v);
  const bool keep = internal::Records(*ph);
  return Variable::FromNode(NewOpNode(
      std::move(out), {ph},
      [ph, u = keep ? u : std::vector<size_t>(),
       v = keep ? v : std::vector<size_t>(), d](Node& self) {
        Matrix dh(ph->value.rows(), d);
        for (size_t e = 0; e < u.size(); ++e) {
          const double g = self.grad(e, 0);
          const double* hu = ph->value.row(u[e]);
          const double* hv = ph->value.row(v[e]);
          double* du = dh.row(u[e]);
          double* dv = dh.row(v[e]);
          for (size_t j = 0; j < d; ++j) {
            du[j] += g * hv[j];
            dv[j] += g * hu[j];
          }
        }
        AccumulateGrad(ph.get(), dh);
      }));
}

Variable SelfOptimisationLoss(const Variable& h,
                              const std::vector<size_t>& ego_rows) {
  ADAMGNN_CHECK(!ego_rows.empty());
  auto ph = h.node();
  const size_t n = h.rows();
  const size_t K = ego_rows.size();
  const size_t d = h.cols();
  for (size_t e : ego_rows) ADAMGNN_CHECK_LT(e, n);

  // Soft assignment Q with Student-t kernel (μ = 1):
  //   q_ij = (1 + ||h_j - h_{ego_i}||²)^{-1} / Σ_{i'} ...
  Matrix q(n, K);
  Matrix inv_kernel(n, K);  // (1 + d²)^{-1}, cached for backward
  for (size_t j = 0; j < n; ++j) {
    const double* hj = h.value().row(j);
    double z = 0.0;
    for (size_t i = 0; i < K; ++i) {
      const double* mu = h.value().row(ego_rows[i]);
      double dist2 = 0.0;
      for (size_t c = 0; c < d; ++c) {
        const double diff = hj[c] - mu[c];
        dist2 += diff * diff;
      }
      const double s = 1.0 / (1.0 + dist2);
      inv_kernel(j, i) = s;
      q(j, i) = s;
      z += s;
    }
    // z can collapse to 0 when every distance overflows to inf (all kernel
    // weights underflow); the floor keeps q finite instead of 0/0 = NaN.
    for (size_t i = 0; i < K; ++i) q(j, i) /= std::max(z, kNormEps);
  }

  // Target distribution P: sharpen Q and normalize by soft cluster
  // frequency g_i = Σ_j q_ij. P is a constant w.r.t. gradients (standard
  // self-training practice; Xie et al. 2016).
  std::vector<double> freq(K, 0.0);
  for (size_t j = 0; j < n; ++j) {
    for (size_t i = 0; i < K; ++i) freq[i] += q(j, i);
  }
  Matrix p(n, K);
  for (size_t j = 0; j < n; ++j) {
    double z = 0.0;
    for (size_t i = 0; i < K; ++i) {
      p(j, i) = q(j, i) * q(j, i) / std::max(freq[i], kNormEps);
      z += p(j, i);
    }
    for (size_t i = 0; i < K; ++i) p(j, i) /= std::max(z, kNormEps);
  }

  // L = (1/n) Σ_j KL(P_j ‖ Q_j).
  double loss = 0.0;
  for (size_t j = 0; j < n; ++j) {
    for (size_t i = 0; i < K; ++i) {
      if (p(j, i) <= 0.0) continue;
      loss += p(j, i) * std::log(p(j, i) / std::max(q(j, i), kLogEps));
    }
  }
  loss /= static_cast<double>(n);

  return Variable::FromNode(NewOpNode(
      Matrix(1, 1, loss), {ph},
      [ph, q = std::move(q), p = std::move(p),
       inv_kernel = std::move(inv_kernel), ego_rows, n, K, d](Node& self) {
        // ∂L/∂z_j = (2/n) Σ_i s_ij (p_ij − q_ij)(z_j − μ_i), and the
        // opposite sign accumulates into the ego rows (Xie et al. 2016).
        const double scale = 2.0 * self.grad(0, 0) / static_cast<double>(n);
        Matrix dh(ph->value.rows(), d);
        for (size_t j = 0; j < n; ++j) {
          const double* hj = ph->value.row(j);
          double* dj = dh.row(j);
          for (size_t i = 0; i < K; ++i) {
            const double coeff =
                scale * inv_kernel(j, i) * (p(j, i) - q(j, i));
            if (coeff == 0.0) continue;
            const double* mu = ph->value.row(ego_rows[i]);
            double* dmu = dh.row(ego_rows[i]);
            for (size_t c = 0; c < d; ++c) {
              const double diff = hj[c] - mu[c];
              dj[c] += coeff * diff;
              dmu[c] -= coeff * diff;
            }
          }
        }
        AccumulateGrad(ph.get(), dh);
      }));
}

}  // namespace adamgnn::autograd
