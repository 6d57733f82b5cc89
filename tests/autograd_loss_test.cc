#include "autograd/loss_ops.h"

#include <cmath>

#include "autograd/ops.h"
#include "gtest/gtest.h"
#include "test_util.h"
#include "util/random.h"

namespace adamgnn::autograd {
namespace {

using adamgnn::testing::ExpectGradientsMatch;
using tensor::Matrix;

TEST(SoftmaxCrossEntropyTest, UniformLogitsGiveLogC) {
  Variable logits = Variable::Constant(Matrix(2, 4, 0.0));
  Variable loss = SoftmaxCrossEntropy(logits, {1, 3}, {0, 1});
  EXPECT_NEAR(loss.value()(0, 0), std::log(4.0), 1e-12);
}

TEST(SoftmaxCrossEntropyTest, ConfidentCorrectIsNearZero) {
  Matrix m(1, 3, 0.0);
  m(0, 2) = 50.0;
  Variable loss = SoftmaxCrossEntropy(Variable::Constant(m), {2}, {0});
  EXPECT_NEAR(loss.value()(0, 0), 0.0, 1e-12);
}

TEST(SoftmaxCrossEntropyTest, OnlySelectedRowsGetGradient) {
  util::Rng rng(1);
  Variable logits = Variable::Parameter(Matrix::Gaussian(4, 3, 1.0, &rng));
  Backward(SoftmaxCrossEntropy(logits, {0, 1, 2, 0}, {1, 3}));
  for (size_t c = 0; c < 3; ++c) {
    EXPECT_DOUBLE_EQ(logits.grad()(0, c), 0.0);
    EXPECT_DOUBLE_EQ(logits.grad()(2, c), 0.0);
    EXPECT_NE(logits.grad()(1, c), 0.0);
  }
}

TEST(SoftmaxCrossEntropyTest, GradientMatchesFiniteDifference) {
  util::Rng rng(2);
  Variable logits = Variable::Parameter(Matrix::Gaussian(5, 4, 1.0, &rng));
  std::vector<int> labels = {0, 1, 2, 3, 1};
  std::vector<size_t> rows = {0, 2, 4};
  ExpectGradientsMatch(
      logits, [&] { return SoftmaxCrossEntropy(logits, labels, rows); });
}

TEST(ArgmaxRowsTest, PicksLargest) {
  Matrix m(2, 3, std::vector<double>{1, 5, 2, 9, 0, 3});
  EXPECT_EQ(ArgmaxRows(m), (std::vector<int>{1, 0}));
}

TEST(BceWithLogitsTest, KnownValue) {
  Variable logits =
      Variable::Constant(Matrix(2, 1, std::vector<double>{0.0, 0.0}));
  Variable loss = BinaryCrossEntropyWithLogits(logits, {1.0, 0.0});
  EXPECT_NEAR(loss.value()(0, 0), std::log(2.0), 1e-12);
}

TEST(BceWithLogitsTest, StableAtExtremeLogits) {
  Variable logits = Variable::Constant(
      Matrix(2, 1, std::vector<double>{500.0, -500.0}));
  Variable loss = BinaryCrossEntropyWithLogits(logits, {1.0, 0.0});
  EXPECT_TRUE(loss.value().AllFinite());
  EXPECT_NEAR(loss.value()(0, 0), 0.0, 1e-12);
}

TEST(BceWithLogitsTest, GradientMatchesFiniteDifference) {
  util::Rng rng(3);
  Variable logits = Variable::Parameter(Matrix::Gaussian(6, 1, 1.0, &rng));
  std::vector<double> targets = {1, 0, 1, 1, 0, 0};
  ExpectGradientsMatch(
      logits, [&] { return BinaryCrossEntropyWithLogits(logits, targets); });
}

TEST(MseTest, ZeroWhenEqual) {
  util::Rng rng(4);
  Matrix t = Matrix::Gaussian(3, 3, 1.0, &rng);
  Variable loss = MeanSquaredError(Variable::Constant(t), t);
  EXPECT_DOUBLE_EQ(loss.value()(0, 0), 0.0);
}

TEST(MseTest, GradientMatchesFiniteDifference) {
  util::Rng rng(5);
  Variable pred = Variable::Parameter(Matrix::Gaussian(3, 2, 1.0, &rng));
  Matrix target = Matrix::Gaussian(3, 2, 1.0, &rng);
  ExpectGradientsMatch(pred,
                       [&] { return MeanSquaredError(pred, target); });
}

TEST(EdgeDotProductTest, ForwardValues) {
  Matrix h(3, 2, std::vector<double>{1, 0, 0, 2, 3, 1});
  Variable logits = EdgeDotProduct(Variable::Constant(h), {0, 1}, {1, 2});
  EXPECT_DOUBLE_EQ(logits.value()(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(logits.value()(1, 0), 2.0);
}

TEST(EdgeDotProductTest, GradientMatchesFiniteDifference) {
  util::Rng rng(6);
  Variable h = Variable::Parameter(Matrix::Gaussian(4, 3, 1.0, &rng));
  const std::vector<size_t> u = {0, 2, 0, 1}, v = {1, 3, 3, 1};
  ExpectGradientsMatch(h, [&] {
    util::Rng wrng(7);
    Matrix w = Matrix::Gaussian(4, 1, 1.0, &wrng);
    return Sum(CwiseMul(EdgeDotProduct(h, u, v), Variable::Constant(w)));
  });
}

TEST(SelfOptimisationLossTest, NonNegativeAndFinite) {
  util::Rng rng(8);
  Variable h = Variable::Parameter(Matrix::Gaussian(10, 4, 1.0, &rng));
  Variable loss = SelfOptimisationLoss(h, {1, 5, 8});
  EXPECT_GE(loss.value()(0, 0), -1e-9);
  EXPECT_TRUE(loss.value().AllFinite());
}

// Reference implementation: Q(h) with the Student-t kernel and KL(P‖Q(h))
// for a *frozen* target P — the objective whose gradient the DEC convention
// (Xie et al. 2016) defines. Used to finite-difference the analytic pullback.
Matrix StudentTQ(const Matrix& h, const std::vector<size_t>& egos) {
  Matrix q(h.rows(), egos.size());
  for (size_t j = 0; j < h.rows(); ++j) {
    double z = 0.0;
    for (size_t i = 0; i < egos.size(); ++i) {
      double d2 = 0.0;
      for (size_t c = 0; c < h.cols(); ++c) {
        const double diff = h(j, c) - h(egos[i], c);
        d2 += diff * diff;
      }
      q(j, i) = 1.0 / (1.0 + d2);
      z += q(j, i);
    }
    for (size_t i = 0; i < egos.size(); ++i) q(j, i) /= z;
  }
  return q;
}

double FrozenKl(const Matrix& p, const Matrix& q) {
  double loss = 0.0;
  for (size_t j = 0; j < p.rows(); ++j) {
    for (size_t i = 0; i < p.cols(); ++i) {
      if (p(j, i) > 0.0) loss += p(j, i) * std::log(p(j, i) / q(j, i));
    }
  }
  return loss / static_cast<double>(p.rows());
}

TEST(SelfOptimisationLossTest, GradientMatchesFrozenTargetFiniteDifference) {
  util::Rng rng(9);
  Variable h = Variable::Parameter(Matrix::Gaussian(6, 3, 1.0, &rng));
  std::vector<size_t> egos = {0, 4};

  // Analytic gradient from the op (which freezes P at the current h).
  Backward(SelfOptimisationLoss(h, egos));
  Matrix analytic = h.grad();

  // Frozen target P derived from the unperturbed h, replicated here.
  Matrix q0 = StudentTQ(h.value(), egos);
  std::vector<double> freq(egos.size(), 0.0);
  for (size_t j = 0; j < q0.rows(); ++j) {
    for (size_t i = 0; i < q0.cols(); ++i) freq[i] += q0(j, i);
  }
  Matrix p(q0.rows(), q0.cols());
  for (size_t j = 0; j < q0.rows(); ++j) {
    double z = 0.0;
    for (size_t i = 0; i < q0.cols(); ++i) {
      p(j, i) = q0(j, i) * q0(j, i) / freq[i];
      z += p(j, i);
    }
    for (size_t i = 0; i < q0.cols(); ++i) p(j, i) /= z;
  }

  const double eps = 1e-6;
  Matrix& v = h.mutable_value();
  for (size_t idx = 0; idx < v.size(); ++idx) {
    const double orig = v.data()[idx];
    v.data()[idx] = orig + eps;
    const double up = FrozenKl(p, StudentTQ(v, egos));
    v.data()[idx] = orig - eps;
    const double down = FrozenKl(p, StudentTQ(v, egos));
    v.data()[idx] = orig;
    const double numeric = (up - down) / (2.0 * eps);
    EXPECT_NEAR(analytic.data()[idx], numeric, 1e-6)
        << "flat index " << idx;
  }
}

TEST(SelfOptimisationLossTest, SelfTrainingSharpensAssignments) {
  // The DEC objective with a per-step refreshed target is a self-training
  // procedure: it need not decrease monotonically, but it should *sharpen*
  // the soft assignments (nodes commit to one ego-network).
  util::Rng rng(10);
  Variable h = Variable::Parameter(Matrix::Gaussian(12, 4, 1.0, &rng));
  std::vector<size_t> egos = {2, 7, 9};
  auto mean_confidence = [&] {
    Matrix q = StudentTQ(h.value(), egos);
    double conf = 0.0;
    for (size_t j = 0; j < q.rows(); ++j) {
      double best = 0.0;
      for (size_t i = 0; i < q.cols(); ++i) best = std::max(best, q(j, i));
      conf += best;
    }
    return conf / static_cast<double>(q.rows());
  };
  const double before = mean_confidence();
  for (int step = 0; step < 40; ++step) {
    Variable loss = SelfOptimisationLoss(h, egos);
    Backward(loss);
    Matrix& v = h.mutable_value();
    for (size_t i = 0; i < v.size(); ++i) {
      v.data()[i] -= 0.5 * h.grad().data()[i];
    }
  }
  EXPECT_GT(mean_confidence(), before);
}

}  // namespace
}  // namespace adamgnn::autograd
