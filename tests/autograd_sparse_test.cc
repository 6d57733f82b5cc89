#include "autograd/sparse_ops.h"

#include <memory>

#include "autograd/ops.h"
#include "graph/sparse_matrix.h"
#include "gtest/gtest.h"
#include "tensor/kernels.h"
#include "test_util.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace adamgnn::autograd {
namespace {

using adamgnn::testing::ExpectGradientsMatch;
using graph::SparseMatrix;
using graph::Triplet;
using tensor::Matrix;

Variable WeightedSum(const Variable& x, uint64_t seed) {
  util::Rng rng(seed);
  Matrix w = Matrix::Gaussian(x.rows(), x.cols(), 1.0, &rng);
  return Sum(CwiseMul(x, Variable::Constant(w)));
}

std::shared_ptr<const SparseMatrix> SmallSparse() {
  return std::make_shared<const SparseMatrix>(SparseMatrix::FromTriplets(
      3, 4, {{0, 1, 2.0}, {1, 0, -1.0}, {1, 3, 0.5}, {2, 2, 3.0}}));
}

TEST(SpMMTest, ForwardMatchesDense) {
  auto s = SmallSparse();
  util::Rng rng(1);
  Matrix x = Matrix::Gaussian(4, 3, 1.0, &rng);
  Variable y = SpMM(s, Variable::Constant(x));
  EXPECT_TRUE(tensor::AllClose(y.value(),
                               tensor::MatMul(s->ToDense(), x), 1e-12));
}

TEST(SpMMTest, GradientMatchesFiniteDifference) {
  auto s = SmallSparse();
  util::Rng rng(2);
  Variable x = Variable::Parameter(Matrix::Gaussian(4, 3, 1.0, &rng));
  ExpectGradientsMatch(x, [&] { return WeightedSum(SpMM(s, x), 3); });
}

TEST(SpMMTransposeTest, ForwardMatchesDense) {
  auto s = SmallSparse();
  util::Rng rng(3);
  Matrix x = Matrix::Gaussian(3, 2, 1.0, &rng);
  Variable y = SpMMTranspose(s, Variable::Constant(x));
  EXPECT_TRUE(tensor::AllClose(
      y.value(), tensor::MatMul(s->ToDense().Transposed(), x), 1e-12));
}

TEST(SpMMTransposeTest, GradientMatchesFiniteDifference) {
  auto s = SmallSparse();
  util::Rng rng(4);
  Variable x = Variable::Parameter(Matrix::Gaussian(3, 2, 1.0, &rng));
  ExpectGradientsMatch(x, [&] { return WeightedSum(SpMMTranspose(s, x), 5); });
}

std::shared_ptr<const SparsePattern> SmallPattern() {
  auto p = std::make_shared<SparsePattern>();
  p->rows = 3;
  p->cols = 4;
  p->row_indices = {0, 1, 1, 2};
  p->col_indices = {1, 0, 3, 2};
  return p;
}

TEST(SpMMValuesTest, ForwardMatchesMaterialized) {
  auto pattern = SmallPattern();
  util::Rng rng(5);
  Matrix vals = Matrix::Gaussian(4, 1, 1.0, &rng);
  Matrix x = Matrix::Gaussian(4, 3, 1.0, &rng);
  Variable y = SpMMValues(pattern, Variable::Constant(vals),
                          Variable::Constant(x));
  SparseMatrix s = SparseMatrix::FromCoordinates(
      pattern->rows, pattern->cols, pattern->row_indices,
      pattern->col_indices,
      std::vector<double>(vals.data(), vals.data() + vals.size()));
  EXPECT_TRUE(tensor::AllClose(y.value(), s.MultiplyDense(x), 1e-12));
}

TEST(SpMMValuesTest, GradientWrtValues) {
  auto pattern = SmallPattern();
  util::Rng rng(6);
  Variable vals = Variable::Parameter(Matrix::Gaussian(4, 1, 1.0, &rng));
  Variable x = Variable::Constant(Matrix::Gaussian(4, 3, 1.0, &rng));
  ExpectGradientsMatch(
      vals, [&] { return WeightedSum(SpMMValues(pattern, vals, x), 7); });
}

TEST(SpMMValuesTest, GradientWrtDense) {
  auto pattern = SmallPattern();
  util::Rng rng(7);
  Variable vals = Variable::Constant(Matrix::Gaussian(4, 1, 1.0, &rng));
  Variable x = Variable::Parameter(Matrix::Gaussian(4, 3, 1.0, &rng));
  ExpectGradientsMatch(
      x, [&] { return WeightedSum(SpMMValues(pattern, vals, x), 8); });
}

TEST(SpMMValuesTest, GradientWrtBothSimultaneously) {
  auto pattern = SmallPattern();
  util::Rng rng(8);
  Variable vals = Variable::Parameter(Matrix::Gaussian(4, 1, 1.0, &rng));
  Variable x = Variable::Parameter(Matrix::Gaussian(4, 3, 1.0, &rng));
  auto loss = [&] { return WeightedSum(SpMMValues(pattern, vals, x), 9); };
  ExpectGradientsMatch(vals, loss);
  ExpectGradientsMatch(x, loss);
}

TEST(SpMMValuesTest, DuplicateCoordinatesAccumulate) {
  auto p = std::make_shared<SparsePattern>();
  p->rows = 2;
  p->cols = 2;
  p->row_indices = {0, 0};
  p->col_indices = {1, 1};  // two entries at the same position
  Variable vals =
      Variable::Constant(Matrix(2, 1, std::vector<double>{2.0, 3.0}));
  Variable x = Variable::Constant(Matrix::Identity(2));
  Variable y = SpMMValues(p, vals, x);
  EXPECT_DOUBLE_EQ(y.value()(0, 1), 5.0);
}

TEST(SpMMTest, ChainedUnpoolingGradient) {
  // Two-level S chain, as in AdamGNN's unpooling: S1 (4x3), S2 (3x2).
  auto p1 = std::make_shared<SparsePattern>();
  p1->rows = 4;
  p1->cols = 3;
  p1->row_indices = {0, 1, 2, 3};
  p1->col_indices = {0, 0, 1, 2};
  auto p2 = std::make_shared<SparsePattern>();
  p2->rows = 3;
  p2->cols = 2;
  p2->row_indices = {0, 1, 2};
  p2->col_indices = {0, 1, 1};
  util::Rng rng(10);
  Variable v1 = Variable::Parameter(Matrix::Uniform(4, 1, 0.2, 1.0, &rng));
  Variable v2 = Variable::Parameter(Matrix::Uniform(3, 1, 0.2, 1.0, &rng));
  Variable h = Variable::Parameter(Matrix::Gaussian(2, 3, 1.0, &rng));
  auto loss = [&] {
    return WeightedSum(SpMMValues(p1, v1, SpMMValues(p2, v2, h)), 11);
  };
  ExpectGradientsMatch(v1, loss);
  ExpectGradientsMatch(v2, loss);
  ExpectGradientsMatch(h, loss);
}

// ---------------------------------------------------------------------------
// Threading determinism: the CSR SpMM forward/backward paths must produce
// bitwise-identical values and gradients at thread counts {1, 2, 7}. Sizes
// are chosen above the nnz * cols parallelization gate.
// ---------------------------------------------------------------------------

std::shared_ptr<const SparseMatrix> LargeSparse(size_t rows, size_t cols,
                                                size_t nnz, uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Triplet> t;
  t.reserve(nnz);
  for (size_t k = 0; k < nnz; ++k) {
    t.push_back({rng.NextUint64(rows), rng.NextUint64(cols),
                 rng.NextUniform(0.1, 1.0)});
  }
  return std::make_shared<const SparseMatrix>(
      SparseMatrix::FromTriplets(rows, cols, std::move(t)));
}

std::shared_ptr<SparsePattern> LargePattern(size_t rows, size_t cols,
                                            size_t nnz, uint64_t seed) {
  util::Rng rng(seed);
  auto p = std::make_shared<SparsePattern>();
  p->rows = rows;
  p->cols = cols;
  for (size_t k = 0; k < nnz; ++k) {
    p->row_indices.push_back(rng.NextUint64(rows));
    p->col_indices.push_back(rng.NextUint64(cols));
  }
  return p;
}

template <typename Fn>
void ExpectBitwiseIdenticalAcrossThreadCounts(const Fn& fn) {
  util::SetNumThreads(1);
  const std::vector<Matrix> reference = fn();
  for (int t : {2, 7}) {
    util::SetNumThreads(t);
    const std::vector<Matrix> got = fn();
    ASSERT_EQ(got.size(), reference.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_TRUE(got[i] == reference[i])
          << "output " << i << " differs at threads=" << t;
    }
  }
  util::SetNumThreads(0);
}

TEST(SpMMThreadingTest, ForwardAndBackwardBitwiseAcrossThreadCounts) {
  auto s = LargeSparse(2000, 1500, 30000, 31);
  util::Rng rng(32);
  const Matrix x0 = Matrix::Gaussian(1500, 64, 1.0, &rng);
  ExpectBitwiseIdenticalAcrossThreadCounts([&] {
    Variable x = Variable::Parameter(x0);
    Variable y = SpMM(s, x);
    Backward(WeightedSum(y, 33));
    return std::vector<Matrix>{y.value(), x.grad()};
  });
}

TEST(SpMMThreadingTest, TransposeForwardAndBackwardBitwiseAcrossThreadCounts) {
  auto s = LargeSparse(2000, 1500, 30000, 34);
  util::Rng rng(35);
  const Matrix x0 = Matrix::Gaussian(2000, 64, 1.0, &rng);
  ExpectBitwiseIdenticalAcrossThreadCounts([&] {
    Variable x = Variable::Parameter(x0);
    Variable y = SpMMTranspose(s, x);
    Backward(WeightedSum(y, 36));
    return std::vector<Matrix>{y.value(), x.grad()};
  });
}

TEST(SpMMValuesThreadingTest, ForwardAndBackwardBitwiseAcrossThreadCounts) {
  auto p = LargePattern(2000, 1500, 30000, 37);
  util::Rng rng(38);
  const Matrix v0 = Matrix::Uniform(p->nnz(), 1, 0.2, 1.0, &rng);
  const Matrix x0 = Matrix::Gaussian(1500, 64, 1.0, &rng);
  ExpectBitwiseIdenticalAcrossThreadCounts([&] {
    Variable v = Variable::Parameter(v0);
    Variable x = Variable::Parameter(x0);
    Variable y = SpMMValues(p, v, x);
    Backward(WeightedSum(y, 39));
    return std::vector<Matrix>{y.value(), v.grad(), x.grad()};
  });
}

// ---------------------------------------------------------------------------
// Values and gradients of every autograd sparse op against independent
// serial loops, bitwise, at every thread count. Each loop folds each output
// element in ascending source order from +0.0 — the order the sparse kernels
// promise for every strategy and decomposition. The shape sits above the
// parallel-work gate, so with more than one worker the row-parallel gathers
// run in many chunks.
// ---------------------------------------------------------------------------

/// out(r, :) += v * x(c, :) over the CSR entries (r, c, v) in storage order;
/// `transpose` swaps the roles of r and c.
Matrix SerialCsrMultiply(const SparseMatrix& s, const Matrix& x,
                         bool transpose) {
  Matrix out(transpose ? s.cols() : s.rows(), x.cols());
  for (size_t r = 0; r < s.rows(); ++r) {
    for (size_t k = s.row_offsets()[r]; k < s.row_offsets()[r + 1]; ++k) {
      const size_t c = s.col_indices()[k];
      const size_t dst = transpose ? c : r, src = transpose ? r : c;
      for (size_t j = 0; j < x.cols(); ++j) {
        out(dst, j) += s.values()[k] * x(src, j);
      }
    }
  }
  return out;
}

/// out(dst[k], :) += v(k) * x(src[k], :) for k ascending.
Matrix SerialPatternMultiply(const std::vector<size_t>& dst,
                             const std::vector<size_t>& src, const Matrix& v,
                             const Matrix& x, size_t out_rows) {
  Matrix out(out_rows, x.cols());
  for (size_t k = 0; k < dst.size(); ++k) {
    for (size_t j = 0; j < x.cols(); ++j) {
      out(dst[k], j) += v(k, 0) * x(src[k], j);
    }
  }
  return out;
}

/// Sum(y ⊙ w): its gradient with respect to y is exactly w.
Variable DotWith(const Variable& y, const Matrix& w) {
  return Sum(CwiseMul(y, Variable::Constant(w)));
}

TEST(SparseSerialLoopTest, OpsMatchSerialLoopsBitwiseAtEveryThreadCount) {
  auto s = LargeSparse(2000, 1500, 30000, 50);
  auto p = LargePattern(2000, 1500, 30000, 51);
  util::Rng rng(52);
  const Matrix xs0 = Matrix::Gaussian(1500, 64, 1.0, &rng);
  const Matrix xt0 = Matrix::Gaussian(2000, 64, 1.0, &rng);
  const Matrix v0 = Matrix::Uniform(p->nnz(), 1, 0.2, 1.0, &rng);
  const Matrix w_spmm = Matrix::Gaussian(2000, 64, 1.0, &rng);
  const Matrix w_spmmt = Matrix::Gaussian(1500, 64, 1.0, &rng);
  const Matrix w_values = Matrix::Gaussian(2000, 64, 1.0, &rng);

  std::vector<Matrix> expect;
  expect.push_back(SerialCsrMultiply(*s, xs0, /*transpose=*/false));
  expect.push_back(SerialCsrMultiply(*s, w_spmm, /*transpose=*/true));
  expect.push_back(SerialCsrMultiply(*s, xt0, /*transpose=*/true));
  expect.push_back(SerialCsrMultiply(*s, w_spmmt, /*transpose=*/false));
  expect.push_back(SerialPatternMultiply(p->row_indices, p->col_indices, v0,
                                         xs0, p->rows));
  Matrix dvals(p->nnz(), 1);
  for (size_t k = 0; k < p->nnz(); ++k) {
    double acc = 0.0;
    for (size_t j = 0; j < xs0.cols(); ++j) {
      acc += w_values(p->row_indices[k], j) * xs0(p->col_indices[k], j);
    }
    dvals(k, 0) = acc;
  }
  expect.push_back(dvals);
  expect.push_back(SerialPatternMultiply(p->col_indices, p->row_indices, v0,
                                         w_values, p->cols));

  auto run = [&] {
    std::vector<Matrix> out;
    {
      Variable x = Variable::Parameter(xs0);
      Variable y = SpMM(s, x);
      Backward(DotWith(y, w_spmm));
      out.push_back(y.value());
      out.push_back(x.grad());
    }
    {
      Variable x = Variable::Parameter(xt0);
      Variable y = SpMMTranspose(s, x);
      Backward(DotWith(y, w_spmmt));
      out.push_back(y.value());
      out.push_back(x.grad());
    }
    {
      Variable v = Variable::Parameter(v0);
      Variable x = Variable::Parameter(xs0);
      Variable y = SpMMValues(p, v, x);
      Backward(DotWith(y, w_values));
      out.push_back(y.value());
      out.push_back(v.grad());
      out.push_back(x.grad());
    }
    return out;
  };
  for (int t : {1, 2, 4, 7}) {
    util::SetNumThreads(t);
    const std::vector<Matrix> got = run();
    ASSERT_EQ(got.size(), expect.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_TRUE(got[i] == expect[i])
          << "output " << i << " differs from its serial loop at threads="
          << t;
    }
  }
  util::SetNumThreads(0);
}

// ---------------------------------------------------------------------------
// Edge cases: empty pattern / empty operand shapes.
// ---------------------------------------------------------------------------

TEST(SpMMValuesEdgeTest, EmptyPatternYieldsZeroOutputAndGradients) {
  auto p = std::make_shared<SparsePattern>();
  p->rows = 3;
  p->cols = 2;
  util::Rng rng(40);
  Variable v = Variable::Parameter(Matrix(0, 1));
  Variable x = Variable::Parameter(Matrix::Gaussian(2, 4, 1.0, &rng));
  Variable y = SpMMValues(p, v, x);
  EXPECT_TRUE(tensor::AllClose(y.value(), Matrix(3, 4), 0.0));
  Backward(WeightedSum(y, 41));
  EXPECT_TRUE(tensor::AllClose(x.grad(), Matrix(2, 4), 0.0));
}

TEST(SpMMEdgeTest, EmptySparseMatrixProducts) {
  auto s = std::make_shared<const SparseMatrix>(
      SparseMatrix::FromTriplets(0, 4, {}));
  util::Rng rng(42);
  Variable x = Variable::Constant(Matrix::Gaussian(4, 3, 1.0, &rng));
  Variable y = SpMM(s, x);
  EXPECT_EQ(y.rows(), 0u);
  EXPECT_EQ(y.cols(), 3u);
  // Transpose direction: (0x4)^T * (0x3) -> 4x3 zeros.
  Variable z = SpMMTranspose(s, Variable::Constant(Matrix(0, 3)));
  EXPECT_TRUE(tensor::AllClose(z.value(), Matrix(4, 3), 0.0));
}

}  // namespace
}  // namespace adamgnn::autograd
