#include "autograd/ops.h"

#include <string>

#include "autograd/variable.h"
#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "tensor/isa.h"
#include "test_util.h"
#include "util/random.h"

namespace adamgnn::autograd {
namespace {

using adamgnn::testing::ExpectGradientsMatch;
using tensor::Matrix;

Variable Param(size_t r, size_t c, uint64_t seed) {
  util::Rng rng(seed);
  return Variable::Parameter(Matrix::Gaussian(r, c, 1.0, &rng));
}

TEST(VariableTest, ConstantDoesNotRequireGrad) {
  Variable c = Variable::Constant(Matrix(2, 2, 1.0));
  EXPECT_FALSE(c.requires_grad());
  Variable p = Param(2, 2, 1);
  EXPECT_TRUE(p.requires_grad());
}

TEST(VariableTest, RequiresGradPropagates) {
  Variable c = Variable::Constant(Matrix(2, 2, 1.0));
  Variable p = Param(2, 2, 2);
  EXPECT_FALSE(Add(c, c).requires_grad());
  EXPECT_TRUE(Add(c, p).requires_grad());
}

TEST(BackwardTest, LinearChain) {
  Variable p = Variable::Parameter(Matrix(1, 1, 3.0));
  Variable loss = Scale(p, 2.0);  // L = 2p -> dL/dp = 2
  Backward(loss);
  EXPECT_DOUBLE_EQ(p.grad()(0, 0), 2.0);
}

TEST(BackwardTest, DiamondAccumulates) {
  Variable p = Variable::Parameter(Matrix(1, 1, 1.5));
  // L = p + p -> dL/dp = 2.
  Backward(Add(p, p));
  EXPECT_DOUBLE_EQ(p.grad()(0, 0), 2.0);
}

TEST(BackwardTest, GradsResetBetweenPasses) {
  Variable p = Variable::Parameter(Matrix(1, 1, 1.0));
  Backward(Scale(p, 3.0));
  EXPECT_DOUBLE_EQ(p.grad()(0, 0), 3.0);
  Backward(Scale(p, 5.0));
  EXPECT_DOUBLE_EQ(p.grad()(0, 0), 5.0);  // not 8
}

TEST(BackwardTest, DeepChainDoesNotOverflowStack) {
  Variable p = Variable::Parameter(Matrix(1, 1, 0.0));
  Variable x = p;
  for (int i = 0; i < 20000; ++i) {
    x = Add(x, Variable::Constant(Matrix(1, 1, 0.0)));
  }
  Backward(x);
  EXPECT_DOUBLE_EQ(p.grad()(0, 0), 1.0);
}

// -- Finite-difference checks for every op. Losses reduce with Sum/Mean and
//    mix in a fixed random weighting so gradients are not uniform.

Variable WeightedSum(const Variable& x, uint64_t seed) {
  util::Rng rng(seed);
  Matrix w = Matrix::Gaussian(x.rows(), x.cols(), 1.0, &rng);
  return Sum(CwiseMul(x, Variable::Constant(w)));
}

TEST(GradCheck, Add) {
  Variable p = Param(3, 2, 10);
  Variable q = Param(3, 2, 11);
  ExpectGradientsMatch(p, [&] { return WeightedSum(Add(p, q), 1); });
  ExpectGradientsMatch(q, [&] { return WeightedSum(Add(p, q), 1); });
}

TEST(GradCheck, Sub) {
  Variable p = Param(2, 3, 12);
  Variable q = Param(2, 3, 13);
  ExpectGradientsMatch(q, [&] { return WeightedSum(Sub(p, q), 2); });
}

TEST(GradCheck, ScaleAndAddN) {
  Variable p = Param(2, 2, 14);
  ExpectGradientsMatch(p, [&] {
    return WeightedSum(AddN({Scale(p, 2.0), Scale(p, -0.5), p}), 3);
  });
}

TEST(GradCheck, CwiseMul) {
  Variable p = Param(2, 3, 15);
  Variable q = Param(2, 3, 16);
  ExpectGradientsMatch(p, [&] { return WeightedSum(CwiseMul(p, q), 4); });
  ExpectGradientsMatch(q, [&] { return WeightedSum(CwiseMul(p, q), 4); });
}

TEST(GradCheck, AddBias) {
  Variable x = Param(4, 3, 17);
  Variable b = Param(1, 3, 18);
  ExpectGradientsMatch(b, [&] { return WeightedSum(AddBias(x, b), 5); });
  ExpectGradientsMatch(x, [&] { return WeightedSum(AddBias(x, b), 5); });
}

TEST(GradCheck, MulColBroadcast) {
  Variable x = Param(3, 4, 19);
  Variable col = Param(3, 1, 20);
  ExpectGradientsMatch(x,
                       [&] { return WeightedSum(MulColBroadcast(x, col), 6); });
  ExpectGradientsMatch(col,
                       [&] { return WeightedSum(MulColBroadcast(x, col), 6); });
}

TEST(GradCheck, MatMulBothSides) {
  Variable a = Param(3, 4, 21);
  Variable b = Param(4, 2, 22);
  ExpectGradientsMatch(a, [&] { return WeightedSum(MatMul(a, b), 7); });
  ExpectGradientsMatch(b, [&] { return WeightedSum(MatMul(a, b), 7); });
}

TEST(GradCheck, Transpose) {
  Variable a = Param(3, 5, 23);
  ExpectGradientsMatch(a, [&] { return WeightedSum(Transpose(a), 8); });
}

TEST(GradCheck, ActivationsAwayFromKinks) {
  // Shift values away from 0 so ReLU/LeakyReLU kinks don't corrupt the
  // finite-difference estimate.
  util::Rng rng(24);
  Matrix base = Matrix::Gaussian(3, 3, 1.0, &rng);
  base.Apply([](double x) { return x + (x >= 0 ? 0.5 : -0.5); });
  Variable p = Variable::Parameter(base);
  ExpectGradientsMatch(p, [&] { return WeightedSum(Relu(p), 9); });
  ExpectGradientsMatch(p, [&] { return WeightedSum(LeakyRelu(p, 0.2), 10); });
  ExpectGradientsMatch(p, [&] { return WeightedSum(Sigmoid(p), 11); });
  ExpectGradientsMatch(p, [&] { return WeightedSum(Tanh(p), 12); });
  ExpectGradientsMatch(p, [&] { return WeightedSum(Exp(p), 13); });
}

TEST(GradCheck, LogOnPositiveInputs) {
  util::Rng rng(25);
  Matrix base = Matrix::Uniform(2, 3, 0.5, 2.0, &rng);
  Variable p = Variable::Parameter(base);
  ExpectGradientsMatch(p, [&] { return WeightedSum(Log(p), 14); });
}

TEST(GradCheck, SoftmaxRows) {
  Variable p = Param(3, 4, 26);
  ExpectGradientsMatch(p, [&] { return WeightedSum(SoftmaxRows(p), 15); });
}

TEST(GradCheck, ConcatColsAndRows) {
  Variable a = Param(3, 2, 27);
  Variable b = Param(3, 3, 28);
  ExpectGradientsMatch(a, [&] { return WeightedSum(ConcatCols(a, b), 16); });
  ExpectGradientsMatch(b, [&] { return WeightedSum(ConcatCols(a, b), 16); });
  Variable c = Param(2, 3, 29);
  ExpectGradientsMatch(b, [&] { return WeightedSum(ConcatRows(b, c), 17); });
  ExpectGradientsMatch(c, [&] { return WeightedSum(ConcatRows(b, c), 17); });
}

TEST(GradCheck, SliceCols) {
  Variable a = Param(3, 5, 30);
  ExpectGradientsMatch(a, [&] { return WeightedSum(SliceCols(a, 1, 3), 18); });
}

TEST(GradCheck, GatherRowsWithRepeats) {
  Variable a = Param(4, 3, 31);
  std::vector<size_t> idx = {2, 0, 2, 3};
  ExpectGradientsMatch(a, [&] { return WeightedSum(GatherRows(a, idx), 19); });
}

TEST(GradCheck, ScatterRows) {
  Variable a = Param(3, 2, 32);
  std::vector<size_t> idx = {4, 1, 4};  // duplicate target accumulates
  ExpectGradientsMatch(a,
                       [&] { return WeightedSum(ScatterRows(a, idx, 6), 20); });
}

TEST(GradCheck, Reshape) {
  Variable a = Param(2, 6, 33);
  ExpectGradientsMatch(a, [&] { return WeightedSum(Reshape(a, 3, 4), 21); });
}

TEST(GradCheck, SumMeanRowSum) {
  Variable a = Param(3, 3, 34);
  ExpectGradientsMatch(a, [&] { return Sum(a); });
  ExpectGradientsMatch(a, [&] { return Mean(a); });
  ExpectGradientsMatch(a, [&] { return WeightedSum(RowSum(a), 22); });
}

TEST(GradCheck, DetachBlocksGradient) {
  Variable p = Variable::Parameter(Matrix(1, 1, 2.0));
  Variable loss = Add(Scale(p, 3.0), Scale(Detach(p), 100.0));
  Backward(loss);
  EXPECT_DOUBLE_EQ(p.grad()(0, 0), 3.0);
}

// Reads a registry counter, which a build with -DADAMGNN_OBS=OFF compiles
// out.
#if !defined(ADAMGNN_OBS_OFF)
TEST(BackwardTest, MatMulSkipsTheGemmForAConstantOperand) {
  const bool was_enabled = obs::Enabled();
  obs::SetEnabled(true);
  const std::string counter =
      std::string("kernel.gemm.") + tensor::IsaName(tensor::ActiveIsa());
  auto gemms = [&counter] {
    for (const auto& [name, value] :
         obs::MetricsRegistry::Global().Collect().counters) {
      if (name == counter) return value;
    }
    return static_cast<uint64_t>(0);
  };
  util::Rng rng(3);
  Variable x = Variable::Constant(Matrix::Gaussian(6, 4, 1.0, &rng));
  Variable w = Param(4, 3, 4);
  Variable loss = Sum(MatMul(x, w));
  const uint64_t before = gemms();
  Backward(loss);
  // dW = Xᵀ·dY only; dX = dY·Wᵀ would be thrown away.
  EXPECT_EQ(gemms() - before, 1u);
  obs::SetEnabled(was_enabled);
}
#endif  // !ADAMGNN_OBS_OFF

TEST(OpsTest, ValueCorrectnessSpotChecks) {
  Variable a = Variable::Constant(Matrix(2, 2, std::vector<double>{1, 2, 3,
                                                                   4}));
  EXPECT_DOUBLE_EQ(Sum(a).value()(0, 0), 10.0);
  EXPECT_DOUBLE_EQ(Mean(a).value()(0, 0), 2.5);
  EXPECT_DOUBLE_EQ(Transpose(a).value()(0, 1), 3.0);
  EXPECT_DOUBLE_EQ(SliceCols(a, 1, 1).value()(1, 0), 4.0);
}

}  // namespace
}  // namespace adamgnn::autograd
