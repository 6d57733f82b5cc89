#include "autograd/ops.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "tensor/kernels.h"
#include "util/logging.h"

namespace adamgnn::autograd {

using internal::AccumulateGrad;
using internal::NewOpNode;
using internal::Node;
using tensor::Matrix;

Variable Add(const Variable& a, const Variable& b) {
  ADAMGNN_CHECK(a.value().SameShape(b.value()));
  auto pa = a.node(), pb = b.node();
  return Variable::FromNode(NewOpNode(
      tensor::Add(a.value(), b.value()), {pa, pb}, [pa, pb](Node& self) {
        AccumulateGrad(pa.get(), self.grad);
        AccumulateGrad(pb.get(), self.grad);
      }));
}

Variable AddN(const std::vector<Variable>& xs) {
  ADAMGNN_CHECK(!xs.empty());
  Variable out = xs[0];
  for (size_t i = 1; i < xs.size(); ++i) out = Add(out, xs[i]);
  return out;
}

Variable Sub(const Variable& a, const Variable& b) {
  ADAMGNN_CHECK(a.value().SameShape(b.value()));
  auto pa = a.node(), pb = b.node();
  return Variable::FromNode(NewOpNode(
      tensor::Sub(a.value(), b.value()), {pa, pb}, [pa, pb](Node& self) {
        AccumulateGrad(pa.get(), self.grad);
        AccumulateGrad(pb.get(), tensor::Scale(self.grad, -1.0));
      }));
}

Variable Scale(const Variable& a, double scalar) {
  auto pa = a.node();
  return Variable::FromNode(NewOpNode(
      tensor::Scale(a.value(), scalar), {pa}, [pa, scalar](Node& self) {
        AccumulateGrad(pa.get(), tensor::Scale(self.grad, scalar));
      }));
}

Variable CwiseMul(const Variable& a, const Variable& b) {
  ADAMGNN_CHECK(a.value().SameShape(b.value()));
  auto pa = a.node(), pb = b.node();
  return Variable::FromNode(NewOpNode(
      tensor::CwiseMul(a.value(), b.value()), {pa, pb}, [pa, pb](Node& self) {
        AccumulateGrad(pa.get(), tensor::CwiseMul(self.grad, pb->value));
        AccumulateGrad(pb.get(), tensor::CwiseMul(self.grad, pa->value));
      }));
}

Variable AddBias(const Variable& a, const Variable& bias) {
  ADAMGNN_CHECK_EQ(bias.rows(), 1u);
  ADAMGNN_CHECK_EQ(bias.cols(), a.cols());
  auto pa = a.node(), pb = bias.node();
  return Variable::FromNode(
      NewOpNode(tensor::AddRowBroadcast(a.value(), bias.value()), {pa, pb},
                [pa, pb](Node& self) {
                  AccumulateGrad(pa.get(), self.grad);
                  AccumulateGrad(pb.get(), tensor::ColSum(self.grad));
                }));
}

Variable MulColBroadcast(const Variable& a, const Variable& col) {
  ADAMGNN_CHECK_EQ(col.cols(), 1u);
  ADAMGNN_CHECK_EQ(col.rows(), a.rows());
  auto pa = a.node(), pc = col.node();
  return Variable::FromNode(
      NewOpNode(tensor::MulColBroadcast(a.value(), col.value()), {pa, pc},
                [pa, pc](Node& self) {
                  AccumulateGrad(pa.get(),
                                 tensor::MulColBroadcast(self.grad, pc->value));
                  Matrix dcol(pc->value.rows(), 1);
                  for (size_t r = 0; r < self.grad.rows(); ++r) {
                    double s = 0.0;
                    const double* gr = self.grad.row(r);
                    const double* ar = pa->value.row(r);
                    for (size_t j = 0; j < self.grad.cols(); ++j) {
                      s += gr[j] * ar[j];
                    }
                    dcol(r, 0) = s;
                  }
                  AccumulateGrad(pc.get(), dcol);
                }));
}

Variable MatMul(const Variable& a, const Variable& b) {
  auto pa = a.node(), pb = b.node();
  return Variable::FromNode(NewOpNode(
      tensor::MatMul(a.value(), b.value()), {pa, pb}, [pa, pb](Node& self) {
        // A constant operand (the feature matrix of an input layer) would
        // get a full GEMM that AccumulateGrad then discards.
        if (pa->requires_grad) {
          AccumulateGrad(pa.get(), tensor::MatMulTransB(self.grad, pb->value));
        }
        if (pb->requires_grad) {
          AccumulateGrad(pb.get(), tensor::MatMulTransA(pa->value, self.grad));
        }
      }));
}

Variable Transpose(const Variable& a) {
  auto pa = a.node();
  return Variable::FromNode(
      NewOpNode(a.value().Transposed(), {pa}, [pa](Node& self) {
        AccumulateGrad(pa.get(), self.grad.Transposed());
      }));
}

Variable Relu(const Variable& a) {
  auto pa = a.node();
  return Variable::FromNode(
      NewOpNode(tensor::Relu(a.value()), {pa}, [pa](Node& self) {
        Matrix d = self.grad;
        for (size_t i = 0; i < d.size(); ++i) {
          if (pa->value.data()[i] <= 0.0) d.data()[i] = 0.0;
        }
        AccumulateGrad(pa.get(), d);
      }));
}

Variable LeakyRelu(const Variable& a, double slope) {
  auto pa = a.node();
  return Variable::FromNode(
      NewOpNode(tensor::LeakyRelu(a.value(), slope), {pa},
                [pa, slope](Node& self) {
                  Matrix d = self.grad;
                  for (size_t i = 0; i < d.size(); ++i) {
                    if (pa->value.data()[i] <= 0.0) d.data()[i] *= slope;
                  }
                  AccumulateGrad(pa.get(), d);
                }));
}

Variable Sigmoid(const Variable& a) {
  auto pa = a.node();
  Matrix y = tensor::Sigmoid(a.value());
  return Variable::FromNode(NewOpNode(std::move(y), {pa}, [pa](Node& self) {
    Matrix d = self.grad;
    for (size_t i = 0; i < d.size(); ++i) {
      const double yi = self.value.data()[i];
      d.data()[i] *= yi * (1.0 - yi);
    }
    AccumulateGrad(pa.get(), d);
  }));
}

Variable Tanh(const Variable& a) {
  auto pa = a.node();
  return Variable::FromNode(
      NewOpNode(tensor::Tanh(a.value()), {pa}, [pa](Node& self) {
        Matrix d = self.grad;
        for (size_t i = 0; i < d.size(); ++i) {
          const double yi = self.value.data()[i];
          d.data()[i] *= 1.0 - yi * yi;
        }
        AccumulateGrad(pa.get(), d);
      }));
}

Variable Exp(const Variable& a) {
  auto pa = a.node();
  return Variable::FromNode(
      NewOpNode(tensor::Exp(a.value()), {pa}, [pa](Node& self) {
        AccumulateGrad(pa.get(), tensor::CwiseMul(self.grad, self.value));
      }));
}

Variable Log(const Variable& a) {
  auto pa = a.node();
  return Variable::FromNode(
      NewOpNode(tensor::Log(a.value()), {pa}, [pa](Node& self) {
        // Match the forward clamp (tensor::Log floors its input at 1e-300):
        // d log(max(x, eps))/dx is 1/x above the floor and 0 below it, so a
        // degenerate zero/negative input gets a finite zero gradient instead
        // of inf/NaN.
        Matrix d = self.grad;
        for (size_t i = 0; i < d.size(); ++i) {
          const double x = pa->value.data()[i];
          d.data()[i] = x > 1e-300 ? d.data()[i] / x : 0.0;
        }
        AccumulateGrad(pa.get(), d);
      }));
}

Variable SoftmaxRows(const Variable& a) {
  auto pa = a.node();
  return Variable::FromNode(
      NewOpNode(tensor::SoftmaxRows(a.value()), {pa}, [pa](Node& self) {
        // dx = y ⊙ (g - <g, y> per row)
        Matrix d(self.grad.rows(), self.grad.cols());
        for (size_t r = 0; r < d.rows(); ++r) {
          const double* g = self.grad.row(r);
          const double* y = self.value.row(r);
          double dot = 0.0;
          for (size_t j = 0; j < d.cols(); ++j) dot += g[j] * y[j];
          double* dr = d.row(r);
          for (size_t j = 0; j < d.cols(); ++j) dr[j] = y[j] * (g[j] - dot);
        }
        AccumulateGrad(pa.get(), d);
      }));
}

Variable ConcatCols(const Variable& a, const Variable& b) {
  ADAMGNN_CHECK_EQ(a.rows(), b.rows());
  auto pa = a.node(), pb = b.node();
  const size_t ca = a.cols();
  return Variable::FromNode(
      NewOpNode(tensor::ConcatCols(a.value(), b.value()), {pa, pb},
                [pa, pb, ca](Node& self) {
                  const size_t cb = pb->value.cols();
                  Matrix da(self.grad.rows(), ca);
                  Matrix db(self.grad.rows(), cb);
                  for (size_t r = 0; r < self.grad.rows(); ++r) {
                    const double* g = self.grad.row(r);
                    std::copy(g, g + ca, da.row(r));
                    std::copy(g + ca, g + ca + cb, db.row(r));
                  }
                  AccumulateGrad(pa.get(), da);
                  AccumulateGrad(pb.get(), db);
                }));
}

Variable ConcatRows(const Variable& a, const Variable& b) {
  ADAMGNN_CHECK_EQ(a.cols(), b.cols());
  auto pa = a.node(), pb = b.node();
  const size_t ra = a.rows();
  return Variable::FromNode(
      NewOpNode(tensor::ConcatRows(a.value(), b.value()), {pa, pb},
                [pa, pb, ra](Node& self) {
                  const size_t cols = self.grad.cols();
                  Matrix da(ra, cols);
                  Matrix db(self.grad.rows() - ra, cols);
                  std::copy(self.grad.data(), self.grad.data() + da.size(),
                            da.data());
                  std::copy(self.grad.data() + da.size(),
                            self.grad.data() + self.grad.size(), db.data());
                  AccumulateGrad(pa.get(), da);
                  AccumulateGrad(pb.get(), db);
                }));
}

Variable SliceCols(const Variable& x, size_t start, size_t len) {
  ADAMGNN_CHECK_LE(start + len, x.cols());
  auto px = x.node();
  Matrix out(x.rows(), len);
  for (size_t r = 0; r < x.rows(); ++r) {
    const double* xr = x.value().row(r);
    std::copy(xr + start, xr + start + len, out.row(r));
  }
  return Variable::FromNode(
      NewOpNode(std::move(out), {px}, [px, start, len](Node& self) {
        Matrix d(px->value.rows(), px->value.cols());
        for (size_t r = 0; r < d.rows(); ++r) {
          const double* g = self.grad.row(r);
          std::copy(g, g + len, d.row(r) + start);
        }
        AccumulateGrad(px.get(), d);
      }));
}

Variable GatherRows(const Variable& x, const std::vector<size_t>& indices) {
  auto px = x.node();
  Matrix out = x.value().GatherRows(indices);
  std::vector<size_t> kept =
      internal::Records(*px) ? indices : std::vector<size_t>();
  return Variable::FromNode(NewOpNode(
      std::move(out), {px}, [px, idx = std::move(kept)](Node& self) {
        AccumulateGrad(px.get(),
                       tensor::IndexAddRows(self.grad, idx, px->value.rows()));
      }));
}

Variable ScatterRows(const Variable& x, std::vector<size_t> indices,
                     size_t num_rows) {
  ADAMGNN_CHECK_EQ(indices.size(), x.rows());
  auto px = x.node();
  Matrix out = tensor::IndexAddRows(x.value(), indices, num_rows);
  return Variable::FromNode(NewOpNode(
      std::move(out), {px}, [px, idx = std::move(indices)](Node& self) {
        Matrix d(px->value.rows(), px->value.cols());
        for (size_t i = 0; i < idx.size(); ++i) {
          const double* g = self.grad.row(idx[i]);
          std::copy(g, g + d.cols(), d.row(i));
        }
        AccumulateGrad(px.get(), d);
      }));
}

Variable Reshape(const Variable& x, size_t rows, size_t cols) {
  ADAMGNN_CHECK_EQ(x.value().size(), rows * cols);
  auto px = x.node();
  Matrix out(rows, cols,
             std::vector<double>(x.value().data(),
                                 x.value().data() + x.value().size()));
  return Variable::FromNode(NewOpNode(std::move(out), {px}, [px](Node& self) {
    Matrix d(px->value.rows(), px->value.cols(),
             std::vector<double>(self.grad.data(),
                                 self.grad.data() + self.grad.size()));
    AccumulateGrad(px.get(), d);
  }));
}

Variable Sum(const Variable& x) {
  auto px = x.node();
  Matrix out(1, 1, x.value().Sum());
  return Variable::FromNode(NewOpNode(std::move(out), {px}, [px](Node& self) {
    Matrix d(px->value.rows(), px->value.cols(), self.grad(0, 0));
    AccumulateGrad(px.get(), d);
  }));
}

Variable Mean(const Variable& x) {
  ADAMGNN_CHECK_GT(x.value().size(), 0u);
  return Scale(Sum(x), 1.0 / static_cast<double>(x.value().size()));
}

Variable RowSum(const Variable& x) {
  auto px = x.node();
  return Variable::FromNode(
      NewOpNode(tensor::RowSum(x.value()), {px}, [px](Node& self) {
        Matrix d(px->value.rows(), px->value.cols());
        for (size_t r = 0; r < d.rows(); ++r) {
          const double g = self.grad(r, 0);
          double* dr = d.row(r);
          for (size_t j = 0; j < d.cols(); ++j) dr[j] = g;
        }
        AccumulateGrad(px.get(), d);
      }));
}

Variable Detach(const Variable& x) { return Variable::Constant(x.value()); }

}  // namespace adamgnn::autograd
