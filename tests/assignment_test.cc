#include "core/assignment.h"

#include "autograd/ops.h"
#include "core/hyper_features.h"
#include "core/unpooling.h"
#include "gtest/gtest.h"
#include "test_util.h"
#include "util/random.h"

namespace adamgnn::core {
namespace {

using adamgnn::testing::ExpectGradientsMatch;
using adamgnn::testing::TwoTriangles;
using autograd::Variable;
using tensor::Matrix;

struct Fixture {
  graph::Graph g;
  std::vector<std::vector<size_t>> adj;
  EgoPairs pairs;
  FitnessScorer scorer;
  Variable h;
  FitnessScorer::Scores scores;
  Selection sel;

  explicit Fixture(uint64_t seed)
      : g(TwoTriangles()),
        adj(AdjacencyLists(g)),
        pairs(EgoPairs::Build(adj, 1)),
        scorer(4, [] {
          static util::Rng rng(3);
          return &rng;
        }()) {
    util::Rng frng(seed);
    h = Variable::Parameter(Matrix::Gaussian(6, 4, 1.0, &frng));
    scores = scorer.Score(pairs, h);
    sel = SelectEgoNetworks(scores.ego_phi.value(), adj, pairs);
  }
};

TEST(AssignmentTest, ShapeAndColumnLayout) {
  Fixture f(1);
  Assignment asg = BuildAssignment(f.pairs, f.sel, f.scores);
  EXPECT_EQ(asg.pattern->rows, 6u);
  EXPECT_EQ(asg.pattern->cols, f.sel.num_hyper_nodes());
  EXPECT_EQ(asg.values.rows(), asg.pattern->nnz());
}

TEST(AssignmentTest, EgoRowsCarryOne) {
  Fixture f(2);
  Assignment asg = BuildAssignment(f.pairs, f.sel, f.scores);
  graph::SparseMatrix s = asg.pattern->WithValues(std::vector<double>(
      asg.values.value().data(),
      asg.values.value().data() + asg.values.value().size()));
  for (size_t c = 0; c < f.sel.selected_egos.size(); ++c) {
    EXPECT_DOUBLE_EQ(s.At(f.sel.selected_egos[c], c), 1.0);
  }
}

TEST(AssignmentTest, RetainedRowsIdentity) {
  Fixture f(3);
  Assignment asg = BuildAssignment(f.pairs, f.sel, f.scores);
  graph::SparseMatrix s = asg.pattern->WithValues(std::vector<double>(
      asg.values.value().data(),
      asg.values.value().data() + asg.values.value().size()));
  for (size_t r = 0; r < f.sel.retained_nodes.size(); ++r) {
    const size_t col = f.sel.selected_egos.size() + r;
    EXPECT_DOUBLE_EQ(s.At(f.sel.retained_nodes[r], col), 1.0);
  }
}

TEST(AssignmentTest, MemberEntriesMatchPhi) {
  Fixture f(4);
  Assignment asg = BuildAssignment(f.pairs, f.sel, f.scores);
  // The leading kept_pair_indices values must equal the gathered φ.
  for (size_t i = 0; i < asg.kept_pair_indices.size(); ++i) {
    EXPECT_DOUBLE_EQ(asg.values.value()(i, 0),
                     f.scores.pair_phi.value()(asg.kept_pair_indices[i], 0));
  }
}

TEST(AssignmentTest, NextAdjacencySymmetricNonNegative) {
  Fixture f(5);
  Assignment asg = BuildAssignment(f.pairs, f.sel, f.scores);
  graph::SparseMatrix prev = graph::SparseMatrix::Adjacency(f.g);
  graph::SparseMatrix next = NextAdjacency(prev, asg);
  EXPECT_EQ(next.rows(), f.sel.num_hyper_nodes());
  EXPECT_EQ(next.cols(), f.sel.num_hyper_nodes());
  Matrix d = next.ToDense();
  for (size_t i = 0; i < d.rows(); ++i) {
    for (size_t j = 0; j < d.cols(); ++j) {
      EXPECT_NEAR(d(i, j), d(j, i), 1e-10);
      EXPECT_GE(d(i, j), 0.0);
    }
  }
}

TEST(AssignmentTest, AdjacencyListsFromSparseDropSelfLoops) {
  graph::SparseMatrix m = graph::SparseMatrix::FromTriplets(
      3, 3,
      {{0, 0, 1.0}, {0, 1, 2.0}, {1, 0, 2.0}, {2, 2, 5.0}});
  auto lists = AdjacencyListsFromSparse(m);
  EXPECT_EQ(lists[0], (std::vector<size_t>{1}));
  EXPECT_EQ(lists[1], (std::vector<size_t>{0}));
  EXPECT_TRUE(lists[2].empty());
}

TEST(HyperFeatureTest, OutputShapeMatchesHyperNodes) {
  Fixture f(6);
  Assignment asg = BuildAssignment(f.pairs, f.sel, f.scores);
  util::Rng rng(7);
  HyperFeatureInit init(4, &rng);
  Variable x_k = init.Initialise(f.sel, asg, f.scores, f.h);
  EXPECT_EQ(x_k.rows(), f.sel.num_hyper_nodes());
  EXPECT_EQ(x_k.cols(), 4u);
  EXPECT_TRUE(x_k.value().AllFinite());
}

TEST(HyperFeatureTest, RetainedRowsKeepTheirRepresentation) {
  Fixture f(8);
  Assignment asg = BuildAssignment(f.pairs, f.sel, f.scores);
  util::Rng rng(9);
  HyperFeatureInit init(4, &rng);
  Variable x_k = init.Initialise(f.sel, asg, f.scores, f.h);
  for (size_t r = 0; r < f.sel.retained_nodes.size(); ++r) {
    const size_t row = f.sel.selected_egos.size() + r;
    for (size_t j = 0; j < 4; ++j) {
      EXPECT_DOUBLE_EQ(x_k.value()(row, j),
                       f.h.value()(f.sel.retained_nodes[r], j));
    }
  }
}

TEST(HyperFeatureTest, GradientsReachInputRepresentations) {
  Fixture f(10);
  Assignment asg = BuildAssignment(f.pairs, f.sel, f.scores);
  util::Rng rng(11);
  HyperFeatureInit init(4, &rng);
  ExpectGradientsMatch(
      f.h,
      [&] {
        // Rebuild the differentiable pipeline from the perturbed h.
        FitnessScorer::Scores scores = f.scorer.Score(f.pairs, f.h);
        Assignment a2 = BuildAssignment(f.pairs, f.sel, scores);
        Variable x_k = init.Initialise(f.sel, a2, scores, f.h);
        util::Rng wrng(12);
        Matrix w = Matrix::Gaussian(x_k.rows(), x_k.cols(), 1.0, &wrng);
        return autograd::Sum(
            autograd::CwiseMul(x_k, Variable::Constant(w)));
      },
      1e-5, 5e-6);
}

TEST(UnpoolingTest, RestoresOriginalRowCount) {
  Fixture f(13);
  Assignment asg = BuildAssignment(f.pairs, f.sel, f.scores);
  util::Rng rng(14);
  Variable h_k = Variable::Constant(
      Matrix::Gaussian(f.sel.num_hyper_nodes(), 4, 1.0, &rng));
  Variable restored = Unpool({asg}, 1, h_k);
  EXPECT_EQ(restored.rows(), 6u);
  EXPECT_EQ(restored.cols(), 4u);
}

TEST(UnpoolingTest, MatchesExplicitSparseProduct) {
  Fixture f(15);
  Assignment asg = BuildAssignment(f.pairs, f.sel, f.scores);
  util::Rng rng(16);
  Matrix h_k = Matrix::Gaussian(f.sel.num_hyper_nodes(), 4, 1.0, &rng);
  Variable restored = Unpool({asg}, 1, Variable::Constant(h_k));
  graph::SparseMatrix s = asg.pattern->WithValues(std::vector<double>(
      asg.values.value().data(),
      asg.values.value().data() + asg.values.value().size()));
  EXPECT_TRUE(
      tensor::AllClose(restored.value(), s.MultiplyDense(h_k), 1e-10));
}

TEST(UnpoolingTest, GradientsFlowThroughChain) {
  Fixture f(17);
  Assignment asg = BuildAssignment(f.pairs, f.sel, f.scores);
  util::Rng rng(18);
  Variable h_k = Variable::Parameter(
      Matrix::Gaussian(f.sel.num_hyper_nodes(), 4, 1.0, &rng));
  ExpectGradientsMatch(h_k, [&] {
    Variable restored = Unpool({asg}, 1, h_k);
    util::Rng wrng(19);
    Matrix w = Matrix::Gaussian(restored.rows(), restored.cols(), 1.0,
                                &wrng);
    return autograd::Sum(
        autograd::CwiseMul(restored, Variable::Constant(w)));
  });
}

}  // namespace
}  // namespace adamgnn::core
