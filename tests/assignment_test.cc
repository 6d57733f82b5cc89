#include "core/assignment.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>
#include <vector>

#include "autograd/ops.h"
#include "autograd/segment_ops.h"
#include "core/hyper_features.h"
#include "graph/generators.h"
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

/// S_k as a concrete sparse matrix.
graph::SparseMatrix AssignmentMatrix(const Assignment& asg) {
  const Matrix& values = asg.values.value();
  return graph::SparseMatrix::FromCoordinates(
      asg.pattern->rows, asg.pattern->cols, asg.pattern->row_indices,
      asg.pattern->col_indices,
      std::vector<double>(values.data(), values.data() + values.size()));
}

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
  graph::SparseMatrix s = AssignmentMatrix(asg);
  for (size_t c = 0; c < f.sel.selected_egos.size(); ++c) {
    EXPECT_DOUBLE_EQ(s.At(f.sel.selected_egos[c], c), 1.0);
  }
}

TEST(AssignmentTest, RetainedRowsIdentity) {
  Fixture f(3);
  Assignment asg = BuildAssignment(f.pairs, f.sel, f.scores);
  graph::SparseMatrix s = AssignmentMatrix(asg);
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
  graph::SparseMatrix s = AssignmentMatrix(asg);
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


// ---------------------------------------------------------------------------
// The factorized Eq. 3 logit against the concat formulation it replaces.
// ---------------------------------------------------------------------------

/// Eq. 3 the way it reads in the paper: per kept pair, project φ_ij·h_j
/// with W, concatenate h_i, project with a; then the same softmax and sum.
Variable ConcatInitialise(const Selection& sel, const Assignment& asg,
                          const FitnessScorer::Scores& scores,
                          const Variable& h_prev, const Variable& weight,
                          const Variable& attention) {
  const size_t num_egos = sel.selected_egos.size();
  Variable ego_feats = autograd::GatherRows(h_prev, sel.selected_egos);
  Variable h_member = autograd::GatherRows(h_prev, asg.member_rows);
  Variable h_ego = autograd::GatherRows(h_prev, asg.ego_rows);
  Variable phi = autograd::GatherRows(scores.pair_phi, asg.kept_pair_indices);
  Variable logits = autograd::LeakyRelu(
      autograd::MatMul(
          autograd::ConcatCols(
              autograd::MatMul(autograd::MulColBroadcast(h_member, phi),
                               weight),
              h_ego),
          attention),
      0.2);
  Variable alpha =
      autograd::SegmentSoftmax(logits, asg.init_segments, num_egos);
  ego_feats = autograd::Add(
      ego_feats,
      autograd::SegmentSum(autograd::MulColBroadcast(h_member, alpha),
                           asg.init_segments, num_egos));
  if (sel.retained_nodes.empty()) return ego_feats;
  return autograd::ConcatRows(ego_feats,
                              autograd::GatherRows(h_prev, sel.retained_nodes));
}

const FitnessMode kAllModes[] = {FitnessMode::kBoth,
                                 FitnessMode::kAttentionOnly,
                                 FitnessMode::kSigmoidOnly};

TEST(HyperFeatureFactorizationTest, MatchesConcatFormulationInEveryMode) {
  util::Rng grng(31);
  graph::Graph g = graph::ErdosRenyi(90, 0.05, &grng).ValueOrDie();
  const std::vector<std::vector<size_t>> adj = AdjacencyLists(g);
  for (int lambda : {1, 2}) {
    EgoPairs pairs = EgoPairs::Build(adj, lambda);
    for (FitnessMode mode : kAllModes) {
      util::Rng rng(32);
      FitnessScorer scorer(16, &rng, mode);
      HyperFeatureInit init(16, &rng);
      util::Rng hrng(33);
      Variable h = Variable::Constant(Matrix::Gaussian(90, 16, 1.0, &hrng));
      FitnessScorer::Scores scores = scorer.Score(pairs, h);
      Selection sel = SelectEgoNetworks(scores.ego_phi.value(), adj, pairs);
      Assignment asg = BuildAssignment(pairs, sel, scores);
      ASSERT_FALSE(asg.kept_pair_indices.empty());
      const std::vector<Variable> params = init.Parameters();
      const Matrix got = init.Initialise(sel, asg, scores, h).value();
      const Matrix want =
          ConcatInitialise(sel, asg, scores, h, params[0], params[1]).value();
      ASSERT_TRUE(got.SameShape(want));
      for (size_t i = 0; i < got.size(); ++i) {
        const double x = got.data()[i], y = want.data()[i];
        EXPECT_LE(std::fabs(x - y),
                  1e-12 * std::max(std::fabs(x), std::fabs(y)))
            << "entry " << i << ": " << x << " vs " << y;
      }
    }
  }
}

TEST(HyperFeatureFactorizationTest, GradientsMatchFiniteDifferences) {
  graph::Graph g = TwoTriangles();
  const std::vector<std::vector<size_t>> adj = AdjacencyLists(g);
  EgoPairs pairs = EgoPairs::Build(adj, 1);
  for (FitnessMode mode : kAllModes) {
    util::Rng rng(34);
    FitnessScorer scorer(4, &rng, mode);
    HyperFeatureInit init(4, &rng);
    util::Rng hrng(35);
    Variable h = Variable::Parameter(Matrix::Gaussian(6, 4, 1.0, &hrng));
    // Selection and index sets are fixed; φ is rebuilt from the perturbed h
    // inside the loss, so the check covers both paths into Eq. 3.
    FitnessScorer::Scores scores = scorer.Score(pairs, h);
    Selection sel = SelectEgoNetworks(scores.ego_phi.value(), adj, pairs);
    Assignment asg = BuildAssignment(pairs, sel, scores);
    ASSERT_FALSE(asg.kept_pair_indices.empty());
    auto loss = [&] {
      FitnessScorer::Scores s = scorer.Score(pairs, h);
      Variable x_k = init.Initialise(sel, asg, s, h);
      util::Rng wrng(36);
      Matrix w = Matrix::Gaussian(x_k.rows(), x_k.cols(), 1.0, &wrng);
      return autograd::Sum(autograd::CwiseMul(x_k, Variable::Constant(w)));
    };
    const std::vector<Variable> params = init.Parameters();
    ExpectGradientsMatch(params[0], loss, 1e-5, 5e-6);  // weight
    ExpectGradientsMatch(params[1], loss, 1e-5, 5e-6);  // attention
    ExpectGradientsMatch(h, loss, 1e-5, 5e-6);
  }
}

// ---------------------------------------------------------------------------
// Sort-free coarsening against the triplet-and-sort code it replaces.
// ---------------------------------------------------------------------------

using graph::SparseMatrix;
using graph::Triplet;

SparseMatrix TripletTransposed(const SparseMatrix& m) {
  std::vector<Triplet> t;
  for (size_t r = 0; r < m.rows(); ++r) {
    for (size_t k = m.row_offsets()[r]; k < m.row_offsets()[r + 1]; ++k) {
      t.push_back({m.col_indices()[k], r, m.values()[k]});
    }
  }
  return SparseMatrix::FromTriplets(m.cols(), m.rows(), std::move(t));
}

SparseMatrix TripletMultiply(const SparseMatrix& a, const SparseMatrix& b) {
  std::vector<Triplet> t;
  std::vector<double> acc(b.cols(), 0.0);
  std::vector<size_t> touched;
  for (size_t r = 0; r < a.rows(); ++r) {
    touched.clear();
    for (size_t k = a.row_offsets()[r]; k < a.row_offsets()[r + 1]; ++k) {
      const double v = a.values()[k];
      const size_t mid = a.col_indices()[k];
      for (size_t k2 = b.row_offsets()[mid]; k2 < b.row_offsets()[mid + 1];
           ++k2) {
        const size_t c = b.col_indices()[k2];
        if (acc[c] == 0.0) touched.push_back(c);
        acc[c] += v * b.values()[k2];
      }
    }
    for (size_t c : touched) {
      if (acc[c] != 0.0) t.push_back({r, c, acc[c]});
      acc[c] = 0.0;
    }
  }
  return SparseMatrix::FromTriplets(a.rows(), b.cols(), std::move(t));
}

SparseMatrix TripletNextAdjacency(const SparseMatrix& prev,
                                  const Assignment& asg) {
  std::vector<Triplet> s_entries;
  for (size_t k = 0; k < asg.pattern->nnz(); ++k) {
    s_entries.push_back({asg.pattern->row_indices[k],
                         asg.pattern->col_indices[k],
                         asg.values.value()(k, 0)});
  }
  SparseMatrix s = SparseMatrix::FromTriplets(
      asg.pattern->rows, asg.pattern->cols, std::move(s_entries));
  std::vector<Triplet> hat;
  for (size_t r = 0; r < prev.rows(); ++r) {
    for (size_t k = prev.row_offsets()[r]; k < prev.row_offsets()[r + 1];
         ++k) {
      hat.push_back({r, prev.col_indices()[k], prev.values()[k]});
    }
    hat.push_back({r, r, 1.0});
  }
  SparseMatrix a_hat =
      SparseMatrix::FromTriplets(prev.rows(), prev.cols(), std::move(hat));
  return TripletMultiply(TripletMultiply(TripletTransposed(s), a_hat), s);
}

SparseMatrix TripletNormalized(const SparseMatrix& m) {
  const size_t n = m.rows();
  std::vector<Triplet> hat;
  std::vector<double> degree(n, 0.0);
  for (size_t r = 0; r < n; ++r) {
    bool has_diag = false;
    for (size_t k = m.row_offsets()[r]; k < m.row_offsets()[r + 1]; ++k) {
      double v = m.values()[k];
      if (m.col_indices()[k] == r) {
        v += 1.0;
        has_diag = true;
      }
      hat.push_back({r, m.col_indices()[k], v});
      degree[r] += v;
    }
    if (!has_diag) {
      hat.push_back({r, r, 1.0});
      degree[r] += 1.0;
    }
  }
  for (Triplet& t : hat) {
    t.value /= std::sqrt(degree[t.row]) * std::sqrt(degree[t.col]);
  }
  return SparseMatrix::FromTriplets(n, n, std::move(hat));
}

void ExpectSameCsr(const SparseMatrix& got, const SparseMatrix& want) {
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  EXPECT_EQ(got.row_offsets(), want.row_offsets());
  EXPECT_EQ(got.col_indices(), want.col_indices());
  ASSERT_EQ(got.values().size(), want.values().size());
  EXPECT_EQ(std::memcmp(got.values().data(), want.values().data(),
                        got.values().size() * sizeof(double)),
            0)
      << "values differ bitwise";
}

/// n x n with positive weights: every third row carries a diagonal entry
/// and every seventh row is empty.
SparseMatrix RandomAdjacency(size_t n, size_t per_row, uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Triplet> t;
  for (size_t r = 0; r < n; ++r) {
    if (r % 7 == 3) continue;
    if (r % 3 == 0) t.push_back({r, r, rng.NextUniform(0.1, 2.0)});
    for (size_t i = 0; i < per_row; ++i) {
      const size_t c = rng.NextUint64(n);
      if (c % 7 == 3) continue;
      t.push_back({r, c, rng.NextUniform(0.1, 2.0)});
    }
  }
  return SparseMatrix::FromTriplets(n, n, std::move(t));
}

/// An assignment over n_prev rows and n_hyper columns: up to three distinct
/// columns per row, some rows empty, about one value in eight exactly 0,
/// entries in shuffled order.
Assignment RandomAssignment(size_t n_prev, size_t n_hyper, uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Triplet> entries;
  for (size_t r = 0; r < n_prev; ++r) {
    std::vector<size_t> cols;
    const size_t count = rng.NextUint64(4);
    while (cols.size() < count) {
      const size_t c = rng.NextUint64(n_hyper);
      if (std::find(cols.begin(), cols.end(), c) == cols.end()) {
        cols.push_back(c);
      }
    }
    for (size_t c : cols) {
      entries.push_back(
          {r, c, rng.NextUint64(8) == 0 ? 0.0 : rng.NextUniform(0.0, 1.0)});
    }
  }
  for (size_t i = entries.size(); i > 1; --i) {
    std::swap(entries[i - 1], entries[rng.NextUint64(i)]);
  }
  auto pattern = std::make_shared<autograd::SparsePattern>();
  pattern->rows = n_prev;
  pattern->cols = n_hyper;
  std::vector<double> values;
  for (const Triplet& e : entries) {
    pattern->row_indices.push_back(e.row);
    pattern->col_indices.push_back(e.col);
    values.push_back(e.value);
  }
  Assignment asg;
  asg.pattern = std::move(pattern);
  const size_t nnz = values.size();
  asg.values = Variable::Constant(Matrix(nnz, 1, std::move(values)));
  return asg;
}

TEST(CoarseningBitwiseTest, NextAdjacencyAndNormalizedMatchTripletCode) {
  for (uint64_t seed : {41u, 42u, 43u}) {
    SparseMatrix a0 = RandomAdjacency(300, 6, seed);
    ExpectSameCsr(a0.Normalized(), TripletNormalized(a0));
    // Level 1 pools 300 nodes into 40: a dense pooled graph.
    Assignment s0 = RandomAssignment(300, 40, seed + 100);
    SparseMatrix a1 = NextAdjacency(a0, s0);
    ExpectSameCsr(a1, TripletNextAdjacency(a0, s0));
    ExpectSameCsr(a1.Normalized(), TripletNormalized(a1));
    EXPECT_GT(a1.nnz(), 40u * 40u / 2);
    // Level 2 coarsens the dense level-1 graph again.
    Assignment s1 = RandomAssignment(40, 12, seed + 200);
    SparseMatrix a2 = NextAdjacency(a1, s1);
    ExpectSameCsr(a2, TripletNextAdjacency(a1, s1));
    ExpectSameCsr(a2.Normalized(), TripletNormalized(a2));
  }
}

TEST(CoarseningBitwiseTest, ModelAssignmentsMatchTripletCode) {
  util::Rng grng(44);
  graph::Graph g = graph::ErdosRenyi(200, 0.04, &grng).ValueOrDie();
  const std::vector<std::vector<size_t>> adj = AdjacencyLists(g);
  EgoPairs pairs = EgoPairs::Build(adj, 2);
  util::Rng rng(45);
  FitnessScorer scorer(8, &rng);
  util::Rng hrng(46);
  Variable h = Variable::Constant(Matrix::Gaussian(200, 8, 1.0, &hrng));
  FitnessScorer::Scores scores = scorer.Score(pairs, h);
  Selection sel = SelectEgoNetworks(scores.ego_phi.value(), adj, pairs);
  Assignment asg = BuildAssignment(pairs, sel, scores);
  SparseMatrix a0 = SparseMatrix::Adjacency(g);
  SparseMatrix a1 = NextAdjacency(a0, asg);
  ExpectSameCsr(a1, TripletNextAdjacency(a0, asg));
  ExpectSameCsr(a1.Normalized(), TripletNormalized(a1));
}

TEST(CoarseningBitwiseTest, MultiplyMatchesTripletProductUnderCancellation) {
  // ±1 and ±2 values make running sums return to exactly 0, both midway
  // (the column is touched again) and at the end (the entry is dropped).
  util::Rng rng(47);
  auto signed_random = [&rng](size_t rows, size_t cols, size_t nnz) {
    std::vector<Triplet> t;
    for (size_t k = 0; k < nnz; ++k) {
      const double v = static_cast<double>(rng.NextUint64(2) + 1) *
                       (rng.NextUint64(2) == 0 ? 1.0 : -1.0);
      t.push_back({rng.NextUint64(rows), rng.NextUint64(cols), v});
    }
    return SparseMatrix::FromTriplets(rows, cols, std::move(t));
  };
  // Both dense product rows and rows spread thinly over a wide range.
  for (int round = 0; round < 4; ++round) {
    SparseMatrix a = signed_random(60, 25, 400);
    SparseMatrix b = signed_random(25, 50, 300);
    ExpectSameCsr(a.Multiply(b), TripletMultiply(a, b));
    ExpectSameCsr(a.Transposed(), TripletTransposed(a));
    SparseMatrix c = signed_random(200, 500, 600);
    SparseMatrix d = signed_random(500, 3000, 1500);
    ExpectSameCsr(c.Multiply(d), TripletMultiply(c, d));
  }
}

TEST(CoarseningBitwiseTest, FromCoordinatesRejectsRepeatedCoordinates) {
  EXPECT_DEATH(SparseMatrix::FromCoordinates(3, 3, {0, 2, 0}, {1, 1, 1},
                                             {1.0, 2.0, 3.0}),
               "");
}

}  // namespace
}  // namespace adamgnn::core
