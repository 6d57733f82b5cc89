#include "core/fitness.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "autograd/loss_ops.h"
#include "autograd/ops.h"
#include "autograd/segment_ops.h"
#include "graph/generators.h"
#include "gtest/gtest.h"
#include "test_util.h"
#include "util/random.h"

namespace adamgnn::core {
namespace {

using adamgnn::testing::ExpectGradientsMatch;
using adamgnn::testing::TwoTriangles;
using autograd::Variable;
using tensor::Matrix;

TEST(EgoPairsTest, OneHopMatchesAdjacency) {
  graph::Graph g = TwoTriangles();
  EgoPairs pairs = EgoPairs::Build(AdjacencyLists(g), 1);
  EXPECT_EQ(pairs.num_nodes, 6u);
  // Every directed adjacency entry is one pair.
  EXPECT_EQ(pairs.num_pairs(), 2 * g.num_edges());
  for (size_t p = 0; p < pairs.num_pairs(); ++p) {
    EXPECT_TRUE(g.HasEdge(static_cast<graph::NodeId>(pairs.ego[p]),
                          static_cast<graph::NodeId>(pairs.member[p])));
  }
}

TEST(EgoPairsTest, TwoHopGrowsNetworks) {
  graph::Graph g = TwoTriangles();
  EgoPairs one = EgoPairs::Build(AdjacencyLists(g), 1);
  EgoPairs two = EgoPairs::Build(AdjacencyLists(g), 2);
  EXPECT_GT(two.num_pairs(), one.num_pairs());
}

TEST(EgoPairsTest, NoSelfPairs) {
  graph::Graph g = TwoTriangles();
  EgoPairs pairs = EgoPairs::Build(AdjacencyLists(g), 2);
  for (size_t p = 0; p < pairs.num_pairs(); ++p) {
    EXPECT_NE(pairs.ego[p], pairs.member[p]);
  }
}

TEST(EgoPairsTest, EmptyGraphHasNoPairs) {
  std::vector<std::vector<size_t>> adj(4);
  EgoPairs pairs = EgoPairs::Build(adj, 1);
  EXPECT_EQ(pairs.num_pairs(), 0u);
}

TEST(FitnessScorerTest, ScoresInUnitIntervalAndShaped) {
  graph::Graph g = TwoTriangles();
  EgoPairs pairs = EgoPairs::Build(AdjacencyLists(g), 1);
  util::Rng rng(1);
  FitnessScorer scorer(4, &rng);
  Variable h = Variable::Constant(g.features());
  FitnessScorer::Scores s = scorer.Score(pairs, h);
  EXPECT_EQ(s.pair_phi.rows(), pairs.num_pairs());
  EXPECT_EQ(s.pair_phi.cols(), 1u);
  EXPECT_EQ(s.ego_phi.rows(), 6u);
  for (size_t p = 0; p < pairs.num_pairs(); ++p) {
    EXPECT_GT(s.pair_phi.value()(p, 0), 0.0);
    EXPECT_LT(s.pair_phi.value()(p, 0), 1.0);
  }
}

TEST(FitnessScorerTest, EgoPhiIsMeanOfPairPhi) {
  graph::Graph g = TwoTriangles();
  EgoPairs pairs = EgoPairs::Build(AdjacencyLists(g), 1);
  util::Rng rng(2);
  FitnessScorer scorer(4, &rng);
  FitnessScorer::Scores s =
      scorer.Score(pairs, Variable::Constant(g.features()));
  for (size_t v = 0; v < 6; ++v) {
    double sum = 0;
    size_t count = 0;
    for (size_t p = 0; p < pairs.num_pairs(); ++p) {
      if (pairs.ego[p] == v) {
        sum += s.pair_phi.value()(p, 0);
        ++count;
      }
    }
    ASSERT_GT(count, 0u);
    EXPECT_NEAR(s.ego_phi.value()(v, 0), sum / static_cast<double>(count),
                1e-10);
  }
}

TEST(FitnessScorerTest, AttentionComponentNormalizedPerEgo) {
  // The f^s factors alone sum to 1 within each ego-network; φ = f^s·f^c with
  // f^c in (0,1), so Σ_j φ_ij < 1 for each ego.
  graph::Graph g = TwoTriangles();
  EgoPairs pairs = EgoPairs::Build(AdjacencyLists(g), 1);
  util::Rng rng(3);
  FitnessScorer scorer(4, &rng);
  FitnessScorer::Scores s =
      scorer.Score(pairs, Variable::Constant(g.features()));
  std::vector<double> sums(6, 0.0);
  for (size_t p = 0; p < pairs.num_pairs(); ++p) {
    sums[pairs.ego[p]] += s.pair_phi.value()(p, 0);
  }
  for (double sum : sums) EXPECT_LT(sum, 1.0);
}

TEST(FitnessScorerTest, GradientsFlowToParametersAndInput) {
  graph::Graph g = TwoTriangles();
  EgoPairs pairs = EgoPairs::Build(AdjacencyLists(g), 1);
  util::Rng rng(4);
  FitnessScorer scorer(4, &rng);
  Variable h = Variable::Parameter(g.features());
  auto loss = [&] {
    FitnessScorer::Scores s = scorer.Score(pairs, h);
    util::Rng wrng(5);
    Matrix w = Matrix::Gaussian(s.pair_phi.rows(), 1, 1.0, &wrng);
    return autograd::Sum(
        autograd::CwiseMul(s.pair_phi, Variable::Constant(w)));
  };
  for (auto& p : scorer.Parameters()) {
    ExpectGradientsMatch(p, loss, 1e-5, 5e-6);
  }
  ExpectGradientsMatch(h, loss, 1e-5, 5e-6);
}

TEST(FitnessScorerTest, SimilarNodesScoreHigher) {
  // Ego 0 with two members: member 1 identical to the ego, member 2 very
  // different. The f^c (sigmoid dot) component should favor member 1.
  std::vector<std::vector<size_t>> adj = {{1, 2}, {0}, {0}};
  EgoPairs pairs = EgoPairs::Build(adj, 1);
  Matrix h(3, 4);
  for (size_t j = 0; j < 4; ++j) {
    h(0, j) = 1.0;
    h(1, j) = 1.0;   // aligned with ego
    h(2, j) = -1.0;  // anti-aligned
  }
  util::Rng rng(6);
  FitnessScorer scorer(4, &rng);
  FitnessScorer::Scores s = scorer.Score(pairs, Variable::Constant(h));
  double phi_same = 0, phi_diff = 0;
  for (size_t p = 0; p < pairs.num_pairs(); ++p) {
    if (pairs.ego[p] == 0 && pairs.member[p] == 1) {
      phi_same = s.pair_phi.value()(p, 0);
    }
    if (pairs.ego[p] == 0 && pairs.member[p] == 2) {
      phi_diff = s.pair_phi.value()(p, 0);
    }
  }
  EXPECT_GT(phi_same, phi_diff);
}


// ---------------------------------------------------------------------------
// The factorized Eq. 2 logit against the concat formulation it replaces.
// ---------------------------------------------------------------------------

/// Eq. 2 the way it reads in the paper: gather W h_j and W h_i per pair,
/// concatenate, project with a, then the same softmax / sigmoid / mean.
FitnessScorer::Scores ConcatScore(const EgoPairs& pairs, const Variable& h,
                                  const Variable& weight,
                                  const Variable& attention, FitnessMode mode) {
  Variable wh = autograd::MatMul(h, weight);
  Variable logits = autograd::LeakyRelu(
      autograd::MatMul(
          autograd::ConcatCols(autograd::GatherRows(wh, pairs.member),
                               autograd::GatherRows(wh, pairs.ego)),
          attention),
      0.2);
  Variable f_s = autograd::SegmentSoftmax(logits, pairs.ego, pairs.num_nodes);
  Variable f_c = autograd::Sigmoid(
      autograd::EdgeDotProduct(h, pairs.member, pairs.ego));
  FitnessScorer::Scores scores;
  scores.pair_phi = mode == FitnessMode::kBoth ? autograd::CwiseMul(f_s, f_c)
                    : mode == FitnessMode::kAttentionOnly ? f_s
                                                          : f_c;
  scores.ego_phi =
      autograd::SegmentMean(scores.pair_phi, pairs.ego, pairs.num_nodes);
  return scores;
}

/// |a - b| <= rel * max(|a|, |b|) entrywise.
void ExpectRelClose(const Matrix& a, const Matrix& b, double rel) {
  ASSERT_TRUE(a.SameShape(b));
  for (size_t i = 0; i < a.size(); ++i) {
    const double x = a.data()[i], y = b.data()[i];
    EXPECT_LE(std::fabs(x - y), rel * std::max(std::fabs(x), std::fabs(y)))
        << "entry " << i << ": " << x << " vs " << y;
  }
}

const FitnessMode kAllModes[] = {FitnessMode::kBoth,
                                 FitnessMode::kAttentionOnly,
                                 FitnessMode::kSigmoidOnly};

TEST(FitnessFactorizationTest, MatchesConcatFormulationInEveryMode) {
  util::Rng grng(21);
  graph::Graph g = graph::ErdosRenyi(80, 0.06, &grng).ValueOrDie();
  for (int lambda : {1, 2}) {
    EgoPairs pairs = EgoPairs::Build(AdjacencyLists(g), lambda);
    ASSERT_GT(pairs.num_pairs(), 0u);
    for (FitnessMode mode : kAllModes) {
      util::Rng rng(22);
      FitnessScorer scorer(16, &rng, mode);
      util::Rng hrng(23);
      Variable h = Variable::Constant(Matrix::Gaussian(80, 16, 1.0, &hrng));
      const std::vector<Variable> params = scorer.Parameters();
      FitnessScorer::Scores got = scorer.Score(pairs, h);
      FitnessScorer::Scores want =
          ConcatScore(pairs, h, params[0], params[1], mode);
      ExpectRelClose(got.pair_phi.value(), want.pair_phi.value(), 1e-12);
      ExpectRelClose(got.ego_phi.value(), want.ego_phi.value(), 1e-12);
    }
  }
}

TEST(FitnessFactorizationTest, GradientsMatchFiniteDifferencesInEveryMode) {
  graph::Graph g = TwoTriangles();
  EgoPairs pairs = EgoPairs::Build(AdjacencyLists(g), 2);
  for (FitnessMode mode : kAllModes) {
    util::Rng rng(24);
    FitnessScorer scorer(4, &rng, mode);
    Variable h = Variable::Parameter(g.features());
    auto loss = [&] {
      FitnessScorer::Scores s = scorer.Score(pairs, h);
      util::Rng wrng(25);
      Matrix w = Matrix::Gaussian(s.pair_phi.rows(), 1, 1.0, &wrng);
      Matrix v = Matrix::Gaussian(s.ego_phi.rows(), 1, 1.0, &wrng);
      return autograd::Add(
          autograd::Sum(autograd::CwiseMul(s.pair_phi, Variable::Constant(w))),
          autograd::Sum(autograd::CwiseMul(s.ego_phi, Variable::Constant(v))));
    };
    const std::vector<Variable> params = scorer.Parameters();
    ExpectGradientsMatch(params[0], loss, 1e-5, 5e-6);  // weight
    ExpectGradientsMatch(params[1], loss, 1e-5, 5e-6);  // attention
    ExpectGradientsMatch(h, loss, 1e-5, 5e-6);
  }
}

TEST(PairLogitsTest, ValuesAndGradients) {
  util::Rng rng(26);
  Variable s = Variable::Parameter(Matrix::Gaussian(5, 2, 1.0, &rng));
  Variable scale = Variable::Parameter(Matrix::Gaussian(7, 1, 1.0, &rng));
  const std::vector<size_t> member = {0, 1, 1, 4, 2, 0, 3};
  const std::vector<size_t> ego = {1, 0, 2, 2, 4, 3, 3};
  Variable plain = autograd::PairLogits(s, member, ego);
  Variable scaled = autograd::PairLogits(s, member, ego, scale);
  for (size_t p = 0; p < member.size(); ++p) {
    EXPECT_EQ(plain.value()(p, 0),
              s.value()(member[p], 0) + s.value()(ego[p], 1));
    EXPECT_EQ(scaled.value()(p, 0),
              scale.value()(p, 0) * s.value()(member[p], 0) +
                  s.value()(ego[p], 1));
  }
  auto loss = [&] {
    util::Rng wrng(27);
    Matrix w = Matrix::Gaussian(member.size(), 1, 1.0, &wrng);
    return autograd::Add(
        autograd::Sum(autograd::CwiseMul(
            autograd::PairLogits(s, member, ego), Variable::Constant(w))),
        autograd::Sum(autograd::Tanh(
            autograd::PairLogits(s, member, ego, scale))));
  };
  ExpectGradientsMatch(s, loss, 1e-6, 1e-8);
  ExpectGradientsMatch(scale, loss, 1e-6, 1e-8);
}

TEST(PairLogitsTest, EvalForwardMatchesRecordedForward) {
  util::Rng rng(28);
  Variable s = Variable::Parameter(Matrix::Gaussian(6, 2, 1.0, &rng));
  Variable scale = Variable::Parameter(Matrix::Gaussian(4, 1, 1.0, &rng));
  const std::vector<size_t> member = {5, 0, 3, 3};
  const std::vector<size_t> ego = {0, 5, 1, 2};
  const Matrix recorded = autograd::PairLogits(s, member, ego, scale).value();
  autograd::NoGradGuard no_grad;
  Variable eval = autograd::PairLogits(s, member, ego, scale);
  EXPECT_TRUE(eval.value() == recorded);
  EXPECT_FALSE(eval.requires_grad());
}

}  // namespace
}  // namespace adamgnn::core
