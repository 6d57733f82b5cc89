// Differential test of the eval forward against an independent dense
// reference. The oracle below re-derives Eqs. 1–4 and the node head from
// the paper's definitions (PAPER.md, DESIGN.md "What the paper builds") with
// dense matrices and plain loops; it shares only tensor::Matrix (as storage)
// and the parameter values with production. InferenceSession::Run and
// RunBatch must match it to 1e-10, normwise relative, on seeded small graphs
// (an isolated node, a star, a clique, two components, random graphs)
// crossed with K ∈ {1,2,3}, λ ∈ {1,2}, flyback on/off and the three
// fitness modes.
//
// Selection is discrete: when two compared φ values lie within 1e-12
// (relative) of each other, the oracle and production may legitimately
// order them differently, so such a case is skipped and counted — the
// tolerance is never widened to absorb a flipped selection.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/adamgnn_model.h"
#include "core/batch_plan.h"
#include "core/graph_plan.h"
#include "core/inference_session.h"
#include "graph/batch.h"
#include "graph/builder.h"
#include "gtest/gtest.h"
#include "tensor/matrix.h"
#include "util/random.h"

namespace adamgnn::core {
namespace {

using tensor::Matrix;

constexpr size_t kFeatureDim = 4;
constexpr size_t kHidden = 8;
constexpr size_t kClasses = 3;
constexpr double kTolerance = 1e-10;
constexpr double kTieTolerance = 1e-12;

// ---------------------------------------------------------------------------
// Dense algebra, plain loops.

Matrix Mul(const Matrix& a, const Matrix& b) {
  EXPECT_EQ(a.cols(), b.rows());
  Matrix c(a.rows(), b.cols());
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t k = 0; k < a.cols(); ++k) {
      for (size_t j = 0; j < b.cols(); ++j) c(i, j) += a(i, k) * b(k, j);
    }
  }
  return c;
}

Matrix Transpose(const Matrix& a) {
  Matrix t(a.cols(), a.rows());
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < a.cols(); ++j) t(j, i) = a(i, j);
  }
  return t;
}

Matrix PlusIdentity(Matrix a) {
  for (size_t i = 0; i < a.rows(); ++i) a(i, i) += 1.0;
  return a;
}

// GCN layer: ReLU(Â X W + b) with Â = D^{-1/2}(A + I)D^{-1/2}, D the row
// sums of A + I.
Matrix GcnLayer(const Matrix& adj, const Matrix& x, const Matrix& w,
                const Matrix& b) {
  const Matrix hat = PlusIdentity(adj);
  std::vector<double> degree(hat.rows(), 0.0);
  for (size_t i = 0; i < hat.rows(); ++i) {
    for (size_t j = 0; j < hat.cols(); ++j) degree[i] += hat(i, j);
  }
  Matrix norm(hat.rows(), hat.cols());
  for (size_t i = 0; i < hat.rows(); ++i) {
    for (size_t j = 0; j < hat.cols(); ++j) {
      norm(i, j) = hat(i, j) / std::sqrt(degree[i] * degree[j]);
    }
  }
  Matrix h = Mul(norm, Mul(x, w));
  for (size_t i = 0; i < h.rows(); ++i) {
    for (size_t j = 0; j < h.cols(); ++j) {
      h(i, j) = std::max(0.0, h(i, j) + b(0, j));
    }
  }
  return h;
}

double Leaky(double x) { return x > 0.0 ? x : 0.2 * x; }

// aᵀ [u ‖ v] for a (2d x 1) attention vector and two d-rows.
double Attend(const Matrix& a, const double* u, const double* v, size_t d) {
  double s = 0.0;
  for (size_t t = 0; t < d; ++t) s += a(t, 0) * u[t] + a(d + t, 0) * v[t];
  return s;
}

std::vector<double> Softmax(const std::vector<double>& z) {
  const double top = *std::max_element(z.begin(), z.end());
  std::vector<double> e(z.size());
  double sum = 0.0;
  for (size_t i = 0; i < z.size(); ++i) sum += e[i] = std::exp(z[i] - top);
  for (double& v : e) v /= sum;
  return e;
}

// Equal values count too: the two sides may round them apart.
bool NearTie(double a, double b) {
  return std::fabs(a - b) <= kTieTolerance * std::max(std::fabs(a),
                                                      std::fabs(b));
}

// ---------------------------------------------------------------------------
// The oracle.

struct Weights {
  Matrix in_w, in_b;
  std::vector<Matrix> fit_w, fit_a, init_w, init_a, conv_w, conv_b;
  Matrix fly_w, fly_a, head_w, head_b;
};

// AdamGnn::Parameters() order (also the checkpoint layout): input GCN
// (W, b); per level fitness (W, a); per level hyper init (W, a); per level
// GCN (W, b); flyback (W, a); node head (W, b); graph head (W, b).
Weights WeightsOf(const AdamGnn& model) {
  const std::vector<autograd::Variable> p = model.Parameters();
  const size_t k_levels = static_cast<size_t>(model.config().num_levels);
  EXPECT_EQ(p.size(), 2 + 6 * k_levels + 2 + 4);
  Weights w;
  size_t i = 0;
  auto next = [&]() { return p.at(i++).value(); };
  w.in_w = next();
  w.in_b = next();
  for (size_t k = 0; k < k_levels; ++k) {
    w.fit_w.push_back(next());
    w.fit_a.push_back(next());
  }
  for (size_t k = 0; k < k_levels; ++k) {
    w.init_w.push_back(next());
    w.init_a.push_back(next());
  }
  for (size_t k = 0; k < k_levels; ++k) {
    w.conv_w.push_back(next());
    w.conv_b.push_back(next());
  }
  w.fly_w = next();
  w.fly_a = next();
  w.head_w = next();
  w.head_b = next();
  return w;
}

struct OracleResult {
  Matrix embeddings, logits, attention;
  std::vector<LevelInfo> levels;
  std::vector<size_t> level1_egos;
  std::vector<int64_t> level1_ego_of_node;
  /// Two compared φ values were within kTieTolerance: skip the case.
  bool near_tie = false;
};

// The ego-network c_λ(i) of every node: the nodes within λ hops of i over
// the nonzero off-diagonal entries of `adj`, i itself excluded, ascending.
std::vector<std::vector<size_t>> EgoNetworks(const Matrix& adj, int lambda) {
  const size_t m = adj.rows();
  std::vector<std::vector<size_t>> members(m);
  for (size_t ego = 0; ego < m; ++ego) {
    std::vector<int> dist(m, -1);
    dist[ego] = 0;
    std::deque<size_t> queue = {ego};
    while (!queue.empty()) {
      const size_t v = queue.front();
      queue.pop_front();
      if (dist[v] == lambda) continue;
      for (size_t u = 0; u < m; ++u) {
        if (u == v || adj(v, u) == 0.0 || dist[u] >= 0) continue;
        dist[u] = dist[v] + 1;
        queue.push_back(u);
      }
    }
    for (size_t u = 0; u < m; ++u) {
      if (dist[u] > 0) members[ego].push_back(u);
    }
  }
  return members;
}

OracleResult Oracle(const AdamGnnConfig& c, const Weights& w,
                    const Matrix& adjacency, const Matrix& x) {
  const size_t n = adjacency.rows();
  const size_t d = c.hidden_dim;
  OracleResult r;

  // Eq. 1.
  const Matrix h0 = GcnLayer(adjacency, x, w.in_w, w.in_b);

  Matrix cur_adj = adjacency;
  Matrix h = h0;
  std::vector<Matrix> chain;  // S_1 … S_k
  std::vector<Matrix> messages;
  for (int k = 0; k < c.num_levels; ++k) {
    const size_t kk = static_cast<size_t>(k);
    const size_t m = cur_adj.rows();
    const std::vector<std::vector<size_t>> members =
        EgoNetworks(cur_adj, c.lambda);
    size_t num_pairs = 0;
    for (const auto& net : members) num_pairs += net.size();
    if (num_pairs == 0) break;

    // Eq. 2: φ_ij = softmax_j(LeakyReLU(aᵀ[W h_j ‖ W h_i])) · σ(h_jᵀ h_i),
    // φ_i = mean_j φ_ij.
    const Matrix wh = Mul(h, w.fit_w[kk]);
    std::vector<std::vector<double>> phi(m);
    std::vector<double> ego_phi(m, 0.0);
    for (size_t i = 0; i < m; ++i) {
      if (members[i].empty()) continue;
      std::vector<double> logits, f_c;
      for (size_t j : members[i]) {
        logits.push_back(Leaky(Attend(w.fit_a[kk], wh.row(j), wh.row(i), d)));
        double dot = 0.0;
        for (size_t t = 0; t < d; ++t) dot += h(j, t) * h(i, t);
        f_c.push_back(1.0 / (1.0 + std::exp(-dot)));
      }
      const std::vector<double> f_s = Softmax(logits);
      for (size_t idx = 0; idx < members[i].size(); ++idx) {
        double value = f_s[idx] * f_c[idx];
        if (c.fitness_mode == FitnessMode::kAttentionOnly) value = f_s[idx];
        if (c.fitness_mode == FitnessMode::kSigmoidOnly) value = f_c[idx];
        phi[i].push_back(value);
        ego_phi[i] += value;
      }
      ego_phi[i] /= static_cast<double>(members[i].size());
    }

    // Local-max selection over 1-hop neighbours, ties to the smaller id.
    std::vector<size_t> selected;
    for (size_t v = 0; v < m; ++v) {
      bool has_neighbour = false, is_max = true;
      for (size_t u = 0; u < m; ++u) {
        if (u == v || cur_adj(v, u) == 0.0) continue;
        has_neighbour = true;
        if (NearTie(ego_phi[v], ego_phi[u])) r.near_tie = true;
        const bool beats = ego_phi[v] != ego_phi[u] ? ego_phi[v] > ego_phi[u]
                                                    : v < u;
        is_max = is_max && beats;
      }
      if (has_neighbour && is_max) selected.push_back(v);
    }
    if (r.near_tie) return r;
    std::vector<bool> covered(m, false);
    for (size_t i : selected) {
      covered[i] = true;
      for (size_t j : members[i]) covered[j] = true;
    }
    std::vector<size_t> retained;
    for (size_t v = 0; v < m; ++v) {
      if (!covered[v]) retained.push_back(v);
    }
    if (selected.empty()) break;
    const size_t n_hyper = selected.size() + retained.size();
    if (n_hyper >= m) break;

    // S_k: a selected ego owns its column with 1, its members join it with
    // weight φ_ij; retained nodes map to their own column with 1.
    Matrix s(m, n_hyper);
    for (size_t col = 0; col < selected.size(); ++col) {
      const size_t i = selected[col];
      s(i, col) = 1.0;
      for (size_t idx = 0; idx < members[i].size(); ++idx) {
        s(members[i][idx], col) += phi[i][idx];
      }
    }
    for (size_t t = 0; t < retained.size(); ++t) {
      s(retained[t], selected.size() + t) = 1.0;
    }

    // Eq. 3: X_k(i) = h_i + Σ_j α_ij h_j,
    // α_ij = softmax_j(LeakyReLU(aᵀ[W(φ_ij h_j) ‖ h_i])); retained rows copy.
    Matrix x_k(n_hyper, d);
    for (size_t col = 0; col < selected.size(); ++col) {
      const size_t i = selected[col];
      std::vector<double> z;
      for (size_t idx = 0; idx < members[i].size(); ++idx) {
        Matrix scaled(1, d);
        for (size_t t = 0; t < d; ++t) {
          scaled(0, t) = phi[i][idx] * h(members[i][idx], t);
        }
        const Matrix projected = Mul(scaled, w.init_w[kk]);
        z.push_back(Leaky(Attend(w.init_a[kk], projected.row(0), h.row(i), d)));
      }
      const std::vector<double> alpha = Softmax(z);
      for (size_t t = 0; t < d; ++t) {
        double sum = h(i, t);
        for (size_t idx = 0; idx < members[i].size(); ++idx) {
          sum += alpha[idx] * h(members[i][idx], t);
        }
        x_k(col, t) = sum;
      }
    }
    for (size_t t = 0; t < retained.size(); ++t) {
      for (size_t q = 0; q < d; ++q) {
        x_k(selected.size() + t, q) = h(retained[t], q);
      }
    }

    // A_k = S_kᵀ (A_{k-1} + I) S_k, then the level's GCN.
    const Matrix next_adj =
        Mul(Mul(Transpose(s), PlusIdentity(cur_adj)), s);
    const Matrix h_k = GcnLayer(next_adj, x_k, w.conv_w[kk], w.conv_b[kk]);

    LevelInfo info;
    info.num_prev_nodes = m;
    info.num_hyper_nodes = n_hyper;
    info.num_selected_egos = selected.size();
    info.num_retained = retained.size();
    info.num_covered = m - retained.size();
    r.levels.push_back(info);
    if (k == 0) {
      // Each node's owner: itself if selected, else the selected ego whose
      // network holds it with the largest φ (smaller ego id on equality).
      r.level1_egos = selected;
      r.level1_ego_of_node.assign(m, -1);
      std::vector<double> best(m, -1.0);
      for (size_t i : selected) {
        r.level1_ego_of_node[i] = static_cast<int64_t>(i);
        best[i] = 2.0;
      }
      for (size_t i : selected) {
        for (size_t idx = 0; idx < members[i].size(); ++idx) {
          const size_t j = members[i][idx];
          if (best[j] >= 0.0 && best[j] <= 1.0 &&
              NearTie(best[j], phi[i][idx])) {
            r.near_tie = true;
          }
          if (phi[i][idx] > best[j]) {
            best[j] = phi[i][idx];
            r.level1_ego_of_node[j] = static_cast<int64_t>(i);
          }
        }
      }
      if (r.near_tie) return r;
    }

    // Unpooling: Ĥ_k = S_1(…(S_k H_k)).
    chain.push_back(s);
    Matrix message = h_k;
    for (size_t l = chain.size(); l >= 1; --l) {
      message = Mul(chain[l - 1], message);
    }
    messages.push_back(message);

    if (n_hyper < 4) break;
    cur_adj = next_adj;
    h = h_k;
  }

  // Eq. 4: H = H_0 + Σ_k β_k ⊙ Ĥ_k,
  // β_k(v) = softmax_k(LeakyReLU(aᵀ[W Ĥ_k(v) ‖ H_0(v)])).
  r.embeddings = h0;
  r.attention = Matrix(n, 0);
  if (c.use_flyback && !messages.empty()) {
    r.attention = Matrix(n, messages.size());
    std::vector<Matrix> projected;
    for (const Matrix& msg : messages) projected.push_back(Mul(msg, w.fly_w));
    for (size_t v = 0; v < n; ++v) {
      std::vector<double> z;
      for (const Matrix& p : projected) {
        z.push_back(Leaky(Attend(w.fly_a, p.row(v), h0.row(v), d)));
      }
      const std::vector<double> beta = Softmax(z);
      for (size_t k = 0; k < messages.size(); ++k) {
        r.attention(v, k) = beta[k];
        for (size_t t = 0; t < d; ++t) {
          r.embeddings(v, t) += beta[k] * messages[k](v, t);
        }
      }
    }
  }

  // Node head.
  r.logits = Mul(r.embeddings, w.head_w);
  for (size_t v = 0; v < r.logits.rows(); ++v) {
    for (size_t j = 0; j < r.logits.cols(); ++j) {
      r.logits(v, j) += w.head_b(0, j);
    }
  }
  return r;
}

// ---------------------------------------------------------------------------
// Fixtures and comparison.

struct Edge {
  size_t u, v;
  double weight;
};

struct TestGraph {
  std::string name;
  graph::Graph graph;
  Matrix adjacency;  // dense, weighted, symmetric
};

TestGraph MakeTestGraph(std::string name, size_t n,
                        const std::vector<Edge>& edges, uint64_t seed) {
  TestGraph t;
  t.name = std::move(name);
  t.adjacency = Matrix(n, n);
  graph::GraphBuilder builder(n);
  for (const Edge& e : edges) {
    builder
        .AddEdge(static_cast<graph::NodeId>(e.u),
                 static_cast<graph::NodeId>(e.v), e.weight)
        .CheckOK();
    t.adjacency(e.u, e.v) = t.adjacency(e.v, e.u) = e.weight;
  }
  util::Rng rng(seed);
  builder.SetFeatures(Matrix::Gaussian(n, kFeatureDim, 1.0, &rng)).CheckOK();
  t.graph = std::move(builder).Build().ValueOrDie();
  return t;
}

// Each unordered pair {u, v} of [lo, hi) becomes an edge of weight 1 with
// probability p.
void AddRandomEdges(size_t lo, size_t hi, double p, util::Rng* rng,
                    std::vector<Edge>* edges) {
  for (size_t u = lo; u < hi; ++u) {
    for (size_t v = u + 1; v < hi; ++v) {
      if (rng->NextBernoulli(p)) edges->push_back({u, v, 1.0});
    }
  }
}

std::vector<TestGraph> TestGraphs() {
  std::vector<TestGraph> graphs;
  util::Rng rng(2024);
  std::vector<Edge> edges;
  AddRandomEdges(0, 11, 0.3, &rng, &edges);  // node 11 stays isolated
  graphs.push_back(MakeTestGraph("isolated_node", 12, edges, 1));

  edges.clear();
  for (size_t leaf = 1; leaf < 10; ++leaf) edges.push_back({0, leaf, 1.0});
  graphs.push_back(MakeTestGraph("star", 10, edges, 2));

  // A unit-weight clique's Â averages all rows, so every node gets the same
  // representation and every φ ties; distinct weights break the symmetry.
  edges.clear();
  for (size_t u = 0; u < 6; ++u) {
    for (size_t v = u + 1; v < 6; ++v) {
      edges.push_back({u, v, rng.NextUniform(0.5, 2.0)});
    }
  }
  graphs.push_back(MakeTestGraph("weighted_clique", 6, edges, 3));

  edges.clear();
  for (size_t i = 0; i < 7; ++i) edges.push_back({i, (i + 1) % 7, 1.0});
  AddRandomEdges(7, 17, 0.3, &rng, &edges);
  graphs.push_back(MakeTestGraph("two_components", 17, edges, 4));

  edges.clear();
  AddRandomEdges(0, 24, 0.15, &rng, &edges);
  graphs.push_back(MakeTestGraph("random_24", 24, edges, 5));

  // Attention-only φ_i is 1/|c(i)| up to rounding (the softmax sums to
  // one), so that mode ties whenever adjacent ego-networks have equal size
  // or a node sits in several one-member networks. In this tree no
  // adjacent nodes share a degree and no node has two leaf neighbours, at
  // level 0 and in the hyper-tree level 1 pools it into.
  edges.clear();
  for (auto [u, v] : {std::pair<size_t, size_t>{0, 1}, {1, 2}, {2, 3}, {2, 4},
                      {4, 5}, {4, 6}, {6, 7}, {4, 8}, {8, 9}, {8, 10},
                      {10, 11}}) {
    edges.push_back({u, v, 1.0});
  }
  graphs.push_back(MakeTestGraph("caterpillar_12", 12, edges, 7));

  edges.clear();
  for (size_t i = 0; i + 1 < 32; ++i) edges.push_back({i, i + 1, 1.0});
  for (size_t i = 0; i + 3 < 32; i += 5) edges.push_back({i, i + 3, 1.0});
  graphs.push_back(MakeTestGraph("path_with_chords_32", 32, edges, 6));
  return graphs;
}

// max |want − got| ≤ kTolerance · max |want|.
void ExpectClose(const Matrix& want, const Matrix& got,
                 const std::string& what) {
  ASSERT_EQ(want.rows(), got.rows()) << what;
  ASSERT_EQ(want.cols(), got.cols()) << what;
  double scale = 0.0, err = 0.0;
  for (size_t i = 0; i < want.size(); ++i) {
    scale = std::max(scale, std::fabs(want.data()[i]));
    err = std::max(err, std::fabs(want.data()[i] - got.data()[i]));
  }
  EXPECT_LE(err, kTolerance * scale) << what << " (scale " << scale << ")";
}

void ExpectMatchesOracle(const OracleResult& want,
                         const InferenceSession::Result& got) {
  ExpectClose(want.embeddings, got.embeddings, "embeddings");
  ExpectClose(want.logits, got.logits, "logits");
  ExpectClose(want.attention, got.flyback_attention, "flyback attention");
  ASSERT_EQ(want.levels.size(), got.levels.size());
  for (size_t k = 0; k < want.levels.size(); ++k) {
    SCOPED_TRACE("level " + std::to_string(k + 1));
    EXPECT_EQ(want.levels[k].num_prev_nodes, got.levels[k].num_prev_nodes);
    EXPECT_EQ(want.levels[k].num_hyper_nodes, got.levels[k].num_hyper_nodes);
    EXPECT_EQ(want.levels[k].num_selected_egos,
              got.levels[k].num_selected_egos);
    EXPECT_EQ(want.levels[k].num_retained, got.levels[k].num_retained);
    EXPECT_EQ(want.levels[k].num_covered, got.levels[k].num_covered);
  }
  EXPECT_EQ(want.level1_egos, got.level1_egos);
  EXPECT_EQ(want.level1_ego_of_node, got.level1_ego_of_node);
}

const char* ModeName(FitnessMode mode) {
  switch (mode) {
    case FitnessMode::kBoth:
      return "both";
    case FitnessMode::kAttentionOnly:
      return "attention";
    case FitnessMode::kSigmoidOnly:
      return "sigmoid";
  }
  return "?";
}

TEST(DenseOracleTest, SessionAndBatchMatchDenseReference) {
  const std::vector<TestGraph> graphs = TestGraphs();
  std::vector<const graph::Graph*> members;
  for (const TestGraph& t : graphs) members.push_back(&t.graph);
  graph::MakeBatchOptions batch_options;
  batch_options.require_labels = false;
  const graph::GraphBatch batch =
      graph::MakeBatch(members, batch_options).ValueOrDie();

  // Per FitnessMode: kBoth, kAttentionOnly, kSigmoidOnly.
  size_t checked[3] = {0, 0, 0}, skipped[3] = {0, 0, 0};
  size_t deepest = 0;
  uint64_t seed = 100;
  for (int levels : {1, 2, 3}) {
    for (int lambda : {1, 2}) {
      for (bool flyback : {true, false}) {
        for (FitnessMode mode :
             {FitnessMode::kBoth, FitnessMode::kAttentionOnly,
              FitnessMode::kSigmoidOnly}) {
          AdamGnnConfig config;
          config.in_dim = kFeatureDim;
          config.hidden_dim = kHidden;
          config.num_classes = kClasses;
          config.num_levels = levels;
          config.lambda = lambda;
          config.use_flyback = flyback;
          config.fitness_mode = mode;
          util::Rng rng(++seed);
          AdamGnn model(config, &rng);
          // Biases start at zero; positive ones keep ReLU rows from dying,
          // and dead rows tie every φ they feed.
          for (autograd::Variable p : model.Parameters()) {
            if (p.rows() == 1) {
              p.mutable_value() = Matrix::Uniform(1, p.cols(), 0.0, 0.5, &rng);
            }
          }
          const Weights weights = WeightsOf(model);
          InferenceSession session(model);
          const std::vector<InferenceSession::Result> batched =
              session.RunBatch(BatchPlan::Build(batch, lambda));
          ASSERT_EQ(batched.size(), graphs.size());

          for (size_t g = 0; g < graphs.size(); ++g) {
            SCOPED_TRACE(std::string("K=") + std::to_string(levels) +
                         " lambda=" + std::to_string(lambda) +
                         " flyback=" + (flyback ? "on" : "off") +
                         " fitness=" + ModeName(mode) +
                         " graph=" + graphs[g].name);
            const OracleResult want =
                Oracle(config, weights, graphs[g].adjacency,
                       graphs[g].graph.features());
            if (want.near_tie) {
              ++skipped[static_cast<int>(mode)];
              continue;
            }
            ++checked[static_cast<int>(mode)];
            deepest = std::max(deepest, want.levels.size());
            ExpectMatchesOracle(
                want, session.Run(GraphPlan::Build(graphs[g].graph, lambda)));
            ExpectMatchesOracle(want, batched[g]);
          }
        }
      }
    }
  }
  std::printf("dense oracle: cases checked / skipped for near-tied fitness "
              "scores: both %zu/%zu, attention %zu/%zu, sigmoid %zu/%zu\n",
              checked[0], skipped[0], checked[1], skipped[1], checked[2],
              skipped[2]);
  // Most cases of each mode are compared; attention-only ties by
  // construction outside the caterpillar.
  EXPECT_GT(checked[0], skipped[0]);
  EXPECT_GT(checked[1], 0u);
  EXPECT_GT(checked[2], skipped[2]);
  // The sweep must reach the deepest configured level somewhere, or K = 3
  // was never actually exercised.
  EXPECT_EQ(deepest, 3u);
}

}  // namespace
}  // namespace adamgnn::core
