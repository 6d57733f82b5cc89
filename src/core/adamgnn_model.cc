#include "core/adamgnn_model.h"

#include <utility>

#include "autograd/ops.h"
#include "autograd/segment_ops.h"
#include "core/losses.h"
#include "core/unpooling.h"
#include "obs/trace.h"
#include "util/cancel.h"
#include "util/logging.h"

namespace adamgnn::core {

AdamGnn::AdamGnn(const AdamGnnConfig& config, util::Rng* rng)
    : config_(config), dropout_(config.dropout) {
  ADAMGNN_CHECK_GT(config.in_dim, 0u);
  ADAMGNN_CHECK_GT(config.hidden_dim, 0u);
  ADAMGNN_CHECK_GE(config.num_levels, 1);
  ADAMGNN_CHECK_GE(config.lambda, 1);

  input_conv_ =
      std::make_unique<nn::GcnConv>(config.in_dim, config.hidden_dim, rng);
  for (int k = 0; k < config.num_levels; ++k) {
    fitness_.push_back(std::make_unique<FitnessScorer>(
        config.hidden_dim, rng, config.fitness_mode));
    hyper_init_.push_back(
        std::make_unique<HyperFeatureInit>(config.hidden_dim, rng));
    level_convs_.push_back(
        std::make_unique<nn::GcnConv>(config.hidden_dim, config.hidden_dim,
                                      rng));
  }
  flyback_ = std::make_unique<FlybackAggregator>(config.hidden_dim, rng);
  if (config.num_classes > 0) {
    node_head_ = std::make_unique<nn::Linear>(config.hidden_dim,
                                              config.num_classes,
                                              /*use_bias=*/true, rng);
    graph_head_ = std::make_unique<nn::Linear>(2 * config.hidden_dim,
                                               config.num_classes,
                                               /*use_bias=*/true, rng);
  }
}

AdamGnn::Output AdamGnn::Forward(const graph::Graph& g, bool training,
                                 util::Rng* rng) const {
  return Forward(g, *GraphPlan::Build(g, config_.lambda), training, rng);
}

AdamGnn::Output AdamGnn::Forward(const graph::Graph& g, const GraphPlan& plan,
                                 bool training, util::Rng* rng) const {
  ADAMGNN_CHECK_EQ(g.feature_dim(), config_.in_dim);
  ADAMGNN_CHECK(plan.feature_constant().defined());
  return ForwardFromFeatures(g, plan, plan.feature_constant(), training, rng);
}

AdamGnn::Output AdamGnn::ForwardFromFeatures(const graph::Graph& g,
                                             const autograd::Variable& x,
                                             bool training,
                                             util::Rng* rng) const {
  return ForwardFromFeatures(g, *GraphPlan::Build(g, config_.lambda), x,
                             training, rng);
}

AdamGnn::Output AdamGnn::ForwardFromFeatures(const graph::Graph& g,
                                             const GraphPlan& plan,
                                             const autograd::Variable& x,
                                             bool training,
                                             util::Rng* rng) const {
  ADAMGNN_CHECK_EQ(x.rows(), g.num_nodes());
  ADAMGNN_CHECK_EQ(plan.num_nodes(), g.num_nodes());
  ADAMGNN_CHECK_EQ(plan.lambda(), config_.lambda);
  Output out;
  autograd::Variable h0 = PrimaryRepresentation(plan, x, training, rng);
  Cascade(plan.adjacency(), plan.level0(), h0, training, rng, &out).CheckOK();

  // Auxiliary losses (Eq. 7): L = L_task + γ L_KL + δ L_R. They come before
  // the head because L_R's negative samples are drawn from `rng` ahead of
  // the head's dropout mask.
  std::vector<autograd::Variable> aux_terms;
  if (config_.use_kl_loss && !out.level1_egos.empty()) {
    std::vector<size_t> kl_egos = out.level1_egos;
    if (config_.max_kl_egos > 0 && kl_egos.size() > config_.max_kl_egos) {
      std::vector<size_t> sampled;
      const size_t stride = kl_egos.size() / config_.max_kl_egos + 1;
      for (size_t i = 0; i < kl_egos.size(); i += stride) {
        sampled.push_back(kl_egos[i]);
      }
      kl_egos = std::move(sampled);
    }
    aux_terms.push_back(autograd::Scale(
        KlSelfOptimisationLoss(out.embeddings, kl_egos), config_.gamma));
  }
  if (config_.use_recon_loss) {
    aux_terms.push_back(autograd::Scale(
        ReconstructionLoss(out.embeddings, g, rng), config_.delta));
  }
  if (!aux_terms.empty()) out.aux_loss = autograd::AddN(aux_terms);

  out.logits = NodeLogits(out.embeddings, training, rng);
  return out;
}

autograd::Variable AdamGnn::PrimaryRepresentation(
    const GraphPlan& plan, const autograd::Variable& x, bool training,
    util::Rng* rng) const {
  ADAMGNN_CHECK_EQ(x.rows(), plan.num_nodes());
  ADAMGNN_CHECK_EQ(x.cols(), config_.in_dim);
  // One GCN layer, as in the paper.
  return dropout_.Apply(
      autograd::Relu(input_conv_->Forward(plan.norm_adj(), x)), rng, training);
}

util::Status AdamGnn::Cascade(const graph::SparseMatrix& adjacency,
                              const LevelTopology& level0,
                              const autograd::Variable& h0, bool training,
                              util::Rng* rng, Output* out) const {
  ADAMGNN_RETURN_NOT_OK(util::CheckCancel());

  // Multi-grained structure construction, level by level. Level 0's
  // topology comes precomputed; deeper levels depend on the weight-dependent
  // selections below them, so they are derived on the fly.
  const graph::SparseMatrix* cur_adj = &adjacency;
  const LevelTopology* cur_topo = &level0;
  graph::SparseMatrix owned_adj;
  LevelTopology owned_topo;
  autograd::Variable h_prev = h0;
  std::vector<Assignment> assignments;
  std::vector<autograd::Variable> messages;

  for (int k = 0; k < config_.num_levels; ++k) {
    const EgoPairs& pairs = cur_topo->pairs;
    if (pairs.num_pairs() == 0) break;  // no edges left to pool over

    FitnessScorer::Scores scores;
    {
      obs::TraceSpan span("stage.fitness");
      span.Note("level", k);
      span.Note("pairs", static_cast<double>(pairs.num_pairs()));
      span.Note("nnz", static_cast<double>(cur_adj->nnz()));
      scores = fitness_[static_cast<size_t>(k)]->Score(pairs, h_prev);
    }
    ADAMGNN_RETURN_NOT_OK(util::CheckCancel());
    Selection sel =
        SelectEgoNetworks(scores.ego_phi.value(), cur_topo->adjacency, pairs);
    if (sel.selected_egos.empty()) break;
    if (sel.num_hyper_nodes() >= pairs.num_nodes) break;  // no compression

    Assignment asg = BuildAssignment(pairs, sel, scores);
    autograd::Variable x_k = hyper_init_[static_cast<size_t>(k)]->Initialise(
        sel, asg, scores, h_prev);
    ADAMGNN_RETURN_NOT_OK(util::CheckCancel());

    graph::SparseMatrix next_adj;
    std::shared_ptr<const graph::SparseMatrix> norm_next;
    {
      obs::TraceSpan span("stage.coarsen");
      span.Note("level", k);
      span.Note("pairs", static_cast<double>(pairs.num_pairs()));
      next_adj = NextAdjacency(*cur_adj, asg);
      norm_next =
          std::make_shared<const graph::SparseMatrix>(next_adj.Normalized());
      span.Note("nnz", static_cast<double>(next_adj.nnz()));
    }
    // A_k's values are learned, so this operator is rebuilt every forward;
    // prewarming moves its one transposed-view build off the backward pass
    // (where the gather SpMMᵀ would otherwise build it lazily mid-gradient).
    // Without a tape no backward runs, so eval and serving skip it.
    if (autograd::GradEnabled()) norm_next->PrewarmTranspose();
    autograd::Variable h_k = autograd::Relu(
        level_convs_[static_cast<size_t>(k)]->Forward(norm_next, x_k));
    h_k = dropout_.Apply(h_k, rng, training);
    ADAMGNN_RETURN_NOT_OK(util::CheckCancel());

    LevelInfo info;
    info.num_prev_nodes = pairs.num_nodes;
    info.num_hyper_nodes = sel.num_hyper_nodes();
    info.num_selected_egos = sel.selected_egos.size();
    info.num_retained = sel.retained_nodes.size();
    info.num_covered = 0;
    for (bool c : sel.covered) info.num_covered += c ? 1 : 0;
    out->levels.push_back(info);
    if (k == 0) {
      out->level1_egos = sel.selected_egos;
      // Ownership map for explainability: strongest-φ covering ego.
      out->level1_ego_of_node.assign(pairs.num_nodes, -1);
      std::vector<double> best_phi(pairs.num_nodes, -1.0);
      for (size_t e : sel.selected_egos) {
        out->level1_ego_of_node[e] = static_cast<int64_t>(e);
        best_phi[e] = 2.0;  // an ego always owns itself
      }
      for (size_t idx : asg.kept_pair_indices) {
        const size_t member = pairs.member[idx];
        const size_t ego = pairs.ego[idx];
        const double phi = scores.pair_phi.value()(idx, 0);
        if (phi > best_phi[member]) {
          best_phi[member] = phi;
          out->level1_ego_of_node[member] = static_cast<int64_t>(ego);
        }
      }
    }

    assignments.push_back(std::move(asg));
    messages.push_back(Unpool(assignments, assignments.size(), h_k));
    ADAMGNN_RETURN_NOT_OK(util::CheckCancel());

    if (sel.num_hyper_nodes() < 4) break;  // pooled to (near) a point
    owned_adj = std::move(next_adj);
    cur_adj = &owned_adj;
    owned_topo = LevelTopology::FromAdjacency(
        AdjacencyListsFromSparse(owned_adj), config_.lambda);
    cur_topo = &owned_topo;
    // FromAdjacency's ego enumeration breaks out early once the token
    // fires; discard the truncated topology before the next level uses it.
    ADAMGNN_RETURN_NOT_OK(util::CheckCancel());
    h_prev = h_k;
  }

  // Flyback aggregation (Eq. 4); the ablation keeps H = H_0.
  if (config_.use_flyback) {
    FlybackAggregator::Output fb = flyback_->Aggregate(h0, messages);
    out->embeddings = fb.h;
    out->flyback_attention = std::move(fb.attention);
  } else {
    out->embeddings = h0;
    out->flyback_attention = tensor::Matrix(h0.rows(), 0);
  }
  return util::CheckCancel();
}

autograd::Variable AdamGnn::NodeLogits(const autograd::Variable& embeddings,
                                       bool training, util::Rng* rng) const {
  if (node_head_ == nullptr) return autograd::Variable();
  return node_head_->Forward(dropout_.Apply(embeddings, rng, training));
}

autograd::Variable AdamGnn::GraphLogits(
    const Output& out, const std::vector<size_t>& node_to_graph,
    size_t num_graphs) const {
  ADAMGNN_CHECK(graph_head_ != nullptr);
  ADAMGNN_CHECK_EQ(node_to_graph.size(), out.embeddings.rows());
  autograd::Variable mean_read =
      autograd::SegmentMean(out.embeddings, node_to_graph, num_graphs);
  autograd::Variable max_read =
      autograd::SegmentMax(out.embeddings, node_to_graph, num_graphs);
  return graph_head_->Forward(autograd::ConcatCols(mean_read, max_read));
}

void AdamGnn::CopyWeightsFrom(const AdamGnn& source) {
  ADAMGNN_CHECK_LE(config_.num_levels, source.config_.num_levels);
  ADAMGNN_CHECK_EQ(node_head_ == nullptr, source.node_head_ == nullptr);
  auto copy = [](const nn::Module& from, const nn::Module& to) {
    const std::vector<autograd::Variable> src = from.Parameters();
    std::vector<autograd::Variable> dst = to.Parameters();
    ADAMGNN_CHECK_EQ(src.size(), dst.size());
    for (size_t i = 0; i < src.size(); ++i) {
      ADAMGNN_CHECK(src[i].value().SameShape(dst[i].value()));
      dst[i].mutable_value() = src[i].value();
    }
  };
  copy(*source.input_conv_, *input_conv_);
  for (size_t k = 0; k < fitness_.size(); ++k) {
    copy(*source.fitness_[k], *fitness_[k]);
    copy(*source.hyper_init_[k], *hyper_init_[k]);
    copy(*source.level_convs_[k], *level_convs_[k]);
  }
  copy(*source.flyback_, *flyback_);
  if (node_head_ != nullptr) {
    copy(*source.node_head_, *node_head_);
    copy(*source.graph_head_, *graph_head_);
  }
}

std::vector<autograd::Variable> AdamGnn::Parameters() const {
  std::vector<autograd::Variable> params = input_conv_->Parameters();
  auto append = [&params](const std::vector<autograd::Variable>& more) {
    params.insert(params.end(), more.begin(), more.end());
  };
  for (const auto& f : fitness_) append(f->Parameters());
  for (const auto& h : hyper_init_) append(h->Parameters());
  for (const auto& c : level_convs_) append(c->Parameters());
  append(flyback_->Parameters());
  if (node_head_ != nullptr) append(node_head_->Parameters());
  if (graph_head_ != nullptr) append(graph_head_->Parameters());
  return params;
}

}  // namespace adamgnn::core
