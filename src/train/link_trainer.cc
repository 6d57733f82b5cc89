#include "train/link_trainer.h"

#include <cmath>

#include "autograd/loss_ops.h"
#include "autograd/ops.h"
#include "nn/optimizer.h"
#include "obs/trace.h"
#include "tensor/workspace.h"
#include "train/metrics.h"
#include "train/resilience.h"
#include "train/telemetry.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace adamgnn::train {

namespace {

// AUC of dot-product scores for pos vs. neg pairs under embeddings h.
double PairAuc(const tensor::Matrix& h,
               const std::vector<std::pair<size_t, size_t>>& pos,
               const std::vector<std::pair<size_t, size_t>>& neg) {
  std::vector<double> scores;
  std::vector<int> labels;
  auto score = [&h](const std::pair<size_t, size_t>& p) {
    const double* a = h.row(p.first);
    const double* b = h.row(p.second);
    double s = 0.0;
    for (size_t j = 0; j < h.cols(); ++j) s += a[j] * b[j];
    return s;
  };
  for (const auto& p : pos) {
    scores.push_back(score(p));
    labels.push_back(1);
  }
  for (const auto& p : neg) {
    scores.push_back(score(p));
    labels.push_back(0);
  }
  return RocAuc(scores, labels);
}

}  // namespace

util::Result<LinkTaskResult> TrainLinkPredictor(EmbeddingModel* model,
                                                const data::LinkSplit& split,
                                                const TrainConfig& config) {
  if (model == nullptr) {
    return util::Status::InvalidArgument("null model");
  }
  if (split.train_pos.empty() || split.val_pos.empty() ||
      split.test_pos.empty()) {
    return util::Status::InvalidArgument("empty link split");
  }

  // Epoch-storage arena (see node_trainer.cc); declared before the optimizer
  // so the optimizer's buffers drain into it on scope exit.
  tensor::Workspace workspace;
  tensor::Workspace::Bind workspace_bind(&workspace);

  util::Rng rng(config.seed);
  nn::Adam optimizer(model->Parameters(), config.learning_rate, 0.9, 0.999,
                     1e-8, config.weight_decay);
  TrainingResilience resilience(config, &optimizer, &rng);
  ADAMGNN_ASSIGN_OR_RETURN(int start_epoch, resilience.Initialize());
  nn::TrainingState& st = resilience.state();

  // Training targets: positives then negatives.
  std::vector<size_t> train_src, train_dst;
  for (const auto* edges : {&split.train_pos, &split.train_neg}) {
    for (const auto& [u, v] : *edges) {
      train_src.push_back(u);
      train_dst.push_back(v);
    }
  }
  std::vector<double> targets(split.train_pos.size(), 1.0);
  targets.resize(train_src.size(), 0.0);

  LinkTaskResult result;
  result.epochs_run = start_epoch;

  for (int epoch = start_epoch; epoch < config.max_epochs; ++epoch) {
    util::Stopwatch watch;
    obs::TraceSpan epoch_span("train.epoch");
    epoch_span.Note("epoch", static_cast<double>(epoch));
    EpochPhases phases;
    util::Stopwatch phase_watch;
    EmbeddingModel::Out out =
        model->Forward(split.train_graph, /*training=*/true, &rng);
    autograd::Variable logits =
        autograd::EdgeDotProduct(out.embeddings, train_src, train_dst);
    autograd::Variable loss =
        autograd::BinaryCrossEntropyWithLogits(logits, targets);
    if (out.aux_loss.defined()) loss = autograd::Add(loss, out.aux_loss);
    phases.forward_secs = phase_watch.ElapsedSeconds();

    double loss_value = loss.value()(0, 0);
    double grad_norm = 0.0;
    ADAMGNN_ASSIGN_OR_RETURN(bool recovered,
                             resilience.GuardLoss(epoch, &loss_value));
    if (!recovered) {
      phase_watch.Restart();
      autograd::Backward(loss);
      grad_norm = nn::ClipGradNorm(optimizer.params(), config.clip_norm);
      phases.backward_secs = phase_watch.ElapsedSeconds();
      ADAMGNN_ASSIGN_OR_RETURN(recovered,
                               resilience.GuardGradNorm(epoch, grad_norm));
    }
    if (recovered) {
      const double epoch_secs = watch.ElapsedSeconds();
      st.total_epoch_seconds += epoch_secs;
      result.epochs_run = epoch + 1;
      epoch_span.Note("recovered", 1.0);
      RecordEpochMetrics(epoch_secs, loss_value, grad_norm, phases,
                         &workspace);
      continue;
    }
    phase_watch.Restart();
    optimizer.Step();
    phases.optimizer_secs = phase_watch.ElapsedSeconds();
    const double epoch_secs = watch.ElapsedSeconds();
    st.total_epoch_seconds += epoch_secs;
    result.epochs_run = epoch + 1;

    phase_watch.Restart();
    EmbeddingModel::Out eval = model->Evaluate(split.train_graph, &rng);
    const double val_auc =
        PairAuc(eval.embeddings.value(), split.val_pos, split.val_neg);
    if (config.verbose) {
      ADAMGNN_LOG(Info) << "epoch " << epoch << " loss " << loss_value
                        << " val AUC " << val_auc;
    }
    if (val_auc > st.best_val) {
      st.best_val = val_auc;
      st.best_epoch = epoch;
      st.best_val_metric = val_auc;
      st.best_test_metric =
          PairAuc(eval.embeddings.value(), split.test_pos, split.test_neg);
      st.stale_epochs = 0;
    } else {
      ++st.stale_epochs;
    }
    phases.eval_secs = phase_watch.ElapsedSeconds();
    epoch_span.Note("loss", loss_value);
    epoch_span.Note("grad_norm", grad_norm);
    epoch_span.Note("val_metric", val_auc);
    RecordEpochMetrics(epoch_secs, loss_value, grad_norm, phases, &workspace);
    ADAMGNN_RETURN_NOT_OK(resilience.CompleteEpoch(epoch));
    if (st.stale_epochs >= config.patience) break;
  }
  ADAMGNN_RETURN_NOT_OK(resilience.Finalize(result.epochs_run));

  result.best_epoch = static_cast<int>(st.best_epoch);
  result.val_auc = st.best_val_metric;
  result.test_auc = st.best_test_metric;
  result.resumed_from_epoch = resilience.resumed_from_epoch();
  result.recovery_events = resilience.recovery_events();
  result.avg_epoch_seconds =
      result.epochs_run > 0
          ? st.total_epoch_seconds / static_cast<double>(result.epochs_run)
          : 0.0;
  return result;
}

}  // namespace adamgnn::train
