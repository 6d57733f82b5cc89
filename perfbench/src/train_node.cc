// train_node: full-batch AdamGNN node-classification training on the
// bench_epoch hierarchical-SBM graph. One op is one epoch, driven by hand
// through the same public calls, in the same order, as
// train::TrainNodeClassifier, so every call into core, autograd and nn can
// be timed from outside.

#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "autograd/loss_ops.h"
#include "autograd/ops.h"
#include "core/adapters.h"
#include "data/features.h"
#include "data/sbm.h"
#include "data/splits.h"
#include "graph/builder.h"
#include "nn/optimizer.h"
#include "obs/metrics.h"
#include "tensor/isa.h"
#include "tensor/workspace.h"
#include "train/node_trainer.h"
#include "util/random.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace adamgnn;

constexpr size_t kNodes = 3000;
constexpr size_t kFeatureDim = 64;
constexpr size_t kAvgDegree = 16;
constexpr int kClasses = 4;
constexpr size_t kHidden = 64;
constexpr int kLevels = 2;
constexpr int kPool = 2;
// Each pass is a set-up (graph, model, warm-up epoch 0) followed by the
// timed epochs 1..kTimedEpochs. Runs are whole passes, at least
// kMinPasses, so setup_s is a median of at least three samples.
constexpr int kTimedEpochs = 4;
constexpr size_t kMinPasses = 3;
// A recorded trajectory is matched within this relative tolerance, loose
// enough for summation-order changes to the kernels.
constexpr double kTrajectoryRelTol = 1e-9;

// The bench_epoch workload generator: structural degree-profile features
// over a hierarchical SBM, built in two passes.
graph::Graph BuildGraph(uint64_t seed) {
  util::Rng rng(seed);
  data::SbmConfig sbm;
  sbm.num_nodes = kNodes;
  sbm.num_classes = kClasses;
  sbm.communities_per_class =
      static_cast<int>(kNodes / (static_cast<size_t>(kClasses) * 50));
  sbm.target_edges = kNodes * kAvgDegree / 2;
  data::SbmSample sample = data::SampleSbm(sbm, &rng).ValueOrDie();

  graph::GraphBuilder builder(kNodes);
  for (const auto& [u, v] : sample.edges) builder.AddEdge(u, v).CheckOK();
  builder.SetLabels(sample.classes).CheckOK();
  graph::Graph structural = std::move(builder).Build().ValueOrDie();

  graph::GraphBuilder builder2(kNodes);
  for (const auto& [u, v] : sample.edges) builder2.AddEdge(u, v).CheckOK();
  builder2.SetLabels(sample.classes).CheckOK();
  builder2.SetFeatures(data::DegreeFeatures(structural, kFeatureDim, &rng))
      .CheckOK();
  return std::move(builder2).Build().ValueOrDie();
}

data::IndexSplit MakeSplit(uint64_t seed) {
  util::Rng rng(seed + 13);
  return data::SplitIndices(kNodes, 0.8, 0.1, &rng).ValueOrDie();
}

core::AdamGnnConfig ModelConfig() {
  core::AdamGnnConfig mc;
  mc.in_dim = kFeatureDim;
  mc.hidden_dim = kHidden;
  mc.num_classes = kClasses;
  mc.num_levels = kLevels;
  return mc;
}

train::TrainConfig TrainerConfig(uint64_t seed, int epochs) {
  train::TrainConfig tc;
  tc.max_epochs = epochs;
  tc.patience = epochs + 1;  // never early-stop
  tc.learning_rate = 0.01;
  tc.seed = seed;
  return tc;
}

/// Everything train::TrainNodeClassifier holds during its loop, declared in
/// its order: the caller's model first, then the bound workspace, the epoch
/// RNG and the optimizer.
struct TrainRun {
  explicit TrainRun(uint64_t seed)
      : g(BuildGraph(seed)),
        split(MakeSplit(seed)),
        model_rng(seed + 77),
        model(ModelConfig(), &model_rng),
        config(TrainerConfig(seed, 0)),
        bind(&workspace),
        rng(config.seed),
        optimizer(model.Parameters(), config.learning_rate, 0.9, 0.999, 1e-8,
                  config.weight_decay) {}

  graph::Graph g;
  data::IndexSplit split;
  util::Rng model_rng;
  core::AdamGnnNodeModel model;
  train::TrainConfig config;
  tensor::Workspace workspace;
  tensor::Workspace::Bind bind;
  util::Rng rng;
  nn::Adam optimizer;
};

/// One epoch: forward, loss, backward, clip + Adam step, eval. Returns the
/// training loss; fills `levels` with the training forward's pooling stats.
double Epoch(TrainRun* run, Tracer* tracer, bool traced,
             std::vector<core::LevelInfo>* levels) {
  ScopedSpan epoch(tracer, "epoch", -1, traced);
  train::NodeModel& model = run->model;
  train::NodeModel::Out out;
  {
    ScopedSpan s(tracer, "core.train_forward", epoch.id(), traced);
    out = model.Forward(run->g, /*training=*/true, &run->rng);
  }
  *levels = run->model.last_levels();
  autograd::Variable loss;
  {
    ScopedSpan s(tracer, "autograd.loss", epoch.id(), traced);
    loss = autograd::SoftmaxCrossEntropy(out.logits, run->g.labels(),
                                         run->split.train);
    if (out.aux_loss.defined()) loss = autograd::Add(loss, out.aux_loss);
  }
  const double loss_value = loss.value()(0, 0);
  {
    ScopedSpan s(tracer, "autograd.backward", epoch.id(), traced);
    autograd::Backward(loss);
  }
  {
    ScopedSpan s(tracer, "nn.optimizer", epoch.id(), traced);
    nn::ClipGradNorm(run->optimizer.params(), run->config.clip_norm);
    run->optimizer.Step();
  }
  {
    ScopedSpan s(tracer, "core.eval", epoch.id(), traced);
    model.Evaluate(run->g, &run->rng);
  }
  return loss_value;
}

struct LevelCounts {
  double level1_nodes = 0;
  double level2_nodes = 0;
  double level1_egos = 0;
};

LevelCounts CountsOf(const std::vector<core::LevelInfo>& levels) {
  LevelCounts c;
  if (!levels.empty()) {
    c.level1_nodes = static_cast<double>(levels[0].num_hyper_nodes);
    c.level1_egos = static_cast<double>(levels[0].num_selected_egos);
  }
  if (levels.size() > 1) {
    c.level2_nodes = static_cast<double>(levels[1].num_hyper_nodes);
  }
  return c;
}

/// Guards one epoch's level counts against the counts `want` holds for it.
void RequireLevels(const char* against, int epoch, const LevelCounts& got,
                   const LevelCounts& want) {
  const std::string where =
      std::string(" at epoch ") + std::to_string(epoch) + " " + against;
  RequireExact(("core.level1_nodes" + where).c_str(), got.level1_nodes,
               want.level1_nodes);
  RequireExact(("core.level2_nodes" + where).c_str(), got.level2_nodes,
               want.level2_nodes);
  RequireExact(("core.level1_egos" + where).c_str(), got.level1_egos,
               want.level1_egos);
}

/// Epochs 0..n-1 from a fresh model: their losses and the training
/// forward's level counts.
struct Trajectory {
  std::vector<double> losses;
  std::vector<LevelCounts> levels;
};

/// Runs one epoch on `run` and appends it to `traj`.
void RecordEpoch(TrainRun* run, Tracer* tracer, bool traced,
                 Trajectory* traj) {
  std::vector<core::LevelInfo> level_info;
  traj->losses.push_back(Epoch(run, tracer, traced, &level_info));
  traj->levels.push_back(CountsOf(level_info));
}

/// A trajectory recorded by `perfbench --record N` at one seed.
struct Recording {
  bool present = false;
  std::string isa;
  Trajectory traj;
};

std::string RecordingPath(const Args& args) {
  return args.bench_dir + "/trajectories/train_node-seed" +
         std::to_string(args.seed) + ".txt";
}

Recording LoadRecording(const Args& args) {
  Recording rec;
  std::ifstream in(RecordingPath(args));
  if (!in) return rec;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string key;
    fields >> key;
    if (key == "isa") fields >> rec.isa;
    if (key == "epoch") {
      size_t epoch = 0;
      std::string loss;
      LevelCounts c;
      fields >> epoch >> loss >> c.level1_nodes >> c.level2_nodes >>
          c.level1_egos;
      if (!fields || epoch != rec.traj.losses.size()) break;
      rec.traj.losses.push_back(std::strtod(loss.c_str(), nullptr));
      rec.traj.levels.push_back(c);
    }
  }
  rec.present = !rec.traj.losses.empty();
  return rec;
}

}  // namespace

Report RunTrainNode(const Args& args, Tracer* tracer) {
  util::SetNumThreads(kPool);
  Report report;
  report.workload = "train_node";
  report.requested_pool = kPool;
  Timings t;
  t.min_passes = kMinPasses;

  // Passes until the time is up, at least kMinPasses. Each pass starts
  // from nothing, so every pass does the same work whatever the speed:
  //   set-up  graph, model, optimizer, and the warm-up epoch 0, which pays
  //           the workspace arena's first misses; one setup_s sample;
  //   timed   epochs 1..kTimedEpochs, one op each.
  std::vector<Trajectory> passes;
  std::unique_ptr<TrainRun> run;
  double ws_hits = 0, ws_misses = 0;
  CounterDelta counters;
  const Clock::time_point start = Clock::now();
  while (passes.size() < kMinPasses || SecondsSince(start) < args.seconds) {
    const size_t p = passes.size();
    Trajectory& traj = passes.emplace_back();
    run.reset();  // unbind the previous workspace before binding a new one
    const Clock::time_point setup_start = Clock::now();
    const double setup_cpu = ProcessCpuSeconds();
    run = std::make_unique<TrainRun>(args.seed);
    RecordEpoch(run.get(), tracer, false, &traj);
    t.setup_cpu_s.push_back(ProcessCpuSeconds() - setup_cpu);
    t.setup_wall_s.push_back(SecondsSince(setup_start));

    const tensor::Workspace::Stats ws_before = run->workspace.stats();
    const obs::MetricsSnapshot m_before =
        obs::MetricsRegistry::Global().Collect();
    const Usage usage_before = Usage::Now();
    Pass pass;
    for (int e = 1; e <= kTimedEpochs; ++e) {
      const bool traced =
          tracer->enabled() && (static_cast<size_t>(e) + p) % 2 == 1;
      const Clock::time_point t0 = Clock::now();
      const double cpu0 = ProcessCpuSeconds();
      RecordEpoch(run.get(), tracer, traced, &traj);
      const double cpu_ms = (ProcessCpuSeconds() - cpu0) * 1e3;
      const double seconds = SecondsSince(t0);
      (traced ? pass.traced_ms : pass.untraced_ms).push_back(seconds * 1e3);
      if (!traced) pass.untraced_cpu_ms.push_back(cpu_ms);
      pass.seconds += seconds;
      ++pass.ops;
    }
    const Usage usage_after = Usage::Now();
    t.timed.AddInterval(usage_before, usage_after);
    pass.max_rss_kb = usage_after.max_rss_kb;
    counters.Add(m_before, obs::MetricsRegistry::Global().Collect());
    const tensor::Workspace::Stats ws_after = run->workspace.stats();
    ws_hits += static_cast<double>(ws_after.hits - ws_before.hits);
    ws_misses += static_cast<double>(ws_after.misses - ws_before.misses);
    t.passes.push_back(std::move(pass));

    for (int e = 0; e <= kTimedEpochs; ++e) {
      RequireLevels("across passes", e, traj.levels[static_cast<size_t>(e)],
                    passes[0].levels[static_cast<size_t>(e)]);
    }
  }
  const double retained_mb = static_cast<double>(
                                 run->workspace.stats().retained_doubles) *
                             8.0 / (1024.0 * 1024.0);
  FinishReport(t, &report);

  const Recording rec = LoadRecording(args);
  const std::string isa = tensor::IsaName(tensor::ActiveIsa());
  const bool use_recording = rec.present && rec.isa == isa;
  if (use_recording) {
    for (int e = 0; e <= kTimedEpochs; ++e) {
      if (static_cast<size_t>(e) >= rec.traj.levels.size()) break;
      RequireLevels("vs recording", e,
                    passes[0].levels[static_cast<size_t>(e)],
                    rec.traj.levels[static_cast<size_t>(e)]);
    }
  }

  for (const char* name : {"core.train_forward", "autograd.backward",
                           "nn.optimizer", "core.eval"}) {
    const std::vector<double> d = tracer->DurationsMs(name);
    report.AddLayer(std::string(name) + "_ms", Median(d), "ms", d.size());
  }
  report.AddLayer("tensor.workspace_hit_frac",
                  Ratio(ws_hits, ws_hits + ws_misses), "frac",
                  static_cast<size_t>(ws_hits + ws_misses));
  report.AddLayer("tensor.workspace_retained_mb", retained_mb, "MB", 1);
  report.AddLayer("util.pool_inline_frac", PoolInlineFrac(counters), "frac",
                  counters.Counter("pool.jobs") +
                      counters.Counter("pool.inline_jobs"));
  // The level counts of the timed epochs 1..kTimedEpochs, summed: the
  // amount of hierarchy each pass's timed work builds.
  LevelCounts timed_levels;
  for (int e = 1; e <= kTimedEpochs; ++e) {
    const LevelCounts& c = passes[0].levels[static_cast<size_t>(e)];
    timed_levels.level1_nodes += c.level1_nodes;
    timed_levels.level2_nodes += c.level2_nodes;
    timed_levels.level1_egos += c.level1_egos;
  }
  report.AddLayer("core.level1_nodes", timed_levels.level1_nodes, "count",
                  kTimedEpochs);
  report.AddLayer("core.level2_nodes", timed_levels.level2_nodes, "count",
                  kTimedEpochs);
  report.AddLayer("core.level1_egos", timed_levels.level1_egos, "count",
                  kTimedEpochs);

  report.AddFact("nodes", std::to_string(run->g.num_nodes()));
  report.AddFact("edges", std::to_string(run->g.num_edges()));
  report.AddFact("feature_dim", std::to_string(kFeatureDim));
  report.AddFact("hidden_dim", std::to_string(kHidden));
  report.AddFact("levels_k", std::to_string(kLevels));
  report.AddFact("passes", std::to_string(passes.size()));
  report.AddFact("timed_epochs_per_pass", std::to_string(kTimedEpochs));

  // Untimed checks. The library's own trainer replays epochs
  // 0..kTimedEpochs at the same seed; every pass of the hand-driven loop
  // must match it bit for bit (driver fidelity). Where a trajectory was
  // recorded at this seed on this ISA, every epoch must also match it
  // within kTrajectoryRelTol.
  graph::Graph g = std::move(run->g);
  const data::IndexSplit split = run->split;
  run.reset();
  util::Rng ref_rng(args.seed + 77);
  core::AdamGnnNodeModel ref_model(ModelConfig(), &ref_rng);
  util::Result<train::NodeTaskResult> ref = train::TrainNodeClassifier(
      &ref_model, g, split, TrainerConfig(args.seed, kTimedEpochs + 1));
  std::vector<double> ref_losses;
  if (ref.ok()) {
    ref_losses = ref.ValueOrDie().epoch_losses;
  } else {
    report.problems.push_back("TrainNodeClassifier failed: " +
                              ref.status().ToString());
  }

  double max_rel_vs_recording = 0;
  size_t bitwise_mismatches = 0;
  for (size_t p = 0; p < passes.size(); ++p) {
    for (size_t e = 0; e < passes[p].losses.size(); ++e) {
      const double loss = passes[p].losses[e];
      bool ok = std::isfinite(loss);
      if (e >= ref_losses.size() || loss != ref_losses[e]) {
        ok = false;
        ++bitwise_mismatches;
      }
      if (use_recording && e < rec.traj.losses.size()) {
        const double want = rec.traj.losses[e];
        const double rel = std::abs(loss - want) / std::abs(want);
        max_rel_vs_recording = std::max(max_rel_vs_recording, rel);
        if (!(rel <= kTrajectoryRelTol)) ok = false;
      }
      if (!ok) {
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "pass %zu epoch %zu: loss %.17g fails its check "
                      "(trainer %.17g)",
                      p, e, loss,
                      e < ref_losses.size() ? ref_losses[e] : std::nan(""));
        if (report.problems.size() < 8) report.problems.push_back(buf);
        // Epoch 0 is set-up, not an op; its failure is reported above.
        if (e > 0) ++report.failed;
      }
    }
  }
  report.attempted = passes.size() * kTimedEpochs;
  report.AddFact("trainer_bitwise_mismatches",
                 std::to_string(bitwise_mismatches));
  report.AddFact("trajectory_recording",
                 rec.present ? (use_recording ? "\"matched against " +
                                                    RecordingPath(args) + "\""
                                              : "\"skipped: recorded on " +
                                                    rec.isa + ", running " +
                                                    isa + "\"")
                             : std::string("\"none for this seed\""));
  char rel[32];
  std::snprintf(rel, sizeof(rel), "%.3g", max_rel_vs_recording);
  report.AddFact("max_rel_diff_vs_recording", rel);
  return report;
}

int RecordTrainNode(const Args& args) {
  util::SetNumThreads(kPool);
  Tracer off(false);
  TrainRun run(args.seed);
  Trajectory traj;
  for (int e = 0; e < args.record_epochs; ++e) {
    RecordEpoch(&run, &off, false, &traj);
  }
  const std::string path = RecordingPath(args);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    return 1;
  }
  std::fprintf(f,
               "# train_node trajectory at seed %llu, pool %d, recorded by "
               "perfbench --record %d\n"
               "# epoch <e> <loss> <level1_nodes> <level2_nodes> "
               "<level1_egos>\n",
               static_cast<unsigned long long>(args.seed), kPool,
               args.record_epochs);
  std::fprintf(f, "isa %s\n", tensor::IsaName(tensor::ActiveIsa()));
  for (size_t e = 0; e < traj.losses.size(); ++e) {
    const LevelCounts& c = traj.levels[e];
    std::fprintf(f, "epoch %zu %.17g %.0f %.0f %.0f\n", e, traj.losses[e],
                 c.level1_nodes, c.level2_nodes, c.level1_egos);
  }
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

}  // namespace perfbench
