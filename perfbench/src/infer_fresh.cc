// infer_fresh: uncached single-graph inference. Every op builds a fresh
// GraphPlan and runs the tape-free InferenceSession on it; the graph pool
// is four times the session's plan cache and is cycled, so no op can hit
// the cache even by fingerprint.

#include <memory>
#include <string>
#include <vector>

#include "core/adamgnn_model.h"
#include "core/graph_plan.h"
#include "core/inference_session.h"
#include "data/node_datasets.h"
#include "obs/metrics.h"
#include "util/random.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace adamgnn;

constexpr int kPool = 2;
constexpr double kScale = 0.3;  // Cora-like graphs of ~800 nodes
constexpr size_t kGraphs = 4 * core::InferenceSession::kMaxCachedPlans;
// A run is whole passes, at least kMinPasses. A pass is kSetupsPerPass
// set-ups (one model, one session and one request each, ~50 ms; the last
// serves the pass) and one timed cycle over the pool. Set-ups thus spread
// over the run as the timed ops do, and setup_s is their median.
constexpr int kSetupsPerPass = 6;
constexpr size_t kMinPasses = 3;

struct Serving {
  Serving(const core::AdamGnnConfig& config, uint64_t seed)
      : rng(seed + 77), model(config, &rng), session(model) {}
  util::Rng rng;
  core::AdamGnn model;
  core::InferenceSession session;
};

}  // namespace

Report RunInferFresh(const Args& args, Tracer* tracer) {
  util::SetNumThreads(kPool);
  Report report;
  report.workload = "infer_fresh";
  report.requested_pool = kPool;
  Timings t;
  t.min_passes = kMinPasses;

  // Inputs: the request graphs, generated from the seed.
  std::vector<graph::Graph> pool;
  pool.reserve(kGraphs);
  size_t total_nodes = 0;
  for (size_t i = 0; i < kGraphs; ++i) {
    pool.push_back(data::MakeNodeDataset(data::NodeDatasetId::kCora,
                                         args.seed * 1000 + i, kScale)
                       .ValueOrDie()
                       .graph);
    total_nodes += pool.back().num_nodes();
  }
  core::AdamGnnConfig config;
  config.in_dim = pool[0].feature_dim();
  config.num_classes = 7;

  // First logits seen for each pool graph; every later op on that graph
  // must reproduce them, and after the timed region they are checked
  // against the autograd forward.
  std::vector<tensor::Matrix> seen(kGraphs);
  std::vector<size_t> ops_on(kGraphs, 0);
  std::vector<bool> repeat_ok(kGraphs, true);
  size_t failed_runs = 0;

  std::unique_ptr<Serving> serving;
  CounterDelta counters;
  const Clock::time_point start = Clock::now();
  size_t setups = 0;
  for (size_t op = 0;
       t.passes.size() < kMinPasses || SecondsSince(start) < args.seconds;) {
    // Set-up: model, session, one warm-up request. Each set-up warms up on
    // the next pool graph, so setup_s is a median over many graphs rather
    // than the cost of one.
    size_t warm = 0;
    for (int i = 0; i < kSetupsPerPass; ++i, ++setups) {
      warm = setups % kGraphs;
      serving.reset();
      const Clock::time_point t0 = Clock::now();
      const double cpu0 = ProcessCpuSeconds();
      serving = std::make_unique<Serving>(config, args.seed);
      const core::InferenceSession::Result* out = nullptr;
      std::shared_ptr<const core::GraphPlan> plan =
          core::GraphPlan::TryBuild(pool[warm], config.lambda).ValueOrDie();
      serving->session.TryRun(plan, &out).CheckOK();
      t.setup_cpu_s.push_back(ProcessCpuSeconds() - cpu0);
      t.setup_wall_s.push_back(SecondsSince(t0));
    }

    // One whole cycle over the pool, so every pass serves the same graph
    // mix. The graph that served the last warm-up closes the cycle, long
    // after the plan cache evicted it.
    const obs::MetricsSnapshot m_before =
        obs::MetricsRegistry::Global().Collect();
    const Usage usage_before = Usage::Now();
    Pass pass;
    const Clock::time_point pass_start = Clock::now();
    for (size_t j = 1; j <= kGraphs; ++j, ++op) {
      const size_t gi = (warm + j) % kGraphs;
      const bool traced = tracer->enabled() && op % 2 == 1;
      const Clock::time_point t0 = Clock::now();
      const double cpu0 = ProcessCpuSeconds();
      const core::InferenceSession::Result* out = nullptr;
      util::Status st = util::Status::OK();
      {
        ScopedSpan request(tracer, "request", -1, traced);
        std::shared_ptr<const core::GraphPlan> plan;
        {
          ScopedSpan s(tracer, "core.plan_build", request.id(), traced);
          util::Result<std::shared_ptr<const core::GraphPlan>> built =
              core::GraphPlan::TryBuild(pool[gi], config.lambda);
          if (built.ok()) {
            plan = built.ValueOrDie();
          } else {
            st = built.status();
          }
        }
        if (st.ok()) {
          ScopedSpan s(tracer, "core.session_run", request.id(), traced);
          st = serving->session.TryRun(plan, &out);
        }
      }
      const double cpu_ms = (ProcessCpuSeconds() - cpu0) * 1e3;
      (traced ? pass.traced_ms : pass.untraced_ms)
          .push_back(SecondsSince(t0) * 1e3);
      if (!traced) pass.untraced_cpu_ms.push_back(cpu_ms);
      ++ops_on[gi];
      if (!st.ok()) {
        ++failed_runs;
        repeat_ok[gi] = false;
      } else if (seen[gi].rows() == 0) {
        seen[gi] = out->logits;
      } else if (!BitwiseEqual(out->logits, seen[gi])) {
        repeat_ok[gi] = false;
      }
    }
    pass.seconds = SecondsSince(pass_start);
    pass.ops = kGraphs;
    const Usage usage_after = Usage::Now();
    t.timed.AddInterval(usage_before, usage_after);
    pass.max_rss_kb = usage_after.max_rss_kb;
    t.passes.push_back(std::move(pass));
    counters.Add(m_before, obs::MetricsRegistry::Global().Collect());
  }
  FinishReport(t, &report);

  for (const char* name : {"core.plan_build", "core.session_run"}) {
    const std::vector<double> d = tracer->DurationsMs(name);
    report.AddLayer(std::string(name) + "_ms", Median(d), "ms", d.size());
  }
  report.AddLayer("util.pool_inline_frac", PoolInlineFrac(counters), "frac",
                  counters.Counter("pool.jobs") +
                      counters.Counter("pool.inline_jobs"));
  const double hits =
      static_cast<double>(counters.Counter("infer.plan_cache.hits"));
  const double misses =
      static_cast<double>(counters.Counter("infer.plan_cache.misses"));
  // Every op is built to miss; a hit means the workload no longer measures
  // what it claims to.
  RequireExact("core.plan_cache_hit_frac", Ratio(hits, hits + misses), 0.0);
  report.AddLayer("core.plan_cache_hit_frac", Ratio(hits, hits + misses),
                  "frac", static_cast<size_t>(hits + misses));

  // Untimed check against the independent autograd path:
  // AdamGnn::Forward(training=false) must give bitwise the same logits.
  size_t graphs_checked = 0;
  for (size_t gi = 0; gi < kGraphs; ++gi) {
    if (ops_on[gi] == 0) continue;
    bool ok = repeat_ok[gi] && seen[gi].rows() > 0;
    if (ok) {
      util::Rng rng(args.seed + 5);
      const core::AdamGnn::Output want =
          serving->model.Forward(pool[gi], /*training=*/false, &rng);
      ok = BitwiseEqual(seen[gi], want.logits.value());
      ++graphs_checked;
    }
    if (!ok) {
      report.failed += ops_on[gi];
      report.problems.push_back("graph " + std::to_string(gi) +
                                ": logits differ from the autograd forward "
                                "or between ops");
    }
  }
  for (const Pass& p : t.passes) report.attempted += p.ops;

  report.AddFact("graphs", std::to_string(kGraphs));
  report.AddFact("mean_nodes", std::to_string(total_nodes / kGraphs));
  report.AddFact("feature_dim", std::to_string(config.in_dim));
  report.AddFact("setups", std::to_string(t.setup_cpu_s.size()));
  report.AddFact("failed_runs", std::to_string(failed_runs));
  report.AddFact("graphs_checked_vs_autograd", std::to_string(graphs_checked));
  return report;
}

}  // namespace perfbench
