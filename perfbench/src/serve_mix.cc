// serve_mix: closed-loop micro-batched serving. Three client threads each
// wait for their reply, and every request goes through
// ModelRegistry::Current()->server().Serve with batch_max = 3 and a fill
// wait long enough that every collection window holds exactly one request
// per client. The clients walk one fixed, seeded schedule of windows in
// lockstep, so window i is always the same three graphs and the batch-cache
// hit count is a property of the schedule, not of thread timing.
//
// A run is whole passes until its time is up. A pass is a set-up (a fresh
// registry, the checkpoint load, and the hot pass below) followed by one
// timed 32-window period:
//   windows  0..12  five hot windows (seeded positions, seeded choice of
//                   the three hot compositions) among eight cold ones;
//   windows 13..28  sixteen cold windows, which push every hot composition
//                   out of the 16-entry FIFO batch caches;
//   windows 29..31  the three hot compositions in order, re-warming them.
// The set-up's pass over the hot compositions is that same tail, so the
// FIFO caches hold the same entries when every period starts. Cold
// windows take the 72 cold graphs three at a time in a seeded order; a cold
// composition recurs only a period later, long after its eviction.

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/adamgnn_model.h"
#include "core/graph_plan.h"
#include "core/inference_session.h"
#include "data/graph_datasets.h"
#include "nn/serialize.h"
#include "obs/metrics.h"
#include "serve/model_registry.h"
#include "serve/server.h"
#include "util/random.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace adamgnn;

constexpr int kPool = 1;
constexpr size_t kClients = 3;
constexpr long long kBatchWaitUs = 1000000;
constexpr size_t kHotComps = 3;
constexpr size_t kMixedWindows = 13;
constexpr size_t kMixedHot = 5;
constexpr size_t kFlushWindows = 16;
constexpr size_t kPeriod = kMixedWindows + kFlushWindows + kHotComps;
constexpr size_t kColdWindows = kPeriod - kMixedHot - kHotComps;
// A pass is ~50 ms, so a run has hundreds; at least this many keep the
// medians meaningful even on a slow machine.
constexpr size_t kMinPasses = 20;

using Composition = std::vector<size_t>;  // graph index per client

struct Reference {
  tensor::Matrix embeddings;
  tensor::Matrix logits;
};

struct ClientLog {
  Pass requests;  // this client's requests in one Run()
  size_t failed = 0;
};

struct Catalog {
  std::vector<graph::Graph> graphs;
  std::vector<Reference> refs;
  std::vector<Composition> comps;  // kHotComps hot ones, then the cold ones
};

/// The kClients client threads. They start once, before the first set-up,
/// and live until the run ends, so no set-up or timed op pays for thread
/// start-up. Each Run() hands them a list of windows (composition ids) to
/// walk in lockstep; client k's request in window w is graph
/// comps[windows[w]][k].
class ClientPool {
 public:
  explicit ClientPool(const Catalog& catalog) : catalog_(catalog) {
    for (size_t k = 0; k < kClients; ++k) {
      threads_.emplace_back([this, k] { Client(k); });
    }
  }

  ~ClientPool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      quit_ = true;
    }
    cv_.notify_all();
    for (std::thread& t : threads_) t.join();
  }

  ClientPool(const ClientPool&) = delete;
  ClientPool& operator=(const ClientPool&) = delete;

  /// Walks `windows` once through `registry` and returns every client's
  /// requests with the walk's wall time; `failed` counts responses that
  /// failed their check. `traced` records a span per request.
  Pass Run(serve::ModelRegistry* registry, const std::vector<size_t>& windows,
           Tracer* tracer, bool traced, size_t* failed) {
    const Clock::time_point start = Clock::now();
    {
      std::unique_lock<std::mutex> lock(mu_);
      registry_ = registry;
      windows_ = &windows;
      tracer_ = tracer;
      traced_ = traced;
      logs_.assign(kClients, ClientLog());
      finished_ = 0;
      ++job_;
      cv_.notify_all();
      cv_.wait(lock, [&] { return finished_ == kClients; });
    }
    Pass pass;
    pass.seconds = SecondsSince(start);
    *failed = 0;
    for (const ClientLog& log : logs_) {
      pass.ops += log.requests.ops;
      pass.untraced_ms.insert(pass.untraced_ms.end(),
                              log.requests.untraced_ms.begin(),
                              log.requests.untraced_ms.end());
      pass.traced_ms.insert(pass.traced_ms.end(),
                            log.requests.traced_ms.begin(),
                            log.requests.traced_ms.end());
      *failed += log.failed;
    }
    ++runs_;
    return pass;
  }

 private:
  void Client(size_t k) {
    size_t done_job = 0;
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] { return quit_ || job_ != done_job; });
        if (quit_) return;
        done_job = job_;
      }
      // Run() does not touch the job's fields until every client finished.
      ClientLog& log = logs_[k];
      const std::vector<size_t>& windows = *windows_;
      for (size_t w = 0; w < windows.size(); ++w) {
        const size_t gi = catalog_.comps[windows[w]][k];
        const Clock::time_point t0 = Clock::now();
        util::Result<serve::ServeResult> r = util::Status::OK();
        {
          ScopedSpan s(tracer_, "serve.Serve", -1, traced_,
                       traced_ ? "client=" + std::to_string(k) + " run=" +
                                     std::to_string(runs_) + " window=" +
                                     std::to_string(w)
                               : std::string());
          std::shared_ptr<serve::ModelVersion> version = registry_->Current();
          r = version->server().Serve(catalog_.graphs[gi]);
        }
        (traced_ ? log.requests.traced_ms : log.requests.untraced_ms)
            .push_back(SecondsSince(t0) * 1e3);
        ++log.requests.ops;
        const bool ok =
            r.ok() && r.ValueOrDie().mode == serve::ServeMode::kFull &&
            BitwiseEqual(r.ValueOrDie().embeddings,
                         catalog_.refs[gi].embeddings) &&
            BitwiseEqual(r.ValueOrDie().logits, catalog_.refs[gi].logits);
        if (!ok) ++log.failed;
      }
      std::lock_guard<std::mutex> lock(mu_);
      if (++finished_ == kClients) cv_.notify_all();
    }
  }

  const Catalog& catalog_;
  std::vector<std::thread> threads_;
  std::mutex mu_;
  std::condition_variable cv_;
  // The current job and the clients' progress through it; guarded by mu_.
  size_t job_ = 0;
  bool quit_ = false;
  serve::ModelRegistry* registry_ = nullptr;
  const std::vector<size_t>* windows_ = nullptr;
  Tracer* tracer_ = nullptr;
  bool traced_ = false;
  size_t runs_ = 0;  // Run() calls completed, for span tags
  std::vector<ClientLog> logs_;
  size_t finished_ = 0;
};

/// Batch-cache hits a FIFO of `capacity` composition entries gives over
/// `timed` after replaying `warm`; the independent model the measured
/// counter must match exactly.
size_t ExpectedHits(const std::vector<size_t>& warm,
                    const std::vector<size_t>& timed, size_t capacity) {
  std::deque<size_t> fifo;
  size_t hits = 0;
  auto visit = [&](size_t comp, bool count) {
    for (size_t c : fifo) {
      if (c == comp) {
        hits += count ? 1 : 0;
        return;
      }
    }
    if (fifo.size() >= capacity) fifo.pop_front();
    fifo.push_back(comp);
  };
  for (size_t c : warm) visit(c, false);
  for (size_t c : timed) visit(c, true);
  return hits;
}

size_t Below(util::Rng* rng, size_t n) {
  return static_cast<size_t>(rng->Next() % n);
}

}  // namespace

Report RunServeMix(const Args& args, Tracer* tracer) {
  util::SetNumThreads(kPool);
  Report report;
  report.workload = "serve_mix";
  report.requested_pool = kPool;
  Timings t;
  t.min_passes = kMinPasses;

  // Inputs: a MUTAG-like catalog from the seed, distinct graphs only (a
  // duplicate would merge two compositions' cache identities).
  data::GraphDataset dataset =
      data::MakeGraphDataset(data::GraphDatasetId::kMutag, args.seed)
          .ValueOrDie();
  Catalog catalog;
  std::vector<uint64_t> fingerprints;
  for (graph::Graph& g : dataset.graphs) {
    const uint64_t fp = serve::ResilientServer::FingerprintOf(g);
    if (std::find(fingerprints.begin(), fingerprints.end(), fp) !=
        fingerprints.end()) {
      continue;
    }
    fingerprints.push_back(fp);
    catalog.graphs.push_back(std::move(g));
  }
  const size_t hot_graphs = kHotComps * kClients;
  const size_t cold_graphs = kColdWindows * kClients;
  if (catalog.graphs.size() < hot_graphs + cold_graphs + 1) {
    std::fprintf(stderr,
                 "perfbench: seed %llu gives only %zu distinct graphs\n",
                 static_cast<unsigned long long>(args.seed),
                 catalog.graphs.size());
    std::exit(3);
  }
  const graph::Graph probe = catalog.graphs[hot_graphs + cold_graphs];
  catalog.graphs.resize(hot_graphs + cold_graphs);

  util::Rng schedule_rng(args.seed + 31);
  for (size_t h = 0; h < kHotComps; ++h) {
    catalog.comps.push_back({h * kClients, h * kClients + 1,
                             h * kClients + 2});
  }
  std::vector<size_t> cold_order(cold_graphs);
  for (size_t i = 0; i < cold_graphs; ++i) cold_order[i] = hot_graphs + i;
  for (size_t i = cold_graphs; i > 1; --i) {
    std::swap(cold_order[i - 1], cold_order[Below(&schedule_rng, i)]);
  }
  for (size_t c = 0; c < kColdWindows; ++c) {
    catalog.comps.push_back({cold_order[c * kClients],
                             cold_order[c * kClients + 1],
                             cold_order[c * kClients + 2]});
  }
  std::vector<bool> mixed_hot(kMixedWindows, false);
  for (size_t placed = 0; placed < kMixedHot;) {
    const size_t pos = Below(&schedule_rng, kMixedWindows);
    if (!mixed_hot[pos]) {
      mixed_hot[pos] = true;
      ++placed;
    }
  }
  std::vector<size_t> period;
  size_t next_cold = kHotComps;
  for (size_t w = 0; w < kMixedWindows; ++w) {
    period.push_back(mixed_hot[w] ? Below(&schedule_rng, kHotComps)
                                  : next_cold++);
  }
  for (size_t w = 0; w < kFlushWindows; ++w) period.push_back(next_cold++);
  std::vector<size_t> hot_pass;
  for (size_t h = 0; h < kHotComps; ++h) hot_pass.push_back(h);
  period.insert(period.end(), hot_pass.begin(), hot_pass.end());

  // The model, its checkpoint (written untimed), and the bare-session
  // reference every response must equal bitwise.
  core::AdamGnnConfig config;
  config.in_dim = dataset.feature_dim;
  config.num_classes = 2;
  util::Rng model_rng(args.seed + 77);
  core::AdamGnn model(config, &model_rng);
  std::error_code ec;
  std::filesystem::create_directories(args.out_dir, ec);
  const std::string checkpoint =
      args.out_dir + "/serve_mix-seed" + std::to_string(args.seed) + ".ckpt";
  nn::SaveParameters(model.Parameters(), checkpoint).CheckOK();
  {
    core::InferenceSession session(model);
    for (const graph::Graph& g : catalog.graphs) {
      const core::InferenceSession::Result& r =
          session.Run(core::GraphPlan::Build(g, config.lambda));
      catalog.refs.push_back({r.embeddings, r.logits});
    }
  }
  size_t total_nodes = 0;
  for (const graph::Graph& g : catalog.graphs) total_nodes += g.num_nodes();

  serve::ModelRegistryOptions options;
  options.config = config;
  options.server.batch_max = kClients;
  options.server.batch_wait_us = kBatchWaitUs;

  // Passes until the time is up, at least kMinPasses. Each pass is a
  // set-up (registry, checkpoint load with its CRC check and canary
  // forward, one hot pass; one setup_s sample) and one timed period on the
  // registry it built. Set-ups thus spread over the whole run, as the
  // timed periods do.
  CounterDelta counters;
  size_t setup_failures = 0;
  {
    std::unique_ptr<serve::ModelRegistry> registry;
    ClientPool clients(catalog);
    Tracer off(false);
    const Clock::time_point start = Clock::now();
    while (t.passes.size() < kMinPasses ||
           SecondsSince(start) < args.seconds) {
      registry.reset();
      const Clock::time_point t0 = Clock::now();
      const double setup_cpu = ProcessCpuSeconds();
      registry = std::make_unique<serve::ModelRegistry>(options, probe);
      registry->TryLoadVersion(checkpoint).ValueOrDie();
      size_t failed = 0;
      clients.Run(registry.get(), hot_pass, &off, false, &failed);
      t.setup_cpu_s.push_back(ProcessCpuSeconds() - setup_cpu);
      t.setup_wall_s.push_back(SecondsSince(t0));
      setup_failures += failed;

      // Three requests are in flight at once, so CPU time is taken per
      // period: one sample, the period's CPU time over its requests.
      const bool traced = tracer->enabled() && t.passes.size() % 2 == 1;
      const obs::MetricsSnapshot m_before =
          obs::MetricsRegistry::Global().Collect();
      const Usage u_before = Usage::Now();
      const double cpu0 = ProcessCpuSeconds();
      Pass& pass = t.passes.emplace_back(
          clients.Run(registry.get(), period, tracer, traced, &failed));
      const double cpu_ms = (ProcessCpuSeconds() - cpu0) * 1e3;
      if (!traced) {
        pass.untraced_cpu_ms.push_back(cpu_ms /
                                       static_cast<double>(pass.ops));
      }
      const Usage u_after = Usage::Now();
      t.timed.AddInterval(u_before, u_after);
      pass.max_rss_kb = u_after.max_rss_kb;
      counters.Add(m_before, obs::MetricsRegistry::Global().Collect());
      report.failed += failed;
    }
  }
  if (setup_failures > 0) {
    report.problems.push_back(std::to_string(setup_failures) +
                              " set-up responses failed their check");
  }
  const size_t periods = t.passes.size();
  for (const Pass& p : t.passes) report.attempted += p.ops;
  FinishReport(t, &report);

  const double want_hits = static_cast<double>(
      periods * ExpectedHits(hot_pass, period,
                             core::InferenceSession::kMaxCachedPlans));
  const double hits =
      static_cast<double>(counters.Counter("infer.batch.cache.hits"));
  const double misses =
      static_cast<double>(counters.Counter("infer.batch.cache.misses"));
  const double batches =
      static_cast<double>(counters.Counter("serve.batch.batches"));
  const double fused =
      static_cast<double>(counters.Counter("serve.batch.fused_requests"));
  RequireExact("batch-cache hits", hits, want_hits);
  RequireExact("batch-cache lookups", hits + misses,
               static_cast<double>(periods * period.size()));
  RequireExact("serve.batch_mean_size", Ratio(fused, batches),
               static_cast<double>(kClients));
  report.AddLayer("core.batch_cache_hit_frac", Ratio(hits, hits + misses),
                  "frac", static_cast<size_t>(hits + misses));
  report.AddLayer("serve.batch_mean_size", Ratio(fused, batches), "count",
                  static_cast<size_t>(batches));
  report.AddLayer("serve.queue_wait_ms_p50",
                  counters.HistogramP50Ms("serve.batch.queue_wait_seconds"),
                  "ms", static_cast<size_t>(fused));
  report.AddLayer(
      "serve.fallback_frac",
      Ratio(static_cast<double>(counters.Counter("serve.batch.fallback")),
            fused),
      "frac", static_cast<size_t>(fused));
  const double not_full =
      static_cast<double>(counters.Counter("serve.rejected") +
                          counters.Counter("serve.degraded") +
                          counters.Counter("serve.deadline_exceeded"));
  const double requests =
      static_cast<double>(counters.Counter("serve.requests"));
  report.AddLayer("serve.not_full_frac", Ratio(not_full, requests), "frac",
                  static_cast<size_t>(requests));
  report.AddLayer("util.pool_inline_frac", PoolInlineFrac(counters), "frac",
                  counters.Counter("pool.jobs") +
                      counters.Counter("pool.inline_jobs"));

  report.AddFact("clients", std::to_string(kClients));
  report.AddFact("hot_graphs", std::to_string(hot_graphs));
  report.AddFact("cold_graphs", std::to_string(cold_graphs));
  report.AddFact("mean_nodes",
                 std::to_string(total_nodes / catalog.graphs.size()));
  report.AddFact("period_windows", std::to_string(kPeriod));
  report.AddFact("hot_windows_per_period",
                 std::to_string(kMixedHot + kHotComps));
  report.AddFact("periods", std::to_string(periods));
  return report;
}

}  // namespace perfbench
