// Parity suite for the batch-first forward: every member of
// InferenceSession::TryRunBatch / RunBatch must be bitwise-identical to a
// single-graph Run on that member's own GraphPlan — across thread counts,
// in a degraded (λ=1) session, and around per-member cancellation (a token
// fired before the member starts, or at any checkpoint of its cascade). Also
// covers the batch-result memoization rules (hits return identical bits,
// partial batches are never cached, RefreshWeights invalidates).

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/adamgnn_model.h"
#include "core/batch_plan.h"
#include "core/graph_plan.h"
#include "core/inference_session.h"
#include "graph/batch.h"
#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "test_util.h"
#include "util/cancel.h"
#include "util/fault_injection.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace adamgnn::core {
namespace {

using adamgnn::testing::Ring;
using tensor::Matrix;

AdamGnnConfig SmallConfig(size_t in_dim) {
  AdamGnnConfig c;
  c.in_dim = in_dim;
  c.hidden_dim = 8;
  c.num_classes = 3;
  c.num_levels = 2;
  c.dropout = 0.0;
  return c;
}

/// Restores the global kernel thread count on scope exit, so a failing
/// assertion cannot leak a thread-count override into later tests.
struct ThreadCountGuard {
  ~ThreadCountGuard() { util::SetNumThreads(0); }
};

std::vector<graph::Graph> HeterogeneousGraphs(size_t feature_dim) {
  std::vector<graph::Graph> graphs;
  graphs.push_back(Ring(10, feature_dim, /*seed=*/31));
  graphs.push_back(Ring(7, feature_dim, /*seed=*/32));
  graphs.push_back(Ring(13, feature_dim, /*seed=*/33));
  return graphs;
}

graph::GraphBatch BatchOf(const std::vector<graph::Graph>& graphs) {
  std::vector<const graph::Graph*> ptrs;
  for (const graph::Graph& g : graphs) ptrs.push_back(&g);
  graph::MakeBatchOptions options;
  options.require_labels = false;
  return graph::MakeBatch(ptrs, options).ValueOrDie();
}

void ExpectBitwise(const InferenceSession::Result& want,
                   const InferenceSession::Result& got) {
  EXPECT_TRUE(want.embeddings == got.embeddings);
  EXPECT_TRUE(want.logits == got.logits);
  EXPECT_TRUE(want.flyback_attention == got.flyback_attention);
  ASSERT_EQ(want.levels.size(), got.levels.size());
  for (size_t k = 0; k < want.levels.size(); ++k) {
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

TEST(BatchInferenceTest, PerMemberBitwiseParityAcrossThreadCounts) {
  constexpr size_t kFeatureDim = 4;
  std::vector<graph::Graph> graphs = HeterogeneousGraphs(kFeatureDim);
  AdamGnnConfig config = SmallConfig(kFeatureDim);
  util::Rng rng(41);
  AdamGnn model(config, &rng);
  InferenceSession session(model);

  ThreadCountGuard guard;
  for (int threads : {1, 2, 4, 7}) {
    util::SetNumThreads(threads);
    // Fresh plans per thread count: new cache keys, so every comparison
    // below is live compute at THIS thread count, not a memoized result
    // from the previous one.
    std::vector<InferenceSession::Result> want;
    for (const graph::Graph& g : graphs) {
      want.push_back(session.Run(GraphPlan::Build(g, config.lambda)));
    }
    std::vector<InferenceSession::Result> got =
        session.RunBatch(BatchPlan::Build(BatchOf(graphs), config.lambda));
    ASSERT_EQ(got.size(), graphs.size()) << "threads=" << threads;
    for (size_t m = 0; m < graphs.size(); ++m) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " member=" + std::to_string(m));
      ExpectBitwise(want[m], got[m]);
    }
  }
}

TEST(BatchInferenceTest, DegradedSessionParity) {
  constexpr size_t kFeatureDim = 4;
  std::vector<graph::Graph> graphs = HeterogeneousGraphs(kFeatureDim);
  AdamGnnConfig config = SmallConfig(kFeatureDim);
  util::Rng rng(42);
  AdamGnn model(config, &rng);
  InferenceSession degraded(model, /*lambda_override=*/1, /*max_levels=*/1);

  std::vector<InferenceSession::Result> want;
  for (const graph::Graph& g : graphs) {
    want.push_back(degraded.Run(GraphPlan::Build(g, /*lambda=*/1)));
  }
  std::vector<InferenceSession::Result> got =
      degraded.RunBatch(BatchPlan::Build(BatchOf(graphs), /*lambda=*/1));
  ASSERT_EQ(got.size(), graphs.size());
  for (size_t m = 0; m < graphs.size(); ++m) {
    SCOPED_TRACE("member=" + std::to_string(m));
    ExpectBitwise(want[m], got[m]);
  }
}

TEST(BatchInferenceTest, PreFiredMemberTokenCancelsOnlyThatMember) {
  constexpr size_t kFeatureDim = 4;
  std::vector<graph::Graph> graphs = HeterogeneousGraphs(kFeatureDim);
  AdamGnnConfig config = SmallConfig(kFeatureDim);
  util::Rng rng(43);
  AdamGnn model(config, &rng);
  InferenceSession session(model);

  std::vector<InferenceSession::Result> want;
  for (const graph::Graph& g : graphs) {
    want.push_back(session.Run(GraphPlan::Build(g, config.lambda)));
  }

  std::shared_ptr<const BatchPlan> plan =
      BatchPlan::Build(BatchOf(graphs), config.lambda);
  std::vector<util::CancelToken> tokens(graphs.size());
  tokens[1] = util::CancelToken::Cancellable();
  tokens[1].Cancel();

  std::vector<InferenceSession::BatchItem> items;
  ASSERT_TRUE(session.TryRunBatch(plan, tokens, &items).ok());
  ASSERT_EQ(items.size(), graphs.size());
  EXPECT_EQ(items[1].status.code(), util::StatusCode::kCancelled);
  ASSERT_TRUE(items[0].status.ok());
  ASSERT_TRUE(items[2].status.ok());
  ExpectBitwise(want[0], items[0].result);
  ExpectBitwise(want[2], items[2].result);

  // The cancelled member made this a partial batch — it must NOT have been
  // memoized. A tokenless rerun on the SAME plan recomputes and every
  // member (including the previously cancelled one) comes back bitwise.
  std::vector<InferenceSession::Result> rerun = session.RunBatch(plan);
  for (size_t m = 0; m < graphs.size(); ++m) {
    SCOPED_TRACE("member=" + std::to_string(m));
    ExpectBitwise(want[m], rerun[m]);
  }
}

TEST(BatchInferenceTest, MidCascadeDeadlineCancelsOnlyThatMember) {
  constexpr size_t kFeatureDim = 4;
  std::vector<graph::Graph> graphs = HeterogeneousGraphs(kFeatureDim);
  AdamGnnConfig config = SmallConfig(kFeatureDim);
  util::Rng rng(46);
  AdamGnn model(config, &rng);
  InferenceSession session(model);
  ThreadCountGuard guard;
  util::SetNumThreads(1);  // deterministic checkpoint count

  std::vector<InferenceSession::Result> want;
  for (const graph::Graph& g : graphs) {
    want.push_back(session.Run(GraphPlan::Build(g, config.lambda)));
  }
  const graph::GraphBatch batch = BatchOf(graphs);

  for (size_t target = 0; target < graphs.size(); ++target) {
    // Only the target carries a deadline, so the injected clock counts only
    // the target's checks: its pre-launch check, then every checkpoint of
    // its cascade and head.
    auto tokens = [&] {
      std::vector<util::CancelToken> t(graphs.size());
      t[target] = util::CancelToken::WithTimeout(3600.0);
      return t;
    };
    // Fresh plans throughout: a successful batch is memoized per plan.
    int total_checks = 0;
    {
      util::ScopedFaultPlan dry(util::FaultPlan{});
      std::vector<InferenceSession::BatchItem> items;
      ASSERT_TRUE(session
                      .TryRunBatch(BatchPlan::Build(batch, config.lambda),
                                   tokens(), &items)
                      .ok());
      for (size_t m = 0; m < graphs.size(); ++m) {
        ASSERT_TRUE(items[m].status.ok());
        ExpectBitwise(want[m], items[m].result);
      }
      total_checks = util::FaultInjector::Instance().OpCount(
          util::FaultOp::kDeadlineCheck);
    }
    ASSERT_GT(total_checks, 5) << "target=" << target;

    for (int n = 1; n <= total_checks; ++n) {
      SCOPED_TRACE("target=" + std::to_string(target) +
                   " check=" + std::to_string(n) + "/" +
                   std::to_string(total_checks));
      util::ScopedFaultPlan fault(
          util::FaultPlan{.expire_deadline_at_check = n});
      std::vector<InferenceSession::BatchItem> items;
      ASSERT_TRUE(session
                      .TryRunBatch(BatchPlan::Build(batch, config.lambda),
                                   tokens(), &items)
                      .ok());
      ASSERT_EQ(items.size(), graphs.size());
      EXPECT_EQ(items[target].status.code(),
                util::StatusCode::kDeadlineExceeded);
      for (size_t m = 0; m < graphs.size(); ++m) {
        if (m == target) continue;
        ASSERT_TRUE(items[m].status.ok()) << "member=" << m;
        ExpectBitwise(want[m], items[m].result);
      }
    }
  }
}

// The cache tests below read registry counters, which a build with
// -DADAMGNN_OBS=OFF compiles out.
#if !defined(ADAMGNN_OBS_OFF)

uint64_t CounterValue(const std::string& counter) {
  for (const auto& [name, value] :
       obs::MetricsRegistry::Global().Collect().counters) {
    if (name == counter) return value;
  }
  return 0;
}

TEST(BatchInferenceTest, BatchResultsMemoizedPerPlanAndInvalidated) {
  constexpr size_t kFeatureDim = 4;
  std::vector<graph::Graph> graphs = HeterogeneousGraphs(kFeatureDim);
  AdamGnnConfig config = SmallConfig(kFeatureDim);
  util::Rng rng(44);
  AdamGnn model(config, &rng);
  InferenceSession session(model);

  std::shared_ptr<const BatchPlan> plan =
      BatchPlan::Build(BatchOf(graphs), config.lambda);

  obs::SetEnabled(true);
  auto hits = [] { return CounterValue("infer.batch.cache.hits"); };

  const uint64_t hits_before = hits();
  std::vector<InferenceSession::Result> first = session.RunBatch(plan);
  EXPECT_EQ(hits(), hits_before);  // cold plan: a miss
  std::vector<InferenceSession::Result> second = session.RunBatch(plan);
  EXPECT_EQ(hits(), hits_before + 1);  // same plan: served from the cache
  ASSERT_EQ(first.size(), second.size());
  for (size_t m = 0; m < first.size(); ++m) {
    SCOPED_TRACE("member=" + std::to_string(m));
    ExpectBitwise(first[m], second[m]);
  }

  // New weights ⇒ the memoized batch is stale; RefreshWeights must drop it.
  util::Rng other_rng(45);
  AdamGnn other_model(config, &other_rng);
  session.RefreshWeights(other_model);
  std::vector<InferenceSession::Result> refreshed = session.RunBatch(plan);
  EXPECT_EQ(hits(), hits_before + 1);  // recomputed, not served stale
  EXPECT_FALSE(refreshed[0].embeddings == first[0].embeddings);
}

// A recurring 8-member composition is ONE batch-cache key, so a 64-graph
// catalog served as 8 fixed windows fits the session's 16-entry caches,
// while served one graph at a time it would cycle through them and never
// hit. Round 2 must be all hits and return round 1's bits.
TEST(BatchInferenceTest, RecurringWindowsCompressACatalogIntoTheBatchCache) {
  constexpr size_t kFeatureDim = 4;
  constexpr size_t kNumGraphs = 64;
  constexpr size_t kWindow = 8;
  constexpr size_t kNumWindows = kNumGraphs / kWindow;
  static_assert(kNumGraphs > InferenceSession::kMaxCachedPlans);
  static_assert(kNumWindows <= InferenceSession::kMaxCachedPlans);
  std::vector<graph::Graph> graphs;
  for (size_t g = 0; g < kNumGraphs; ++g) {
    graphs.push_back(Ring(5 + g % 9, kFeatureDim, /*seed=*/100 + g));
  }
  AdamGnnConfig config = SmallConfig(kFeatureDim);
  util::Rng rng(46);
  AdamGnn model(config, &rng);
  InferenceSession session(model);

  // Window w holds graphs w, w + 8, w + 16, ...: the composition closed-loop
  // clients that each own every 8th graph produce.
  std::vector<std::shared_ptr<const BatchPlan>> plans;
  for (size_t w = 0; w < kNumWindows; ++w) {
    std::vector<graph::Graph> members;
    for (size_t g = w; g < kNumGraphs; g += kNumWindows) {
      members.push_back(graphs[g]);
    }
    plans.push_back(BatchPlan::Build(BatchOf(members), config.lambda));
  }

  const bool was_enabled = obs::Enabled();
  obs::SetEnabled(true);
  const uint64_t hits0 = CounterValue("infer.batch.cache.hits");
  const uint64_t misses0 = CounterValue("infer.batch.cache.misses");
  std::vector<std::vector<InferenceSession::Result>> first;
  for (const auto& plan : plans) first.push_back(session.RunBatch(plan));
  EXPECT_EQ(CounterValue("infer.batch.cache.hits"), hits0);
  EXPECT_EQ(CounterValue("infer.batch.cache.misses"), misses0 + kNumWindows);

  for (size_t w = 0; w < kNumWindows; ++w) {
    const uint64_t hits = CounterValue("infer.batch.cache.hits");
    std::vector<InferenceSession::Result> second = session.RunBatch(plans[w]);
    EXPECT_EQ(CounterValue("infer.batch.cache.hits"), hits + 1)
        << "window=" << w;
    ASSERT_EQ(second.size(), kWindow);
    for (size_t m = 0; m < kWindow; ++m) {
      SCOPED_TRACE("window=" + std::to_string(w) + " member=" +
                   std::to_string(m));
      ExpectBitwise(first[w][m], second[m]);
    }
  }
  EXPECT_EQ(CounterValue("infer.batch.cache.misses"), misses0 + kNumWindows);
  obs::SetEnabled(was_enabled);
}

#endif  // !ADAMGNN_OBS_OFF

}  // namespace
}  // namespace adamgnn::core
