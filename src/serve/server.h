// Serving-path resilience: ResilientServer wraps core::InferenceSession
// with the four protections the bare session lacks —
//
//   1. request deadlines + cooperative cancellation: every attempt runs
//      under a util::CancelToken; an expired deadline aborts plan
//      construction or the forward in bounded time with DeadlineExceeded
//      instead of running to completion;
//   2. admission control: a bounded in-flight budget sheds excess load
//      with ResourceExhausted at the high-water mark (deterministic — no
//      wall-clock randomness in the decision);
//   3. bounded retries + a per-plan circuit breaker: transient failures
//      (injected allocation pressure, internal errors) are retried up to
//      max_retries times with a deterministic exponential backoff schedule;
//      consecutive failures trip the plan's breaker, which sheds requests
//      for a request-counted cooldown before probing;
//   4. graceful degradation: when over budget, after a breaker trip, or
//      once retries are exhausted, the server walks the degradation ladder
//      full plan → shallow plan (λ = degraded_lambda, at most
//      degraded_max_levels pooling levels; ADMP-GNN-style depth adaptation,
//      accuracy degrades smoothly) → stale cached result — and tags the
//      response with the rung that produced it.
//
// With batch_max > 1 the server additionally runs a micro-batching
// scheduler: concurrent requests queue up to batch_max (or batch_wait_us,
// whichever fills first), are fused into ONE block-diagonal
// InferenceSession::TryRunBatch, and are scattered back per request.
// Admission, the breaker, deadlines, and the degradation ladder all keep
// operating per REQUEST, never per batch: a member whose deadline expired
// in the queue is dropped before launch, a token firing mid-batch cancels
// only that member at its own cooperative checkpoints, and a member whose
// fused leg fails falls back to the sequential retry/degradation path.
// A collection window that ends with a single live request bypasses fusion
// entirely and runs the sequential cached path — batching can change WHEN a
// lone request runs, never HOW.
//
// Responses that ran the full plan with no token firing are
// bitwise-identical to InferenceSession::Run on the same graph — batched
// or not (the per-member bitwise guarantee of TryRunBatch).
//
// Metrics: serve.requests / serve.ok / serve.degraded /
// serve.deadline_exceeded / serve.retries counters, the
// serve.request_seconds histogram, the scheduler family (serve.batch.batches
// / serve.batch.fused_requests / serve.batch.expired_dropped /
// serve.batch.fallback counters, serve.batch.size and
// serve.batch.queue_wait_seconds histograms), plus the admission
// (serve.admitted/rejected, serve.queue_depth) and breaker
// (serve.breaker.*) families.

#ifndef ADAMGNN_SERVE_SERVER_H_
#define ADAMGNN_SERVE_SERVER_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "core/adamgnn_model.h"
#include "core/graph_plan.h"
#include "core/inference_session.h"
#include "serve/admission.h"
#include "serve/breaker.h"
#include "serve/lifecycle.h"
#include "tensor/matrix.h"
#include "util/cancel.h"
#include "util/status.h"
#include "util/stopwatch.h"

namespace adamgnn::serve {

struct ServerOptions {
  /// Hard in-flight budget; requests past it are shed (or served stale).
  size_t max_inflight = 64;
  /// Extra attempts after the first for TRANSIENT failures (allocation
  /// pressure, internal errors). Deadline expiry and explicit cancellation
  /// are never retried — the clock will not rewind.
  int max_retries = 1;
  /// Deterministic backoff schedule: attempt i (1-based retry) sleeps
  /// retry_backoff_s * 2^(i-1). 0 disables sleeping (tests, and the
  /// default: the fault classes we retry are not time-correlated).
  double retry_backoff_s = 0.0;
  /// Default per-request deadline in seconds; <= 0 means none. A request's
  /// own timeout_s overrides this.
  double default_timeout_s = 0.0;
  CircuitBreakerOptions breaker;
  /// Degradation ladder switches.
  bool allow_degraded = true;
  int degraded_lambda = 1;
  int degraded_max_levels = 1;
  /// Stale-result cache entries kept for last-ditch degradation.
  size_t max_stale_results = 16;
  /// Micro-batching: fuse up to batch_max concurrent requests into one
  /// block-diagonal forward. 1 (the default) disables the scheduler — every
  /// request runs the sequential path unchanged.
  size_t batch_max = 1;
  /// How long the batch leader waits for the batch to fill before launching
  /// whatever has queued (microseconds; 0 = launch immediately with the
  /// requests already queued).
  long long batch_wait_us = 0;
  /// Optional, non-owning process lifecycle. When set, Serve consults
  /// lifecycle->Admit() before any work (Unavailable unless Ready) and
  /// registers every admitted request via Track/BindToken so drains wait
  /// for it and the watchdog can cancel it. The lifecycle MUST outlive the
  /// server — the model registry shares one lifecycle across every version
  /// it publishes.
  ServerLifecycle* lifecycle = nullptr;
};

/// Which rung of the degradation ladder produced a response.
enum class ServeMode {
  kFull = 0,            // full-λ plan, fresh forward
  kDegradedShallow = 1, // shallow-λ / fewer-levels fresh forward
  kDegradedStale = 2,   // stale cached result for the same graph
};
const char* ServeModeToString(ServeMode mode);

struct RequestOptions {
  /// Deadline: < 0 uses the server default, 0 is an already-expired
  /// deadline (the first cooperative check fires), > 0 seconds from now.
  double timeout_s = -1.0;
  /// Optional external cancellation handle; when valid it replaces the
  /// server-made deadline token for every attempt (so a caller-side Cancel
  /// aborts the request wherever it is).
  util::CancelToken token;
};

struct ServeResult {
  tensor::Matrix embeddings;  // (n x hidden)
  tensor::Matrix logits;      // (n x classes); empty without a node head
  ServeMode mode = ServeMode::kFull;
  int lambda_used = 0;
  int levels_used = 0;
  int attempts = 1;  // forward attempts consumed (1 = no retries)
};

class ResilientServer {
 public:
  ResilientServer(const core::AdamGnn& model, const ServerOptions& options);

  ResilientServer(const ResilientServer&) = delete;
  ResilientServer& operator=(const ResilientServer&) = delete;

  /// Serves one request end to end: admission → breaker → deadline-scoped
  /// attempts with bounded retries → degradation ladder. Error statuses:
  ///   DeadlineExceeded  — the request deadline fired and no degraded
  ///                       fallback was available;
  ///   ResourceExhausted — shed at admission, or transient pressure
  ///                       outlasted the retry budget, with no fallback;
  ///   Unavailable       — the plan's circuit breaker is open, no fallback;
  ///   InvalidArgument / FailedPrecondition — malformed request (wrong
  ///                       feature dim, missing features); never retried,
  ///                       never counted against the breaker.
  util::Result<ServeResult> Serve(const graph::Graph& g,
                                  const RequestOptions& request = {});

  /// Copies the model's weights into both sessions and drops every cached
  /// plan, result, and stale entry (weights change ⇒ everything downstream
  /// is stale). Breaker state survives: it describes the plan, not the
  /// weights.
  void RefreshWeights(const core::AdamGnn& model);

  const ServerOptions& options() const { return options_; }
  size_t inflight() const { return admission_.inflight(); }
  CircuitBreaker& breaker() { return breaker_; }
  /// The frozen full-mode session's weight digest (see
  /// InferenceSession::WeightsFingerprint) — the registry's version
  /// identity.
  uint64_t weights_fingerprint() const;
  /// The breaker/stale-cache key for `g` (exposed for tests).
  static uint64_t FingerprintOf(const graph::Graph& g);

 private:
  static constexpr size_t kMaxCachedPlans = 16;

  struct StaleEntry {
    ServeResult result;
    uint64_t fingerprint = 0;
  };

  // All three run under mu_: the underlying InferenceSession caches are
  // single-writer structures, so forwards are serialized per server. The
  // cooperative checkpoints keep each critical section bounded by one
  // (cancellable) forward.
  util::Status RunFull(const graph::Graph& g, uint64_t fingerprint,
                       ServeResult* out);
  util::Status RunDegraded(const graph::Graph& g, uint64_t fingerprint,
                           ServeResult* out);
  void StoreStale(uint64_t fingerprint, const ServeResult& result);
  bool LookupStale(uint64_t fingerprint, ServeResult* out);

  util::Result<ServeResult> Degrade(const graph::Graph& g,
                                    uint64_t fingerprint,
                                    const util::CancelToken& token,
                                    util::Status cause, int attempts,
                                    const util::Stopwatch& watch);

  /// One request waiting in (or being served from) the micro-batch queue.
  struct PendingRequest {
    const graph::Graph* g = nullptr;
    uint64_t fingerprint = 0;  // FingerprintOf(*g), computed at admission
    util::CancelToken token;  // the request's deadline/cancellation token
    std::chrono::steady_clock::time_point enqueued_at;
    ServeResult result;
    util::Status status = util::Status::OK();
    bool done = false;
  };

  /// The scheduler entry point for one request's FIRST attempt: enqueue,
  /// elect/await a leader, and return this request's member outcome. The
  /// caller's retry loop treats a failure exactly like a failed sequential
  /// attempt (breaker bookkeeping, retries, degradation — all per request).
  util::Status ServeViaBatch(const graph::Graph& g, uint64_t fingerprint,
                             const util::CancelToken& token,
                             ServeResult* out);
  /// Leader body: drop expired members, canonicalize member order (so the
  /// same multiset of graphs always produces the same merged fingerprint,
  /// whatever order requests raced into the queue), fuse the rest into one
  /// TryRunBatch, and scatter results/statuses back onto the entries.
  void ExecuteBatch(
      const std::vector<std::shared_ptr<PendingRequest>>& batch);

  ServerOptions options_;
  AdmissionController admission_;
  CircuitBreaker breaker_;

  mutable std::mutex mu_;
  core::InferenceSession session_;
  core::InferenceSession degraded_session_;
  std::unordered_map<uint64_t, std::shared_ptr<const core::GraphPlan>> plans_;
  std::vector<uint64_t> plan_order_;
  std::unordered_map<uint64_t, std::shared_ptr<const core::GraphPlan>>
      degraded_plans_;
  std::vector<uint64_t> degraded_plan_order_;
  // Batch plans keyed by the MERGED graph's fingerprint: a recurring batch
  // composition reuses its block-diagonal plan (and, through the stable
  // plan pointer, the session's memoized per-member results). This is the
  // batch path's cache-compression win — a catalog of N graphs needs only
  // N / batch_size keys where one-at-a-time serving needs N.
  std::unordered_map<uint64_t, std::shared_ptr<const core::BatchPlan>>
      batch_plans_;
  std::vector<uint64_t> batch_plan_order_;
  std::unordered_map<uint64_t, ServeResult> stale_;
  std::vector<uint64_t> stale_order_;

  // Micro-batch scheduler state. batch_mu_ only guards the queue and the
  // leader flag; the fused forward itself runs under mu_ with batch_mu_
  // released, so arrivals keep queueing while a batch computes.
  std::mutex batch_mu_;
  std::condition_variable batch_cv_;  // arrivals + completion broadcast
  std::deque<std::shared_ptr<PendingRequest>> batch_queue_;
  bool batch_leader_active_ = false;
};

}  // namespace adamgnn::serve

#endif  // ADAMGNN_SERVE_SERVER_H_
