// Shared pieces of the perfbench harness: run arguments, the outside-in span
// recorder, order statistics, process-usage and obs-counter deltas, and the
// report every workload fills in.
//
// Everything here observes the program from outside. Spans wrap the public
// calls the harness itself makes; counters are the ones the library already
// keeps (obs::MetricsRegistry) and getrusage. Nothing is added to src/.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "tensor/matrix.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// The seed a bare `perfbench --workload X` runs at, and the seed held out
/// from tuning so a later claim can be re-checked on inputs it was not
/// tuned on. Both have a recorded train_node trajectory in trajectories/.
constexpr uint64_t kDefaultSeed = 1;
constexpr uint64_t kHeldOutSeed = 97;

struct Args {
  std::string workload;
  uint64_t seed = kDefaultSeed;
  int seconds = 10;
  bool trace = false;
  /// The perfbench source directory (recorded trajectories live here).
  std::string bench_dir = "perfbench";
  /// Where the detailed result, the span dump and scratch files go.
  std::string out_dir = ".bench_build/results";
  /// > 0: instead of measuring, record a train_node trajectory of this
  /// many epochs at --seed into trajectories/.
  int record_epochs = 0;
  /// The metric names and units BENCHMARK.json lists, as (name, unit)
  /// pairs; run.py passes them with --end-to-end and --per-layer. A run
  /// reports exactly these and refuses any name they do not hold.
  std::vector<std::pair<std::string, std::string>> end_to_end_names;
  std::vector<std::pair<std::string, std::string>> per_layer_names;
};

/// Parses "name:unit,name:unit,..." into (name, unit) pairs; false on a
/// malformed entry.
bool ParseMetricList(const std::string& text,
                     std::vector<std::pair<std::string, std::string>>* out);

double SecondsSince(Clock::time_point start);

/// CPU time the whole process has used so far, every thread, user plus
/// system, in seconds. On a virtual machine it leaves out the time the host
/// runs other guests on the vCPU (steal time), which wall time includes.
double ProcessCpuSeconds();

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample; 0 for
/// an empty sample.
double Quantile(std::vector<double> values, double q);
double Median(const std::vector<double>& values);

bool BitwiseEqual(const adamgnn::tensor::Matrix& a,
                  const adamgnn::tensor::Matrix& b);

/// One recorded span. `parent` is the id of the enclosing span, or -1.
struct Span {
  int id = 0;
  int parent = -1;
  std::string name;
  std::string tags;
  double start_s = 0;  // seconds since the tracer was created
  double end_s = 0;
};

/// In-memory span store, written out when the run ends. Thread-safe: the
/// serve_mix clients record into one tracer concurrently. A disabled tracer
/// (the untraced runs, and the untraced half of a traced run) records
/// nothing and costs one branch per call site.
class Tracer {
 public:
  explicit Tracer(bool enabled);

  bool enabled() const { return enabled_; }

  /// Opens a span and returns its id, or -1 when `record` is false or the
  /// tracer is disabled.
  int Begin(const char* name, int parent, bool record, std::string tags = {});
  void End(int id);

  /// Durations (ms) of every closed span with this name.
  std::vector<double> DurationsMs(const std::string& name) const;
  /// Self times (ms) of every closed span with this name: its duration
  /// minus the union of the intervals its direct children cover.
  std::vector<double> SelfMs(const std::string& name) const;
  /// Distinct span names, in first-recorded order.
  std::vector<std::string> Names() const;

  /// Writes every span as a JSON array (see README.md for the schema).
  bool WriteJson(const std::string& path) const;

 private:
  const bool enabled_;
  const Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_; index == id
};

/// RAII span; a no-op when the tracer does not record.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int parent, bool record,
             std::string tags = {})
      : tracer_(tracer),
        id_(tracer->Begin(name, parent, record, std::move(tags))) {}
  ~ScopedSpan() { tracer_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  Tracer* tracer_;
  int id_;
};

/// getrusage(RUSAGE_SELF) at one instant, or a sum of intervals.
struct Usage {
  double user_s = 0;
  double sys_s = 0;
  long minor_faults = 0;
  long max_rss_kb = 0;
  static Usage Now();
  /// Adds the CPU time and faults spent between two readings; max_rss_kb
  /// becomes the later reading's.
  void AddInterval(const Usage& before, const Usage& after);
};

/// Counter / histogram deltas summed over one or more intervals, each given
/// by the obs::MetricsRegistry snapshots taken at its ends. Workloads add
/// only the intervals of their timed ops, never their set-ups.
class CounterDelta {
 public:
  void Add(const adamgnn::obs::MetricsSnapshot& before,
           const adamgnn::obs::MetricsSnapshot& after);

  uint64_t Counter(const std::string& name) const;
  /// p50 (ms) of the observations a seconds-scale histogram gained between
  /// the snapshots. Linear interpolation inside the median's bucket; when
  /// every new observation sits in one bucket, the exact mean of the delta
  /// (sum / count) is the better estimate and is returned instead.
  double HistogramP50Ms(const std::string& name) const;

 private:
  std::map<std::string, uint64_t> counters_;
  std::map<std::string, adamgnn::obs::HistogramSnapshot> histograms_;
};

/// a / b, or 0 when b is 0.
double Ratio(double a, double b);

/// Share of the kernel pool's jobs that ran inline on the caller's thread
/// (pool.jobs counts fanned-out jobs only, pool.inline_jobs the others).
double PoolInlineFrac(const CounterDelta& delta);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  size_t samples = 0;  // how many measurements the value summarizes
};

/// What one workload run produced. The harness prints the end-to-end
/// metrics in untraced runs and the per-layer metrics in traced runs.
struct Report {
  std::string workload;
  int requested_pool = 0;
  size_t attempted = 0;
  size_t failed = 0;
  /// Problems found by the output checks; each also counts as a failed op
  /// where it maps to one.
  std::vector<std::string> problems;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  /// Workload facts for the detailed result, as (key, JSON value) pairs.
  std::vector<std::pair<std::string, std::string>> facts;

  void AddEndToEnd(const std::string& name, double value,
                   const std::string& unit, size_t samples) {
    end_to_end.push_back({name, value, unit, samples});
  }
  void AddLayer(const std::string& name, double value, const std::string& unit,
                size_t samples) {
    per_layer.push_back({name, value, unit, samples});
  }
  void AddFact(const std::string& key, const std::string& json_value) {
    facts.emplace_back(key, json_value);
  }
};

/// One pass over a workload's op sequence: an epoch (train_node), a cycle
/// over the graph pool (infer_fresh), or one schedule period (serve_mix).
/// Runs are whole passes, so every run covers the same op mix.
struct Pass {
  double seconds = 0;  // wall time of the pass
  size_t ops = 0;      // ops completed in it, traced or not
  std::vector<double> untraced_ms;
  std::vector<double> traced_ms;
  /// Process CPU time (ms) per op of untraced samples: one per op where
  /// ops run one at a time, one per pass (its CPU time over its ops) where
  /// they overlap.
  std::vector<double> untraced_cpu_ms;
  long max_rss_kb = 0;  // ru_maxrss when the pass ended
};

/// What a workload measured, handed to FinishReport.
struct Timings {
  std::vector<Pass> passes;
  // One entry per set-up repetition: its process CPU time and wall time.
  std::vector<double> setup_cpu_s;
  std::vector<double> setup_wall_s;
  Usage timed;  // summed over the timed ops only
  /// Every run makes at least this many passes; peak_rss_mb is read when
  /// the last of them ends, so it covers the same work on a fast machine
  /// as on a slow one.
  size_t min_passes = 1;
};

/// Fills the end-to-end metrics shared by every workload and the per-layer
/// metrics derived from usage and from the tracing overhead:
///   cpu_ms_p50              median process CPU time per untraced op;
///   setup_s                 median process CPU time over set-up
///                           repetitions;
///   peak_rss_mb             ru_maxrss when pass t.min_passes ended;
///   tensor.minor_faults_per_op, tensor.sys_frac  from t.timed;
///   bench.latency_ms_p50, bench.latency_ms_p99  wall-time median and p99
///                           of every untraced op;
///   bench.setup_wall_s      median wall time over set-up repetitions, and
///   bench.throughput_per_s  ops / wall time of the timed passes. The
///                           wall-time figures carry the host's steal time,
///                           so they are reported per layer without a
///                           bound (README.md explains why).
void FinishReport(const Timings& t, Report* report);

/// Prints the human-readable metric lines and the final one-line JSON
/// result to stdout, and writes the detailed result (env block, sample
/// counts, facts, span self times) plus, when tracing, the span dump into
/// args.out_dir. Metrics follow args' lists: a traced run reports every
/// per-layer name, 0 for a layer the workload never calls (listed under
/// "not_exercised" in the detailed result). A metric the lists do not
/// hold, or hold with another unit, is an error: exit code 4 and no
/// result. Returns the process exit code.
int EmitReport(const Args& args, const Report& report, const Tracer& tracer);

/// Exact-count guard: prints the mismatch and exits the process with code
/// 3 without printing a result, so a moved count can never be read as a
/// speed figure.
void RequireExact(const char* what, double got, double want);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
