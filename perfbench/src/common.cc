#include "common.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <utility>

#include "bench_env.h"

extern char** environ;

namespace perfbench {

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

bool BitwiseEqual(const adamgnn::tensor::Matrix& a,
                  const adamgnn::tensor::Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  const size_t n = a.rows() * a.cols();
  return n == 0 || std::memcmp(a.data(), b.data(), n * sizeof(double)) == 0;
}

double Ratio(double a, double b) { return b == 0 ? 0.0 : a / b; }

bool ParseMetricList(const std::string& text,
                     std::vector<std::pair<std::string, std::string>>* out) {
  out->clear();
  size_t begin = 0;
  while (begin <= text.size()) {
    size_t end = text.find(',', begin);
    if (end == std::string::npos) end = text.size();
    const std::string entry = text.substr(begin, end - begin);
    const size_t colon = entry.find(':');
    if (colon == 0 || colon == std::string::npos || colon + 1 == entry.size()) {
      return false;
    }
    out->emplace_back(entry.substr(0, colon), entry.substr(colon + 1));
    begin = end + 1;
  }
  return !out->empty();
}

// --- Tracer -----------------------------------------------------------------

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

int Tracer::Begin(const char* name, int parent, bool record,
                  std::string tags) {
  if (!enabled_ || !record) return -1;
  const double start = SecondsSince(origin_);
  std::lock_guard<std::mutex> lock(mu_);
  Span s;
  s.id = static_cast<int>(spans_.size());
  s.parent = parent;
  s.name = name;
  s.tags = std::move(tags);
  s.start_s = start;
  s.end_s = -1;
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

void Tracer::End(int id) {
  if (id < 0) return;
  const double end = SecondsSince(origin_);
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end_s = end;
}

std::vector<double> Tracer::DurationsMs(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name && s.end_s >= 0) {
      out.push_back((s.end_s - s.start_s) * 1e3);
    }
  }
  return out;
}

std::vector<double> Tracer::SelfMs(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<int, std::vector<std::pair<double, double>>> children;
  for (const Span& s : spans_) {
    if (s.parent >= 0 && s.end_s >= 0) {
      children[s.parent].emplace_back(s.start_s, s.end_s);
    }
  }
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name != name || s.end_s < 0) continue;
    double covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      std::vector<std::pair<double, double>> iv = it->second;
      std::sort(iv.begin(), iv.end());
      double cur_lo = 0, cur_hi = -1;
      for (const auto& [lo, hi] : iv) {
        const double a = std::max(lo, s.start_s);
        const double b = std::min(hi, s.end_s);
        if (b <= a) continue;
        if (a > cur_hi) {
          if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
          cur_lo = a;
          cur_hi = b;
        } else {
          cur_hi = std::max(cur_hi, b);
        }
      }
      if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    }
    out.push_back((s.end_s - s.start_s - covered) * 1e3);
  }
  return out;
}

std::vector<std::string> Tracer::Names() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  for (const Span& s : spans_) {
    if (std::find(names.begin(), names.end(), s.name) == names.end()) {
      names.push_back(s.name);
    }
  }
  return names;
}

namespace {

std::string Escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

bool Tracer::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  std::fprintf(f, "[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "  {\"id\": %d, \"parent\": %d, \"name\": \"%s\", "
                 "\"start_us\": %.3f, \"end_us\": %.3f, \"tags\": \"%s\"}%s\n",
                 s.id, s.parent, Escape(s.name).c_str(), s.start_s * 1e6,
                 s.end_s * 1e6, Escape(s.tags).c_str(),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  return std::fclose(f) == 0;
}

// --- usage and counters -----------------------------------------------------

Usage Usage::Now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.user_s = static_cast<double>(ru.ru_utime.tv_sec) +
             static_cast<double>(ru.ru_utime.tv_usec) * 1e-6;
  u.sys_s = static_cast<double>(ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_stime.tv_usec) * 1e-6;
  u.minor_faults = ru.ru_minflt;
  u.max_rss_kb = ru.ru_maxrss;
  return u;
}

void Usage::AddInterval(const Usage& before, const Usage& after) {
  user_s += after.user_s - before.user_s;
  sys_s += after.sys_s - before.sys_s;
  minor_faults += after.minor_faults - before.minor_faults;
  max_rss_kb = after.max_rss_kb;
}

void CounterDelta::Add(const adamgnn::obs::MetricsSnapshot& before,
                       const adamgnn::obs::MetricsSnapshot& after) {
  std::map<std::string, uint64_t> start(before.counters.begin(),
                                        before.counters.end());
  for (const auto& [name, value] : after.counters) {
    counters_[name] += value - start[name];
  }
  std::map<std::string, const adamgnn::obs::HistogramSnapshot*> hstart;
  for (const auto& [name, h] : before.histograms) hstart[name] = &h;
  for (const auto& [name, h] : after.histograms) {
    adamgnn::obs::HistogramSnapshot& sum = histograms_[name];
    if (sum.counts.empty()) {
      sum.bounds = h.bounds;
      sum.counts.assign(h.counts.size(), 0);
    }
    const adamgnn::obs::HistogramSnapshot* b = hstart[name];
    for (size_t i = 0; i < h.counts.size() && i < sum.counts.size(); ++i) {
      sum.counts[i] += h.counts[i];
      if (b != nullptr && i < b->counts.size()) sum.counts[i] -= b->counts[i];
    }
    sum.count += h.count - (b != nullptr ? b->count : 0);
    sum.sum += h.sum - (b != nullptr ? b->sum : 0.0);
  }
}

uint64_t CounterDelta::Counter(const std::string& name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

double CounterDelta::HistogramP50Ms(const std::string& name) const {
  auto it = histograms_.find(name);
  if (it == histograms_.end() || it->second.count == 0) return 0.0;
  const adamgnn::obs::HistogramSnapshot& h = it->second;
  const uint64_t total = h.count;
  size_t nonempty = 0;
  for (uint64_t c : h.counts) nonempty += c > 0 ? 1 : 0;
  if (nonempty == 1) return h.sum / static_cast<double>(total) * 1e3;
  const double half = static_cast<double>(total) / 2.0;
  double seen = 0;
  for (size_t i = 0; i < h.counts.size(); ++i) {
    const double c = static_cast<double>(h.counts[i]);
    if (seen + c >= half && c > 0) {
      const double lo = i == 0 ? 0.0 : h.bounds[i - 1];
      const double hi = i < h.bounds.size() ? h.bounds[i] : lo;
      return (lo + (hi - lo) * (half - seen) / c) * 1e3;
    }
    seen += c;
  }
  return h.bounds.back() * 1e3;
}

double PoolInlineFrac(const CounterDelta& delta) {
  const double inline_jobs =
      static_cast<double>(delta.Counter("pool.inline_jobs"));
  return Ratio(inline_jobs,
               inline_jobs + static_cast<double>(delta.Counter("pool.jobs")));
}

// --- report -----------------------------------------------------------------

void FinishReport(const Timings& t, Report* report) {
  std::vector<double> untraced;
  std::vector<double> traced;
  std::vector<double> cpu;
  double seconds = 0;
  size_t ops = 0;
  for (const Pass& p : t.passes) {
    untraced.insert(untraced.end(), p.untraced_ms.begin(),
                    p.untraced_ms.end());
    traced.insert(traced.end(), p.traced_ms.begin(), p.traced_ms.end());
    cpu.insert(cpu.end(), p.untraced_cpu_ms.begin(), p.untraced_cpu_ms.end());
    seconds += p.seconds;
    ops += p.ops;
  }
  // Op figures come from untraced ops only; a traced run's untraced half
  // is the baseline its tracing overhead is measured against.
  report->AddEndToEnd("cpu_ms_p50", Median(cpu), "ms", cpu.size());
  report->AddEndToEnd("setup_s", Median(t.setup_cpu_s), "s",
                      t.setup_cpu_s.size());
  // Memory the program keeps grows with the passes it serves, and how
  // many passes fit in the run depends on the machine's speed; the peak
  // after the first t.min_passes is the same amount of work in every run.
  const size_t rss_pass = std::min(t.min_passes, t.passes.size()) - 1;
  report->AddEndToEnd(
      "peak_rss_mb",
      static_cast<double>(t.passes[rss_pass].max_rss_kb) / 1024.0, "MB", 1);
  report->AddFact("peak_rss_mb_end_of_run",
                  Num(static_cast<double>(t.timed.max_rss_kb) / 1024.0));

  report->AddLayer("tensor.minor_faults_per_op",
                   Ratio(static_cast<double>(t.timed.minor_faults),
                         static_cast<double>(ops)),
                   "faults/op", ops);
  report->AddLayer("tensor.sys_frac",
                   Ratio(t.timed.sys_s, t.timed.user_s + t.timed.sys_s),
                   "frac", 1);
  report->AddLayer("bench.latency_ms_p50", Median(untraced), "ms",
                   untraced.size());
  report->AddLayer("bench.latency_ms_p99", Quantile(untraced, 0.99), "ms",
                   untraced.size());
  report->AddLayer("bench.setup_wall_s", Median(t.setup_wall_s), "s",
                   t.setup_wall_s.size());
  report->AddLayer("bench.throughput_per_s",
                   Ratio(static_cast<double>(ops), seconds), "1/s", ops);
  if (!traced.empty()) {
    const double base = Median(untraced);
    report->AddLayer("bench.trace_overhead_frac",
                     Ratio(Median(traced) - base, base), "frac",
                     traced.size());
  }
}

void RequireExact(const char* what, double got, double want) {
  if (got == want) return;
  std::fprintf(stderr,
               "perfbench: exact-count guard failed: %s is %.17g, recorded "
               "%.17g. The change altered the model or the schedule, not its "
               "speed; no figure is reported.\n",
               what, got, want);
  std::exit(3);
}

namespace {

void WriteMetrics(std::FILE* f, const char* key,
                  const std::vector<Metric>& metrics) {
  std::fprintf(f, "  \"%s\": [\n", key);
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"value\": %s, \"unit\": \"%s\", "
                 "\"samples\": %zu}%s\n",
                 m.name.c_str(), Num(m.value).c_str(), m.unit.c_str(),
                 m.samples, i + 1 < metrics.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
}

/// Environment variables that change how the measured program behaves
/// (allocator and library knobs). The harness sets none of them; recording
/// what the caller's environment carried keeps a result honest about it.
std::vector<std::string> KnobEnv() {
  std::vector<std::string> out;
  for (char** e = environ; e != nullptr && *e != nullptr; ++e) {
    if (std::strncmp(*e, "MALLOC_", 7) == 0 ||
        std::strncmp(*e, "GLIBC_TUNABLES", 14) == 0 ||
        std::strncmp(*e, "LD_PRELOAD", 10) == 0 ||
        std::strncmp(*e, "ADAMGNN_", 8) == 0) {
      out.emplace_back(*e);
    }
  }
  return out;
}

}  // namespace

namespace {

/// Orders `metrics` as `names` lists them. A metric `names` does not hold,
/// or holds with another unit, is an error; a listed name the workload did
/// not report is an error too unless `fill_missing`, which reports it as 0
/// and adds it to `missing`.
bool FollowList(const std::vector<std::pair<std::string, std::string>>& names,
                bool fill_missing, const char* list,
                std::vector<Metric>* metrics,
                std::vector<std::string>* missing) {
  for (const Metric& m : *metrics) {
    auto it = std::find_if(names.begin(), names.end(),
                           [&](const auto& n) { return n.first == m.name; });
    if (it == names.end() || it->second != m.unit) {
      std::fprintf(stderr,
                   "perfbench: metric %s (%s) is not in BENCHMARK.json's %s "
                   "list with that unit\n",
                   m.name.c_str(), m.unit.c_str(), list);
      return false;
    }
  }
  std::vector<Metric> ordered;
  for (const auto& [name, unit] : names) {
    auto it = std::find_if(metrics->begin(), metrics->end(),
                           [&](const Metric& m) { return m.name == name; });
    if (it != metrics->end()) {
      ordered.push_back(*it);
    } else if (fill_missing) {
      ordered.push_back({name, 0.0, unit, 0});
      missing->push_back(name);
    } else {
      std::fprintf(stderr, "perfbench: %s metric %s was not measured\n", list,
                   name.c_str());
      return false;
    }
  }
  *metrics = std::move(ordered);
  return true;
}

}  // namespace

int EmitReport(const Args& args, const Report& in, const Tracer& tracer) {
  Report report = in;
  const bool correct = report.problems.empty() && report.failed == 0;
  report.AddEndToEnd(
      "success_frac",
      Ratio(static_cast<double>(report.attempted - report.failed),
            static_cast<double>(report.attempted)),
      "frac", report.attempted);

  // Traced runs report the whole per-layer list; layers this workload
  // never calls read 0 and are named in the detailed result.
  std::vector<std::string> not_exercised;
  if (!FollowList(args.end_to_end_names, false, "end_to_end",
                  &report.end_to_end, &not_exercised) ||
      !FollowList(args.per_layer_names, true, "per_layer", &report.per_layer,
                  &not_exercised)) {
    return 4;
  }

  std::error_code ec;
  std::filesystem::create_directories(args.out_dir, ec);
  const std::string stem = args.out_dir + "/" + report.workload + "-seed" +
                           std::to_string(args.seed) + "-trace" +
                           (args.trace ? "1" : "0");
  const std::string detail_path = stem + ".json";
  std::FILE* f = std::fopen(detail_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", detail_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  adamgnn::bench::WriteEnvJson(f);
  std::fprintf(f, "  \"knob_env\": [");
  const std::vector<std::string> knobs = KnobEnv();
  for (size_t i = 0; i < knobs.size(); ++i) {
    std::fprintf(f, "%s\"%s\"", i ? ", " : "", Escape(knobs[i]).c_str());
  }
  std::fprintf(f, "],\n");
  std::fprintf(f,
               "  \"workload\": \"%s\",\n  \"seed\": %llu,\n"
               "  \"default_seed\": %llu,\n  \"held_out_seed\": %llu,\n"
               "  \"seconds\": %d,\n  \"trace\": %s,\n"
               "  \"requested_pool\": %d,\n  \"correct\": %s,\n"
               "  \"attempted\": %zu,\n  \"failed\": %zu,\n",
               report.workload.c_str(),
               static_cast<unsigned long long>(args.seed),
               static_cast<unsigned long long>(kDefaultSeed),
               static_cast<unsigned long long>(kHeldOutSeed), args.seconds,
               args.trace ? "true" : "false", report.requested_pool,
               correct ? "true" : "false", report.attempted, report.failed);
  std::fprintf(f, "  \"problems\": [");
  for (size_t i = 0; i < report.problems.size(); ++i) {
    std::fprintf(f, "%s\"%s\"", i ? ", " : "",
                 Escape(report.problems[i]).c_str());
  }
  std::fprintf(f, "],\n");
  WriteMetrics(f, "end_to_end", report.end_to_end);
  WriteMetrics(f, "per_layer", report.per_layer);
  std::fprintf(f, "  \"not_exercised\": [");
  for (size_t i = 0; i < not_exercised.size(); ++i) {
    std::fprintf(f, "%s\"%s\"", i ? ", " : "", not_exercised[i].c_str());
  }
  std::fprintf(f, "],\n  \"spans\": {");
  const std::vector<std::string> names = tracer.Names();
  for (size_t i = 0; i < names.size(); ++i) {
    const std::vector<double> dur = tracer.DurationsMs(names[i]);
    const std::vector<double> self = tracer.SelfMs(names[i]);
    std::fprintf(f,
                 "%s\n    \"%s\": {\"count\": %zu, \"p50_ms\": %s, "
                 "\"self_p50_ms\": %s}",
                 i ? "," : "", names[i].c_str(), dur.size(),
                 Num(Median(dur)).c_str(), Num(Median(self)).c_str());
  }
  std::fprintf(f, "%s},\n  \"facts\": {", names.empty() ? "" : "\n  ");
  for (size_t i = 0; i < report.facts.size(); ++i) {
    std::fprintf(f, "%s\n    \"%s\": %s", i ? "," : "",
                 report.facts[i].first.c_str(),
                 report.facts[i].second.c_str());
  }
  std::fprintf(f, "%s}\n}\n", report.facts.empty() ? "" : "\n  ");
  std::fclose(f);
  if (args.trace && !tracer.WriteJson(stem + "-spans.json")) {
    std::fprintf(stderr, "perfbench: cannot write %s-spans.json\n",
                 stem.c_str());
    return 1;
  }

  const std::vector<Metric>& shown =
      args.trace ? report.per_layer : report.end_to_end;
  for (const std::string& p : report.problems) {
    std::printf("problem: %s\n", p.c_str());
  }
  for (const Metric& m : shown) {
    std::printf("%-30s %14.6g %-9s (n=%zu)\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }
  std::printf("detail: %s\n", detail_path.c_str());

  std::string line = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(report.attempted) +
                     ", \"failed\": " + std::to_string(report.failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < shown.size(); ++i) {
    line += (i ? ", \"" : "\"") + shown[i].name + "\": {\"value\": " +
            Num(shown[i].value) + ", \"unit\": \"" + shown[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace perfbench
