// perfbench: the repository's benchmark. One process runs one workload at
// one seed for a fixed time, checks every output, and prints its metrics;
// the last line of stdout is the one-line JSON result. See README.md.
//
//   perfbench --workload train_node|infer_fresh|serve_mix --seed N
//             --seconds S --trace 0|1 --end-to-end NAME:UNIT,...
//             --per-layer NAME:UNIT,... [--bench-dir DIR] [--out-dir DIR]
//             run.py passes the two metric lists from BENCHMARK.json.
//   perfbench --record N --seed S [--bench-dir DIR]
//             records the train_node trajectory (N epochs) at seed S.

#include <cstdio>
#include <string>

#include "common.h"
#include "util/string_util.h"
#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "train_node|infer_fresh|serve_mix [--seed N] [--seconds S] "
               "[--trace 0|1] --end-to-end NAME:UNIT,... "
               "--per-layer NAME:UNIT,... [--bench-dir DIR] [--out-dir DIR]\n"
               "       perfbench --record EPOCHS [--seed N] "
               "[--bench-dir DIR]\n",
               why);
  return 2;
}

bool ParseNonNegative(const std::string& text, long long* out) {
  adamgnn::util::Result<int64_t> v = adamgnn::util::ParseInt(text);
  if (!v.ok() || v.ValueOrDie() < 0) return false;
  *out = v.ValueOrDie();
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    std::string value;
    const size_t eq = flag.find('=');
    if (eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag = flag.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return Usage(("missing value for " + flag).c_str());
    }
    long long n = 0;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--bench-dir") {
      args.bench_dir = value;
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else if (flag == "--end-to-end" || flag == "--per-layer") {
      if (!perfbench::ParseMetricList(value, flag == "--end-to-end"
                                                 ? &args.end_to_end_names
                                                 : &args.per_layer_names)) {
        return Usage(("bad metric list for " + flag).c_str());
      }
    } else if (!ParseNonNegative(value, &n)) {
      return Usage(("bad value for " + flag + ": " + value).c_str());
    } else if (flag == "--seed") {
      args.seed = static_cast<uint64_t>(n);
    } else if (flag == "--seconds" && n >= 1) {
      args.seconds = static_cast<int>(n);
    } else if (flag == "--trace" && n <= 1) {
      args.trace = n == 1;
    } else if (flag == "--record" && n >= 1) {
      args.record_epochs = static_cast<int>(n);
    } else {
      return Usage(("unknown flag or value: " + flag + " " + value).c_str());
    }
  }
  if (args.record_epochs > 0) return perfbench::RecordTrainNode(args);
  if (args.end_to_end_names.empty() || args.per_layer_names.empty()) {
    return Usage("--end-to-end and --per-layer are required");
  }

  perfbench::Tracer tracer(args.trace);
  perfbench::Report report;
  if (args.workload == "train_node") {
    report = perfbench::RunTrainNode(args, &tracer);
  } else if (args.workload == "infer_fresh") {
    report = perfbench::RunInferFresh(args, &tracer);
  } else if (args.workload == "serve_mix") {
    report = perfbench::RunServeMix(args, &tracer);
  } else {
    return Usage(("unknown workload '" + args.workload + "'").c_str());
  }
  return perfbench::EmitReport(args, report, tracer);
}
