// The three perfbench workloads. Each runs in one process from its seed,
// fills a Report, and never prints; main.cc emits the result.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "common.h"

namespace perfbench {

/// Full-batch AdamGNN node-classification training, one op per epoch.
Report RunTrainNode(const Args& args, Tracer* tracer);
/// Records the train_node loss trajectory and level counts at args.seed
/// into trajectories/. Returns the process exit code.
int RecordTrainNode(const Args& args);

/// Uncached single-graph inference: GraphPlan::TryBuild + TryRun per op.
Report RunInferFresh(const Args& args, Tracer* tracer);

/// Closed-loop micro-batched serving through the model registry.
Report RunServeMix(const Args& args, Tracer* tracer);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
