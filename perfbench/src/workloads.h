// The three workloads and the per-layer probes.
#ifndef RELMAX_PERFBENCH_WORKLOADS_H_
#define RELMAX_PERFBENCH_WORKLOADS_H_

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "query/query_set.h"

namespace perfbench {

/// Per-layer metrics by name: (value, unit).
using LayerMap = std::map<std::string, std::pair<double, std::string>>;

/// Each runs one workload for args.seconds of measured time, checks every
/// answer, and fills `report` (end-to-end metrics, attempted, failed).
/// Traced runs (tracer->enabled()) also record spans and fill `layers`.
void RunSolve(const Args& args, Tracer* tracer, Report* report,
              LayerMap* layers);
void RunBatch(const Args& args, Tracer* tracer, Report* report,
              LayerMap* layers);
void RunServe(const Args& args, Tracer* tracer, Report* report,
              LayerMap* layers);

/// Inputs of the layer probes: a workload's graph, a few of its pairs, its
/// sampling settings and some 3–5-hop pairs for the solver pipeline.
struct ProbeInputs {
  const relmax::UncertainGraph* graph = nullptr;
  std::vector<relmax::StQuery> pairs;
  std::vector<relmax::StQuery> solve_pairs;
  int num_samples = 2000;
  uint64_t seed = 1;
};

/// Times calls into every module's public functions on the probe inputs:
/// sampling (bank fill, flood, estimate), query engine, index (build,
/// query, incremental update on a standalone replica), serve (submit,
/// publish, windows on a one-lane core), and the solver pipeline stages
/// (candidates, top-l paths, selection). Fills the per-layer metrics of
/// those layers; the workload then overwrites the ones its own loop measures
/// under load and adds graph.read_s and trace.overhead_pct.
void ProbeLayers(const ProbeInputs& inputs, Tracer* tracer, LayerMap* layers);

}  // namespace perfbench

#endif  // RELMAX_PERFBENCH_WORKLOADS_H_
