#ifndef RELMAX_BENCH_BENCH_UTIL_H_
#define RELMAX_BENCH_BENCH_UTIL_H_

#include <string>
#include <utility>
#include <vector>

#include "common/flags.h"
#include "common/table.h"
#include "core/candidates.h"
#include "core/solver.h"
#include "core/types.h"
#include "gen/datasets.h"
#include "gen/queries.h"
#include "graph/uncertain_graph.h"

namespace relmax {
namespace bench {

/// Shared knobs for all paper-table benches, overridable via command line
/// (--scale, --queries, --k, --zeta, --r, --l, --h, --samples,
/// --seed, --threads, --reuse-worlds) or
/// the RELMAX_* environment variables. Defaults are laptop-scale: the whole
/// harness finishes in minutes on one core while preserving the paper's
/// relative ordering of methods.
struct BenchConfig {
  double scale = 0.1;
  int queries = 3;
  int k = 10;
  double zeta = 0.5;
  int r = 40;
  int l = 30;
  int h = 3;
  int samples = 300;
  int elim_samples = 300;
  /// Samples for the final reported gain (higher to stabilize the tables).
  int gain_samples = 2000;
  uint64_t seed = 42;
  /// Worker lanes for every sampling step (--threads; <= 0 = all hardware
  /// threads). Results are bit-identical regardless of this value.
  int num_threads = 1;
  /// Shared possible-world bank for the greedy selection loops
  /// (--reuse-worlds=0 disables; see SolverOptions::reuse_worlds).
  bool reuse_worlds = true;
  /// Estimator for the elimination/selection phases (Tables 6-7 compare).
  Estimator estimator = Estimator::kMonteCarlo;
  /// The per-candidate greedy baselines (Individual Top-k, Hill Climbing)
  /// get this multiple of `samples` — they compare hundreds of noisy
  /// estimates per round and degrade into random picks otherwise. Their
  /// reported time honestly includes the extra sampling, which is exactly
  /// the paper's point about their cost.
  int greedy_sample_boost = 3;
  /// Print the canonical environment JSON block under the bench banner
  /// (--print-env), ready to paste into a BENCH_*.json record.
  bool print_env = false;

  static BenchConfig FromFlags(const Flags& flags);
  SolverOptions ToSolverOptions() const;
};

/// Canonical `environment` block shared by every BENCH_*.json record —
/// identical shape ({cpus_available, compiler, benchmark_library, note})
/// in every file, emitted from this one helper so the schemas cannot drift
/// apart again. `benchmark_library` names the
/// timing harness ("google-benchmark x.y" or "WallTimer harness").
std::string EnvironmentJson(const std::string& benchmark_library,
                            const std::string& note);

/// Methods compared across the paper's tables.
enum class Method {
  kIndividualTopK,
  kHillClimbing,
  kDegree,
  kBetweenness,
  kEigen,
  kMrp,
  kIp,
  kBe,
  kExact,
  kIndividualTopKFast,
  kHillClimbingFast,
};

const char* MethodLabel(Method method);

/// Outcome of one method on one query.
struct MethodResult {
  double gain = 0.0;
  double seconds = 0.0;
  size_t peak_rss_bytes = 0;
  std::vector<Edge> edges;
};

/// Precomputed search-space elimination for one query: the candidate set
/// plus the induced "relevant" subgraph of C(s) ∪ C(t) ∪ {s, t} on which
/// iterative baselines run (Table 5 couples every baseline with
/// elimination).
struct EliminatedQuery {
  CandidateSet candidates;
  double elimination_seconds = 0.0;
  UncertainGraph sub = UncertainGraph::Directed(0);
  std::vector<NodeId> sub_nodes;  ///< sub id -> original id
  NodeId sub_s = 0;
  NodeId sub_t = 0;
  std::vector<Edge> sub_candidates;  ///< candidates in sub coordinates
};

/// Runs Algorithm 4 and assembles the induced working subgraph.
EliminatedQuery Eliminate(const UncertainGraph& g, NodeId s, NodeId t,
                          const SolverOptions& options);

/// Runs `method` inside the eliminated subgraph, maps the chosen edges back
/// to original ids, and measures the reliability gain on the full graph
/// with `config.gain_samples` Monte Carlo samples.
MethodResult RunMethodEliminated(const UncertainGraph& g, NodeId s, NodeId t,
                                 const EliminatedQuery& eq, Method method,
                                 const BenchConfig& config);

/// Runs `method` directly on the full graph against an explicit candidate
/// list (Table 4: no elimination). Slow by design for the sampling methods.
MethodResult RunMethodDirect(const UncertainGraph& g, NodeId s, NodeId t,
                             const std::vector<Edge>& candidates,
                             Method method, const BenchConfig& config);

/// Reliability gain of adding `edges` to g, measured on the full graph.
double MeasureGain(const UncertainGraph& g, NodeId s, NodeId t,
                   const std::vector<Edge>& edges, int num_samples,
                   uint64_t seed, int num_threads = 1);

/// Loads a dataset at the bench scale, failing loudly.
Dataset LoadDataset(const std::string& name, const BenchConfig& config);

/// Paper-style query workload for a dataset (3-5 hop pairs).
std::vector<std::pair<NodeId, NodeId>> MakeQueries(const UncertainGraph& g,
                                                   const BenchConfig& config);

/// Prints the bench banner ("=== Table 9 ... ===" plus the config line).
void PrintHeader(const std::string& title, const BenchConfig& config);

}  // namespace bench
}  // namespace relmax

#endif  // RELMAX_BENCH_BENCH_UTIL_H_
