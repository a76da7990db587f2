#ifndef RELMAX_CORE_SOLVER_H_
#define RELMAX_CORE_SOLVER_H_

#include "common/status.h"
#include "core/candidates.h"
#include "core/types.h"
#include "graph/uncertain_graph.h"

namespace relmax {

/// The solver variants proposed in the paper (§4–§5).
enum class CoreMethod {
  /// Path-batches-based edge selection (Algorithm 6) — the paper's ultimate
  /// method "BE".
  kBatchEdges,
  /// Individual path-based edge selection (Algorithm 5) — "IP".
  kIndividualPaths,
  /// Most-reliable-path improvement (Algorithm 3, exact for Problem 2) used
  /// as an approximation for Problem 1 — "MRP".
  kMostReliablePath,
};

/// Human-readable method name for harness output.
inline const char* CoreMethodName(CoreMethod method) {
  switch (method) {
    case CoreMethod::kBatchEdges:
      return "BE";
    case CoreMethod::kIndividualPaths:
      return "IP";
    case CoreMethod::kMostReliablePath:
      return "MRP";
  }
  internal::CheckFailed("unhandled CoreMethod", __FILE__, __LINE__);
}

/// Solves the single-source-target budgeted reliability maximization problem
/// (Problem 1): find up to `options.budget_k` missing edges, each with
/// probability ζ, maximizing R(s, t).
///
/// Pipeline (§5): reliability-based search-space elimination (Algorithm 4) →
/// top-l most reliable paths in the search graph (G ∪ E+ induced on C(s) ∪
/// C(t), see BuildSearchGraph) → edge selection with the chosen method.
/// Every step is deterministic given `options.seed`.
StatusOr<Solution> MaximizeReliability(
    const UncertainGraph& g, NodeId s, NodeId t, const SolverOptions& options,
    CoreMethod method = CoreMethod::kBatchEdges);

/// Variant with a precomputed candidate set — lets callers share one
/// elimination pass across methods (as the paper's Table 5 does) or supply
/// custom candidate edges with per-edge probabilities (Table 16). Every
/// method rejects a malformed candidate edge with the code
/// UncertainGraph::ValidateEdge gives it.
StatusOr<Solution> MaximizeReliabilityWithCandidates(
    const UncertainGraph& g, NodeId s, NodeId t,
    const CandidateSet& candidates, const SolverOptions& options,
    CoreMethod method = CoreMethod::kBatchEdges);

}  // namespace relmax

#endif  // RELMAX_CORE_SOLVER_H_
