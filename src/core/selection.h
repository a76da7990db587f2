#ifndef RELMAX_CORE_SELECTION_H_
#define RELMAX_CORE_SELECTION_H_

#include <functional>
#include <vector>

#include "core/types.h"
#include "graph/uncertain_graph.h"
#include "paths/most_reliable_path.h"

namespace relmax {

/// A path annotated with the candidate-edge indices it uses (indices into
/// the CandidateSet::edges / solver candidate list).
struct AnnotatedPath {
  PathResult path;
  /// Sorted candidate indices appearing on the path (its batch label).
  std::vector<int> candidate_indices;
};

/// Annotates each path with the candidate edges it traverses. Paths and
/// `candidates` use g_plus's node ids (the solvers pass the search graph and
/// its compact candidates); an undirected candidate matches either
/// direction, and a repeated pair keeps its first index.
std::vector<AnnotatedPath> AnnotatePaths(
    const UncertainGraph& g_plus, const std::vector<PathResult>& paths,
    const std::vector<Edge>& candidates);

/// The graph on g's node set holding each edge of the selected paths once,
/// with g's probabilities: the union subgraph that the multi-pair (§6.1) and
/// influence-spread objectives evaluate. Nodes off the paths stay isolated,
/// so unreachable query pairs count as 0.
UncertainGraph UnionOfSelectedPaths(const UncertainGraph& g,
                                    const std::vector<AnnotatedPath>& paths,
                                    const std::vector<int>& selected);

/// A path batch (Algorithm 6): all paths sharing one candidate-edge label.
struct PathBatch {
  std::vector<int> label;         ///< sorted candidate indices (may be empty)
  std::vector<int> path_indices;  ///< indices into the annotated path list
};

/// Groups annotated paths into batches keyed by their candidate label
/// (Algorithm 6, Path Batch Construction).
std::vector<PathBatch> BuildPathBatches(
    const std::vector<AnnotatedPath>& paths);

/// Algorithm 5: individual path-based edge selection. Returns the indices of
/// the chosen candidate edges (≤ budget_k).
std::vector<int> SelectEdgesByIndividualPaths(
    const UncertainGraph& g_plus, NodeId s, NodeId t,
    const std::vector<AnnotatedPath>& paths, const SolverOptions& options);

/// Algorithm 6: path-batches-based edge selection with subset-batch
/// activation and per-new-edge normalized marginal gain. Returns the indices
/// of the chosen candidate edges (≤ budget_k).
std::vector<int> SelectEdgesByPathBatches(
    const UncertainGraph& g_plus, NodeId s, NodeId t,
    const std::vector<AnnotatedPath>& paths, const SolverOptions& options);

/// Objective evaluated on a set of selected paths (by index); `salt` keys the
/// round's common random numbers so competing candidates share worlds.
using PathSetObjective =
    std::function<double(const std::vector<int>& selected_paths,
                         uint64_t salt)>;

/// Objective-generic core of Algorithm 6 — the multi-source-target solvers
/// (§6) plug in aggregate objectives here. Returns chosen candidate indices.
std::vector<int> SelectEdgesByPathBatchesObjective(
    const std::vector<AnnotatedPath>& paths, int budget_k,
    const PathSetObjective& objective);

}  // namespace relmax

#endif  // RELMAX_CORE_SELECTION_H_
