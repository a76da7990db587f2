#ifndef RELMAX_CORE_CANDIDATES_H_
#define RELMAX_CORE_CANDIDATES_H_

#include <vector>

#include "common/status.h"
#include "core/types.h"
#include "graph/uncertain_graph.h"

namespace relmax {

/// Output of reliability-based search-space elimination (Algorithm 4).
struct CandidateSet {
  /// C(s): top-r nodes by reliability from the source(s), s itself included.
  std::vector<NodeId> from_source;
  /// C(t): top-r nodes by reliability to the target(s), t itself included.
  std::vector<NodeId> to_target;
  /// E+: missing edges from C(s) to C(t) satisfying the h-hop constraint,
  /// each with probability ζ.
  std::vector<Edge> edges;
};

/// Reliability-based search-space elimination for a single s-t query
/// (Algorithm 4): keeps the top-r nodes by reliability from s and to t, then
/// emits every missing (u, v) ∈ C(s) × C(t) pair whose endpoints are within
/// `options.hop_h` hops (ignoring direction) as a candidate edge with
/// probability ζ. This shrinks the candidate space from O(n²) to O(r²).
StatusOr<CandidateSet> SelectCandidates(const UncertainGraph& g, NodeId s,
                                        NodeId t,
                                        const SolverOptions& options);

/// Multi-source-target variant (§6.1): C(s) is the union of per-source top-r
/// sets, C(t) the union of per-target sets.
StatusOr<CandidateSet> SelectCandidatesMulti(const UncertainGraph& g,
                                             const std::vector<NodeId>& sources,
                                             const std::vector<NodeId>& targets,
                                             const SolverOptions& options);

/// G ∪ E+ restricted to the nodes a path search may use (§5): the top-l
/// paths and the batch selection only ever see this graph, in compact ids.
struct SearchGraph {
  /// Compact id -> original id: the query nodes, C(s), C(t), then any other
  /// candidate endpoint, each kept at its first appearance.
  std::vector<NodeId> nodes;
  /// Original id -> compact id; kInvalidNode for nodes outside `nodes`.
  std::vector<NodeId> compact_id;
  /// CandidateSet::edges in compact ids, at the same indices.
  std::vector<Edge> candidates;
  /// (G ∪ E+) induced on `nodes`, edge for edge (ids included) the graph
  /// AugmentGraph(g, E+).InducedSubgraph(nodes) would give.
  UncertainGraph graph = UncertainGraph::Directed(0);
};

/// Builds the SearchGraph straight from g's CSR, without copying g. Every
/// query node and node-list entry must be a node of g, and every candidate
/// edge must pass UncertainGraph::ValidateEdge (OutOfRange / InvalidArgument
/// otherwise). Candidates duplicating an edge of g or an earlier candidate
/// are kept in `candidates` but add no edge, as in AugmentGraph.
StatusOr<SearchGraph> BuildSearchGraph(const UncertainGraph& g,
                                       const std::vector<NodeId>& query_nodes,
                                       const CandidateSet& candidates);

/// All missing edges of the graph (each with probability ζ), optionally
/// restricted to the h-hop constraint — the baselines' candidate space when
/// elimination is disabled. Quadratic; intended for small/medium graphs.
std::vector<Edge> AllMissingEdges(const UncertainGraph& g, double zeta,
                                  int hop_h);

}  // namespace relmax

#endif  // RELMAX_CORE_CANDIDATES_H_
