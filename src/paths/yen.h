#ifndef RELMAX_PATHS_YEN_H_
#define RELMAX_PATHS_YEN_H_

#include <vector>

#include "graph/uncertain_graph.h"
#include "paths/most_reliable_path.h"

namespace relmax {

/// Top-l most reliable *simple* paths from s to t, in non-increasing
/// probability order (ties broken deterministically).
///
/// The paper invokes Eppstein's k-shortest-paths algorithm [27] here; we use
/// Yen's deviation algorithm instead: Eppstein enumerates non-simple paths,
/// which can never be most-reliable under multiplicative probabilities, and
/// the selection stage (§5.2) consumes simple paths. Returns fewer than l
/// paths when the graph does not contain that many.
std::vector<PathResult> TopLReliablePaths(const UncertainGraph& g, NodeId s,
                                          NodeId t, int l);

}  // namespace relmax

#endif  // RELMAX_PATHS_YEN_H_
