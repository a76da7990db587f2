#ifndef RELMAX_BASELINES_ESSSP_H_
#define RELMAX_BASELINES_ESSSP_H_

#include <vector>

#include "common/status.h"
#include "core/types.h"
#include "graph/uncertain_graph.h"

namespace relmax {

/// Re-implementation of the §8.3 competitor "ESSSP" (after Parotsidis et
/// al. [36]): greedily adds the candidate edge that most reduces the sum of
/// expected shortest-path lengths over all source-target pairs.
///
/// The expected shortest-path length of a pair is estimated over sampled
/// possible worlds (hop-count distance; an unreachable pair contributes the
/// disconnection penalty `num_nodes`). This is the uncertain-graph analogue
/// of the original deterministic objective, which has no meaning until a
/// possible world fixes the edges.
StatusOr<std::vector<Edge>> SelectEsssp(const UncertainGraph& g,
                                        const std::vector<NodeId>& sources,
                                        const std::vector<NodeId>& targets,
                                        const std::vector<Edge>& candidates,
                                        const SolverOptions& options);

/// Expected shortest-path length sum over all pairs (the ESSSP objective);
/// exposed for tests and the bench harness.
double ExpectedSplSum(const UncertainGraph& g,
                      const std::vector<NodeId>& sources,
                      const std::vector<NodeId>& targets, int num_samples,
                      uint64_t seed);

}  // namespace relmax

#endif  // RELMAX_BASELINES_ESSSP_H_
