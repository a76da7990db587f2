#include "apps/influence.h"

#include <algorithm>
#include <unordered_set>

#include "common/rng.h"
#include "core/candidates.h"
#include "core/evaluate.h"
#include "core/selection.h"
#include "paths/yen.h"

namespace relmax {

StatusOr<CollaborationScenario> MakeCollaborationScenario(
    const UncertainGraph& g, int num_seniors, int num_juniors,
    uint64_t seed) {
  if (num_seniors <= 0 || num_juniors <= 0) {
    return Status::InvalidArgument("group sizes must be positive");
  }
  const NodeId n = g.num_nodes();
  std::vector<NodeId> by_degree(n);
  for (NodeId v = 0; v < n; ++v) by_degree[v] = v;
  std::sort(by_degree.begin(), by_degree.end(), [&](NodeId a, NodeId b) {
    const size_t da = g.OutArcs(a).size();
    const size_t db = g.OutArcs(b).size();
    return da != db ? da > db : a < b;
  });

  const size_t top5 = std::max<size_t>(num_seniors, n / 20);
  std::vector<NodeId> senior_pool(by_degree.begin(),
                                  by_degree.begin() + std::min<size_t>(top5, n));
  // Juniors: the low-degree band — degree within the bottom quartile (at
  // least covering degrees 1..3, matching the paper's 1-3-paper authors).
  const size_t p25_degree =
      g.OutArcs(by_degree[n - std::max<NodeId>(1, n / 4)]).size();
  const size_t junior_cutoff = std::max<size_t>(3, p25_degree);
  std::vector<NodeId> junior_pool;
  for (NodeId v : by_degree) {
    const size_t deg = g.OutArcs(v).size();
    if (deg >= 1 && deg <= junior_cutoff) junior_pool.push_back(v);
  }
  if (static_cast<int>(senior_pool.size()) < num_seniors ||
      static_cast<int>(junior_pool.size()) < num_juniors) {
    return Status::FailedPrecondition(
        "graph lacks enough high/low degree nodes for the scenario");
  }

  Rng rng(seed);
  std::shuffle(senior_pool.begin(), senior_pool.end(), rng);
  std::shuffle(junior_pool.begin(), junior_pool.end(), rng);
  CollaborationScenario scenario;
  std::unordered_set<NodeId> taken;
  for (NodeId v : senior_pool) {
    if (static_cast<int>(scenario.seniors.size()) >= num_seniors) break;
    if (taken.insert(v).second) scenario.seniors.push_back(v);
  }
  for (NodeId v : junior_pool) {
    if (static_cast<int>(scenario.juniors.size()) >= num_juniors) break;
    if (taken.insert(v).second) scenario.juniors.push_back(v);
  }
  if (static_cast<int>(scenario.seniors.size()) < num_seniors ||
      static_cast<int>(scenario.juniors.size()) < num_juniors) {
    return Status::FailedPrecondition("senior/junior pools overlap too much");
  }
  return scenario;
}

StatusOr<InfluenceResult> MaximizeInfluenceSpread(
    const UncertainGraph& g, const std::vector<NodeId>& sources,
    const std::vector<NodeId>& targets, const SolverOptions& options,
    int pair_cap) {
  if (sources.empty() || targets.empty()) {
    return Status::InvalidArgument("sources and targets must be non-empty");
  }
  if (pair_cap <= 0) return Status::InvalidArgument("pair_cap positive");

  InfluenceResult result;
  result.spread_before = InfluenceSpread(g, sources, targets,
                                         options.num_samples,
                                         options.seed ^ 0xbefe,
                                         options.num_threads);

  auto candidates = SelectCandidatesMulti(g, sources, targets, options);
  RELMAX_RETURN_IF_ERROR(candidates.status());
  // Working graph: the search graph over the query nodes and eliminated
  // sets, in its compact ids.
  std::vector<NodeId> query_nodes = sources;
  query_nodes.insert(query_nodes.end(), targets.begin(), targets.end());
  auto search = BuildSearchGraph(g, query_nodes, *candidates);
  RELMAX_RETURN_IF_ERROR(search.status());
  const UncertainGraph& sub = search->graph;
  std::vector<NodeId> sub_sources;
  std::vector<NodeId> sub_targets;
  for (NodeId s : sources) sub_sources.push_back(search->compact_id[s]);
  for (NodeId t : targets) sub_targets.push_back(search->compact_id[t]);

  // Path pooling over a capped, deterministic round-robin of (s, t) pairs.
  std::vector<PathResult> pool;
  Rng rng(options.seed ^ 0x1f1);
  int pairs_used = 0;
  for (size_t step = 0;
       step < sources.size() * targets.size() && pairs_used < pair_cap;
       ++step) {
    const NodeId s = sub_sources[step % sources.size()];
    const NodeId t = sub_targets[(step * 7 + rng.NextUint64(targets.size())) %
                                 targets.size()];
    ++pairs_used;
    for (PathResult& path : TopLReliablePaths(sub, s, t, options.top_l)) {
      pool.push_back(std::move(path));
    }
  }
  const std::vector<AnnotatedPath> annotated =
      AnnotatePaths(sub, pool, search->candidates);

  // Batch selection scored on the spread over the union subgraph (all
  // sources/targets mapped; paths define the candidate wiring).
  auto objective = [&](const std::vector<int>& selected, uint64_t salt) {
    return InfluenceSpread(UnionOfSelectedPaths(sub, annotated, selected),
                           sub_sources, sub_targets, options.num_samples,
                           options.seed ^ salt, options.num_threads);
  };
  const std::vector<int> indices = SelectEdgesByPathBatchesObjective(
      annotated, options.budget_k, objective);
  for (int i : indices) {
    result.recommended_edges.push_back(candidates->edges[i]);
  }

  result.spread_after = InfluenceSpread(
      AugmentGraph(g, result.recommended_edges), sources, targets,
      options.num_samples, options.seed ^ 0xafe, options.num_threads);
  return result;
}

}  // namespace relmax
