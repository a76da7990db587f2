#include "core/multi.h"

#include <algorithm>
#include <unordered_set>

#include "common/memory.h"
#include "common/timer.h"
#include "core/candidates.h"
#include "core/evaluate.h"
#include "core/selection.h"
#include "core/solver.h"
#include "paths/yen.h"

namespace relmax {
namespace {

Status ValidateMultiQuery(const UncertainGraph& g,
                          const std::vector<NodeId>& sources,
                          const std::vector<NodeId>& targets) {
  if (sources.empty() || targets.empty()) {
    return Status::InvalidArgument("sources and targets must be non-empty");
  }
  for (NodeId v : sources) {
    if (v >= g.num_nodes()) return Status::OutOfRange("source out of range");
  }
  std::unordered_set<NodeId> source_set(sources.begin(), sources.end());
  for (NodeId v : targets) {
    if (v >= g.num_nodes()) return Status::OutOfRange("target out of range");
    if (source_set.count(v) > 0) {
      return Status::InvalidArgument(
          "sources and targets must be disjoint (overlapping queries are "
          "trivial, paper §6.3)");
    }
  }
  return Status::Ok();
}

// §6.1: one shared elimination pass, per-pair top-l paths pooled, batch
// selection against the average objective.
StatusOr<MultiSolution> SolveAverage(const UncertainGraph& g,
                                     const std::vector<NodeId>& sources,
                                     const std::vector<NodeId>& targets,
                                     const SolverOptions& options) {
  MultiSolution solution;
  {
    const auto before =
        PairwiseReliability(g, sources, targets, options.num_samples,
                            options.seed ^ 0xbefe, options.num_threads);
    solution.aggregate_before = AggregateMatrix(before, Aggregate::kAverage);
  }

  WallTimer elimination_timer;
  auto candidates = SelectCandidatesMulti(g, sources, targets, options);
  RELMAX_RETURN_IF_ERROR(candidates.status());
  solution.stats.elimination_seconds = elimination_timer.ElapsedSeconds();
  solution.stats.candidate_edges = candidates->edges.size();

  WallTimer selection_timer;
  // Paths are found and the objective evaluated on the search graph over
  // all query nodes and the eliminated sets, in its compact ids.
  std::vector<NodeId> query_nodes = sources;
  query_nodes.insert(query_nodes.end(), targets.begin(), targets.end());
  auto search = BuildSearchGraph(g, query_nodes, *candidates);
  RELMAX_RETURN_IF_ERROR(search.status());
  const UncertainGraph& sub = search->graph;
  std::vector<NodeId> sub_sources;
  std::vector<NodeId> sub_targets;
  for (NodeId s : sources) sub_sources.push_back(search->compact_id[s]);
  for (NodeId t : targets) sub_targets.push_back(search->compact_id[t]);

  // Pool the top-l most reliable paths of every pair (paper: |S||T|·l paths).
  std::vector<PathResult> pool;
  for (NodeId s : sub_sources) {
    for (NodeId t : sub_targets) {
      for (PathResult& path : TopLReliablePaths(sub, s, t, options.top_l)) {
        pool.push_back(std::move(path));
      }
    }
  }
  const std::vector<AnnotatedPath> annotated =
      AnnotatePaths(sub, pool, search->candidates);
  solution.stats.paths_considered = annotated.size();

  auto objective = [&](const std::vector<int>& selected, uint64_t salt) {
    const auto matrix = PairwiseReliability(
        UnionOfSelectedPaths(sub, annotated, selected), sub_sources,
        sub_targets, options.num_samples, options.seed ^ salt,
        options.num_threads);
    return AggregateMatrix(matrix, Aggregate::kAverage);
  };

  const std::vector<int> indices = SelectEdgesByPathBatchesObjective(
      annotated, options.budget_k, objective);
  for (int i : indices) {
    solution.added_edges.push_back(candidates->edges[i]);
  }
  solution.stats.selection_seconds = selection_timer.ElapsedSeconds();
  solution.stats.total_seconds =
      solution.stats.elimination_seconds + solution.stats.selection_seconds;

  const auto after = PairwiseReliability(
      AugmentGraph(g, solution.added_edges), sources, targets,
      options.num_samples, options.seed ^ 0xafe, options.num_threads);
  solution.aggregate_after = AggregateMatrix(after, Aggregate::kAverage);
  solution.stats.peak_rss_bytes = PeakRssBytes();
  return solution;
}

// §6.2 / §6.3: iterative extreme-pair refinement with per-round budget k1.
StatusOr<MultiSolution> SolveExtreme(const UncertainGraph& g,
                                     const std::vector<NodeId>& sources,
                                     const std::vector<NodeId>& targets,
                                     Aggregate aggregate,
                                     const SolverOptions& options,
                                     int batch_k1) {
  const bool minimize = aggregate == Aggregate::kMinimum;
  // Paper default: k1 = 10% of k (k1 = 10 at k = 100). The floor of 2 keeps
  // chain-building possible at small budgets — a single edge often cannot
  // bridge a weak pair on its own.
  const int k1 =
      batch_k1 > 0 ? batch_k1 : std::max(2, options.budget_k / 10);

  MultiSolution solution;
  WallTimer total_timer;
  UncertainGraph working = g;
  auto matrix = PairwiseReliability(working, sources, targets,
                                    options.num_samples,
                                    options.seed ^ 0xbefe,
                                    options.num_threads);
  solution.aggregate_before = AggregateMatrix(matrix, aggregate);

  // Pairs whose extreme-round solve produced nothing (e.g. unfixable under
  // the h-hop constraint); the refinement falls through to the next-most
  // extreme pair instead of stalling on them.
  std::unordered_set<uint64_t> exhausted;
  auto pair_key = [&](size_t si, size_t ti) {
    return static_cast<uint64_t>(si) * targets.size() + ti;
  };

  uint64_t round = 0;
  while (static_cast<int>(solution.added_edges.size()) < options.budget_k) {
    ++round;
    // Extract the non-exhausted pair with the extreme current reliability.
    size_t best_si = 0;
    size_t best_ti = 0;
    double extreme = minimize ? 2.0 : -1.0;
    bool found = false;
    for (size_t si = 0; si < sources.size(); ++si) {
      for (size_t ti = 0; ti < targets.size(); ++ti) {
        if (exhausted.count(pair_key(si, ti)) > 0) continue;
        const double r = matrix[si][ti];
        if (minimize ? r < extreme : r > extreme) {
          extreme = r;
          best_si = si;
          best_ti = ti;
          found = true;
        }
      }
    }
    if (!found) break;  // every pair is beyond further improvement

    SolverOptions round_options = options;
    round_options.budget_k =
        std::min(k1, options.budget_k -
                         static_cast<int>(solution.added_edges.size()));
    round_options.seed = options.seed + round * 0x9e3779b97f4a7c15ULL;
    auto sol = MaximizeReliability(working, sources[best_si],
                                   targets[best_ti], round_options,
                                   CoreMethod::kBatchEdges);
    RELMAX_RETURN_IF_ERROR(sol.status());
    solution.stats.elimination_seconds += sol->stats.elimination_seconds;
    solution.stats.selection_seconds += sol->stats.selection_seconds;
    solution.stats.candidate_edges =
        std::max(solution.stats.candidate_edges, sol->stats.candidate_edges);
    if (sol->added_edges.empty()) {
      exhausted.insert(pair_key(best_si, best_ti));
      continue;
    }

    for (const Edge& e : sol->added_edges) {
      if (working.AddEdge(e.src, e.dst, e.prob).ok()) {
        solution.added_edges.push_back(e);
      }
    }
    // Re-estimate every pair: the new edges may change any of them (§6.2),
    // and previously exhausted pairs may have become improvable.
    matrix = PairwiseReliability(working, sources, targets,
                                 options.num_samples,
                                 options.seed ^ (round * 1315423911ULL),
                                 options.num_threads);
    exhausted.clear();
  }

  solution.aggregate_after = AggregateMatrix(matrix, aggregate);
  solution.stats.total_seconds = total_timer.ElapsedSeconds();
  solution.stats.peak_rss_bytes = PeakRssBytes();
  return solution;
}

}  // namespace

StatusOr<MultiSolution> MaximizeMultiReliability(
    const UncertainGraph& g, const std::vector<NodeId>& sources,
    const std::vector<NodeId>& targets, Aggregate aggregate,
    const SolverOptions& options, int batch_k1) {
  RELMAX_RETURN_IF_ERROR(ValidateMultiQuery(g, sources, targets));
  if (options.budget_k <= 0) {
    return Status::InvalidArgument("budget_k must be positive");
  }
  switch (aggregate) {
    case Aggregate::kAverage:
      return SolveAverage(g, sources, targets, options);
    case Aggregate::kMinimum:
    case Aggregate::kMaximum:
      return SolveExtreme(g, sources, targets, aggregate, options, batch_k1);
  }
  // Exhaustive above; a corrupt enum value must not silently pick a solver.
  internal::CheckFailed("unhandled Aggregate", __FILE__, __LINE__);
}

}  // namespace relmax
