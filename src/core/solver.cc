#include "core/solver.h"

#include <algorithm>
#include <set>

#include "common/memory.h"
#include "common/timer.h"
#include "core/evaluate.h"
#include "core/selection.h"
#include "paths/layered_mrp.h"
#include "paths/yen.h"

namespace relmax {
namespace {

size_t CountDistinctCandidates(const std::vector<AnnotatedPath>& paths) {
  std::set<int> distinct;
  for (const AnnotatedPath& p : paths) {
    distinct.insert(p.candidate_indices.begin(), p.candidate_indices.end());
  }
  return distinct.size();
}

}  // namespace

StatusOr<Solution> MaximizeReliability(const UncertainGraph& g, NodeId s,
                                       NodeId t, const SolverOptions& options,
                                       CoreMethod method) {
  if (s >= g.num_nodes() || t >= g.num_nodes()) {
    return Status::OutOfRange("query node out of range");
  }
  if (s == t) {
    // Degenerate query: skip candidate elimination entirely — the answer is
    // known and paying the full elimination pass for it would be pure waste.
    return MaximizeReliabilityWithCandidates(g, s, t, CandidateSet{}, options,
                                             method);
  }
  WallTimer elimination_timer;
  auto candidates = SelectCandidates(g, s, t, options);
  RELMAX_RETURN_IF_ERROR(candidates.status());
  const double elimination_seconds = elimination_timer.ElapsedSeconds();

  auto solution =
      MaximizeReliabilityWithCandidates(g, s, t, *candidates, options, method);
  if (solution.ok()) {
    solution->stats.elimination_seconds = elimination_seconds;
    solution->stats.total_seconds += elimination_seconds;
  }
  return solution;
}

StatusOr<Solution> MaximizeReliabilityWithCandidates(
    const UncertainGraph& g, NodeId s, NodeId t, const CandidateSet& candidates,
    const SolverOptions& options, CoreMethod method) {
  if (s >= g.num_nodes() || t >= g.num_nodes()) {
    return Status::OutOfRange("query node out of range");
  }
  if (options.budget_k <= 0) {
    return Status::InvalidArgument("budget_k must be positive");
  }
  if (options.top_l <= 0) {
    return Status::InvalidArgument("top_l must be positive");
  }
  if (s == t) {  // degenerate query: reliability is already 1
    Solution solution;
    solution.reliability_before = 1.0;
    solution.reliability_after = 1.0;
    // Stats must stay populated on every return path — harness code reads
    // peak_rss_bytes / candidate_edges unconditionally.
    solution.stats.candidate_edges = candidates.edges.size();
    solution.stats.peak_rss_bytes = PeakRssBytes();
    return solution;
  }

  Solution solution;
  solution.stats.candidate_edges = candidates.edges.size();
  solution.reliability_before = EstimateWithOptions(g, s, t, options, 0xbefe);

  WallTimer selection_timer;
  if (method == CoreMethod::kMostReliablePath) {
    auto improvement = ImproveMostReliablePathWithCandidates(
        g, s, t, options.budget_k, candidates.edges);
    RELMAX_RETURN_IF_ERROR(improvement.status());
    solution.added_edges = improvement->added_edges;
  } else {
    // Paths and selection run in the search graph's compact ids, where s
    // and t are nodes 0 and 1; only the chosen indices map back.
    auto search = BuildSearchGraph(g, {s, t}, candidates);
    RELMAX_RETURN_IF_ERROR(search.status());
    const std::vector<AnnotatedPath> annotated = AnnotatePaths(
        search->graph, TopLReliablePaths(search->graph, 0, 1, options.top_l),
        search->candidates);
    solution.stats.paths_considered = annotated.size();
    solution.stats.candidate_edges_after_path_filter =
        CountDistinctCandidates(annotated);

    const std::vector<int> indices =
        method == CoreMethod::kBatchEdges
            ? SelectEdgesByPathBatches(search->graph, 0, 1, annotated, options)
            : SelectEdgesByIndividualPaths(search->graph, 0, 1, annotated,
                                           options);
    solution.added_edges.reserve(indices.size());
    for (int i : indices) solution.added_edges.push_back(candidates.edges[i]);
  }
  solution.stats.selection_seconds = selection_timer.ElapsedSeconds();
  solution.stats.total_seconds = solution.stats.selection_seconds;

  solution.reliability_after =
      solution.added_edges.empty()
          ? solution.reliability_before
          : EstimateWithOptions(AugmentGraph(g, solution.added_edges), s, t,
                                options, 0xafe);
  solution.stats.peak_rss_bytes = PeakRssBytes();
  return solution;
}

}  // namespace relmax
