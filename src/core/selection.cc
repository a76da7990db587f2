#include "core/selection.h"

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <unordered_map>

#include "core/evaluate.h"

namespace relmax {
namespace {

uint64_t PairKey(const UncertainGraph& g, NodeId u, NodeId v) {
  if (!g.directed() && u > v) std::swap(u, v);
  return (static_cast<uint64_t>(u) << 32) | v;
}

// Evaluates R(s, t) on the union subgraph of the given annotated paths by
// re-sampling fresh worlds (the reuse_worlds = false path; also the RSS
// estimator, whose stratified streams a shared world bank cannot replay).
double EvalPathSet(const UncertainGraph& g_plus, NodeId s, NodeId t,
                   const std::vector<AnnotatedPath>& paths,
                   const std::vector<int>& selected, int extra,
                   const SolverOptions& options, uint64_t salt) {
  PathUnionSubgraph subgraph(g_plus, s, t);
  for (int i : selected) subgraph.AddPath(paths[i].path);
  if (extra >= 0) subgraph.AddPath(paths[extra].path);
  return subgraph.Reliability(options, salt);
}

// One shared world set per solve when the options ask for it (and the
// estimator can honor it); nullptr falls back to per-evaluation sampling.
std::unique_ptr<PathSetEvaluator> MakeSharedEvaluator(
    const UncertainGraph& g_plus, NodeId s, NodeId t,
    const std::vector<AnnotatedPath>& paths, const SolverOptions& options) {
  if (!options.reuse_worlds || options.estimator != Estimator::kMonteCarlo) {
    return nullptr;
  }
  return std::make_unique<PathSetEvaluator>(g_plus, s, t, paths, options);
}

}  // namespace

std::vector<AnnotatedPath> AnnotatePaths(const UncertainGraph& g_plus,
                                         const std::vector<PathResult>& paths,
                                         const std::vector<Edge>& candidates) {
  std::unordered_map<uint64_t, int> index;
  index.reserve(candidates.size());
  for (int i = 0; i < static_cast<int>(candidates.size()); ++i) {
    index.emplace(PairKey(g_plus, candidates[i].src, candidates[i].dst), i);
  }
  std::vector<AnnotatedPath> out;
  out.reserve(paths.size());
  for (const PathResult& path : paths) {
    AnnotatedPath annotated;
    annotated.path = path;
    for (size_t i = 0; i + 1 < path.nodes.size(); ++i) {
      auto it = index.find(PairKey(g_plus, path.nodes[i], path.nodes[i + 1]));
      if (it != index.end()) annotated.candidate_indices.push_back(it->second);
    }
    std::sort(annotated.candidate_indices.begin(),
              annotated.candidate_indices.end());
    annotated.candidate_indices.erase(
        std::unique(annotated.candidate_indices.begin(),
                    annotated.candidate_indices.end()),
        annotated.candidate_indices.end());
    out.push_back(std::move(annotated));
  }
  return out;
}

UncertainGraph UnionOfSelectedPaths(const UncertainGraph& g,
                                    const std::vector<AnnotatedPath>& paths,
                                    const std::vector<int>& selected) {
  UncertainGraph union_graph = g.directed()
                                   ? UncertainGraph::Directed(g.num_nodes())
                                   : UncertainGraph::Undirected(g.num_nodes());
  for (int i : selected) {
    const std::vector<NodeId>& nodes = paths[i].path.nodes;
    for (size_t j = 0; j + 1 < nodes.size(); ++j) {
      const NodeId u = nodes[j];
      const NodeId v = nodes[j + 1];
      if (union_graph.HasEdge(u, v)) continue;
      const auto prob = g.EdgeProb(u, v);
      RELMAX_DCHECK(prob.has_value());
      (void)union_graph.AddEdge(u, v, *prob);
    }
  }
  return union_graph;
}

std::vector<PathBatch> BuildPathBatches(
    const std::vector<AnnotatedPath>& paths) {
  std::map<std::vector<int>, std::vector<int>> groups;
  for (int i = 0; i < static_cast<int>(paths.size()); ++i) {
    groups[paths[i].candidate_indices].push_back(i);
  }
  std::vector<PathBatch> batches;
  batches.reserve(groups.size());
  for (auto& [label, path_indices] : groups) {
    batches.push_back({label, std::move(path_indices)});
  }
  return batches;
}

std::vector<int> SelectEdgesByIndividualPaths(
    const UncertainGraph& g_plus, NodeId s, NodeId t,
    const std::vector<AnnotatedPath>& paths, const SolverOptions& options) {
  const int k = options.budget_k;
  std::unique_ptr<PathSetEvaluator> shared =
      MakeSharedEvaluator(g_plus, s, t, paths, options);
  std::set<int> chosen_edges;
  std::vector<int> selected;  // path indices forming P1
  std::vector<char> used(paths.size(), 0);

  // Line 5: paths with no candidate edges seed P1 for free.
  for (int i = 0; i < static_cast<int>(paths.size()); ++i) {
    if (paths[i].candidate_indices.empty()) {
      selected.push_back(i);
      used[i] = 1;
    }
  }

  uint64_t round = 0;
  while (static_cast<int>(chosen_edges.size()) < k) {
    ++round;
    int best = -1;
    double best_rel = -1.0;
    for (int i = 0; i < static_cast<int>(paths.size()); ++i) {
      if (used[i]) continue;
      // Budget feasibility: edges this path would newly commit.
      int fresh = 0;
      for (int e : paths[i].candidate_indices) fresh += !chosen_edges.count(e);
      if (static_cast<int>(chosen_edges.size()) + fresh > k) {
        used[i] = 1;  // line 11-16: drop paths that can no longer fit
        continue;
      }
      const double rel =
          shared != nullptr
              ? shared->Reliability(selected, i)
              : EvalPathSet(g_plus, s, t, paths, selected, i, options, round);
      if (rel > best_rel) {
        best_rel = rel;
        best = i;
      }
    }
    if (best < 0) break;
    used[best] = 1;
    selected.push_back(best);
    for (int e : paths[best].candidate_indices) chosen_edges.insert(e);
  }
  return {chosen_edges.begin(), chosen_edges.end()};
}

std::vector<int> SelectEdgesByPathBatchesObjective(
    const std::vector<AnnotatedPath>& paths, int budget_k,
    const PathSetObjective& objective) {
  std::vector<PathBatch> batches = BuildPathBatches(paths);
  std::set<int> chosen_edges;
  std::vector<int> selected;
  std::vector<char> batch_done(batches.size(), 0);

  // Label-free batches seed P1.
  for (size_t b = 0; b < batches.size(); ++b) {
    if (batches[b].label.empty()) {
      for (int i : batches[b].path_indices) selected.push_back(i);
      batch_done[b] = 1;
    }
  }

  auto subset_of = [](const std::vector<int>& label,
                      const std::set<int>& universe) {
    for (int e : label) {
      if (universe.count(e) == 0) return false;
    }
    return true;
  };

  uint64_t round = 0;
  while (static_cast<int>(chosen_edges.size()) < budget_k) {
    ++round;
    const double base_rel = objective(selected, round);

    int best = -1;
    double best_norm_gain = -1.0;
    std::vector<int> best_paths;
    std::set<int> best_edges;
    for (size_t b = 0; b < batches.size(); ++b) {
      if (batch_done[b]) continue;
      std::set<int> union_edges = chosen_edges;
      union_edges.insert(batches[b].label.begin(), batches[b].label.end());
      if (static_cast<int>(union_edges.size()) > budget_k) continue;
      const int fresh =
          static_cast<int>(union_edges.size() - chosen_edges.size());

      // Activation: every pending batch whose label fits in the union rides
      // along for free (Algorithm 6's subset rule).
      std::vector<int> paths_to_add;
      for (size_t c = 0; c < batches.size(); ++c) {
        if (batch_done[c] || !subset_of(batches[c].label, union_edges)) {
          continue;
        }
        paths_to_add.insert(paths_to_add.end(),
                            batches[c].path_indices.begin(),
                            batches[c].path_indices.end());
      }

      std::vector<int> trial = selected;
      trial.insert(trial.end(), paths_to_add.begin(), paths_to_add.end());
      const double rel = objective(trial, round);
      // Marginal gain normalized by the number of newly committed edges.
      const double norm_gain =
          (rel - base_rel) / static_cast<double>(std::max(1, fresh));
      if (norm_gain > best_norm_gain) {
        best_norm_gain = norm_gain;
        best = static_cast<int>(b);
        best_paths = std::move(paths_to_add);
        best_edges = std::move(union_edges);
      }
    }
    if (best < 0) break;

    chosen_edges = std::move(best_edges);
    for (int i : best_paths) selected.push_back(i);
    for (size_t c = 0; c < batches.size(); ++c) {
      if (!batch_done[c] && subset_of(batches[c].label, chosen_edges)) {
        batch_done[c] = 1;
      }
    }
  }
  return {chosen_edges.begin(), chosen_edges.end()};
}

std::vector<int> SelectEdgesByPathBatches(
    const UncertainGraph& g_plus, NodeId s, NodeId t,
    const std::vector<AnnotatedPath>& paths, const SolverOptions& options) {
  const std::unique_ptr<PathSetEvaluator> shared =
      MakeSharedEvaluator(g_plus, s, t, paths, options);
  return SelectEdgesByPathBatchesObjective(
      paths, options.budget_k,
      [&](const std::vector<int>& selected, uint64_t salt) {
        if (shared != nullptr) return shared->Reliability(selected);
        return EvalPathSet(g_plus, s, t, paths, selected, -1, options, salt);
      });
}

}  // namespace relmax
