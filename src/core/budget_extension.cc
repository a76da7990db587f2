#include "core/budget_extension.h"

#include <algorithm>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "core/candidates.h"
#include "core/evaluate.h"
#include "core/selection.h"
#include "paths/yen.h"
#include "sampling/reliability.h"

namespace relmax {
namespace {

uint64_t PairKey(const UncertainGraph& g, NodeId u, NodeId v) {
  if (!g.directed() && u > v) std::swap(u, v);
  return (static_cast<uint64_t>(u) << 32) | v;
}

}  // namespace

StatusOr<BudgetedSolution> MaximizeReliabilityWithProbabilityBudget(
    const UncertainGraph& g, NodeId s, NodeId t,
    const BudgetOptions& budget_options, const SolverOptions& options) {
  if (s >= g.num_nodes() || t >= g.num_nodes()) {
    return Status::OutOfRange("query node out of range");
  }
  if (budget_options.total_budget <= 0.0) {
    return Status::InvalidArgument("total_budget must be positive");
  }
  if (budget_options.max_edges <= 0 || budget_options.units <= 0) {
    return Status::InvalidArgument("max_edges and units must be positive");
  }
  if (budget_options.max_edge_prob <= 0.0 ||
      budget_options.max_edge_prob > 1.0) {
    return Status::InvalidArgument("max_edge_prob must be in (0, 1]");
  }

  BudgetedSolution solution;
  solution.reliability_before = EstimateWithOptions(g, s, t, options, 0xb0d);
  if (s == t) {
    solution.reliability_before = 1.0;
    solution.reliability_after = 1.0;
    return solution;
  }

  // Candidate edges via the standard elimination; the optimistic cap
  // probability is used for path discovery (a path matters if it *could*
  // matter under the best allocation).
  SolverOptions elimination_options = options;
  elimination_options.zeta = budget_options.max_edge_prob;
  auto candidates = SelectCandidates(g, s, t, elimination_options);
  RELMAX_RETURN_IF_ERROR(candidates.status());

  // Paths and the skeleton live in the search graph's compact ids, where s
  // and t are nodes 0 and 1.
  auto search = BuildSearchGraph(g, {s, t}, *candidates);
  RELMAX_RETURN_IF_ERROR(search.status());
  const UncertainGraph& sub = search->graph;
  const std::vector<PathResult> paths =
      TopLReliablePaths(sub, 0, 1, options.top_l);
  if (paths.empty()) {
    solution.reliability_after = solution.reliability_before;
    return solution;
  }

  // Candidate lookup and the evaluation skeleton: the union of all path
  // edges, with candidate edges' probabilities supplied by the allocation.
  std::unordered_map<uint64_t, int> candidate_index;
  for (int i = 0; i < static_cast<int>(search->candidates.size()); ++i) {
    const Edge& c = search->candidates[i];
    candidate_index.emplace(PairKey(sub, c.src, c.dst), i);
  }
  struct SkeletonEdge {
    NodeId src;
    NodeId dst;
    double base_prob;      // probability for non-candidate edges
    int candidate = -1;    // allocation index for candidate edges
  };
  std::vector<SkeletonEdge> skeleton;
  std::unordered_map<NodeId, NodeId> remap;
  std::unordered_set<uint64_t> skeleton_keys;
  auto map_node = [&](NodeId v) {
    auto [it, inserted] = remap.emplace(v, static_cast<NodeId>(remap.size()));
    return it->second;
  };
  const NodeId sub_s = map_node(0);
  const NodeId sub_t = map_node(1);
  std::set<int> relevant;  // candidate indices on any top-l path
  for (const PathResult& path : paths) {
    for (size_t i = 0; i + 1 < path.nodes.size(); ++i) {
      const NodeId u = path.nodes[i];
      const NodeId v = path.nodes[i + 1];
      const uint64_t key = PairKey(sub, u, v);
      if (!skeleton_keys.insert(key).second) continue;
      SkeletonEdge edge{map_node(u), map_node(v), 0.0, -1};
      auto cand = candidate_index.find(key);
      if (cand != candidate_index.end()) {
        edge.candidate = cand->second;
        relevant.insert(cand->second);
      } else {
        const auto prob = sub.EdgeProb(u, v);
        RELMAX_DCHECK(prob.has_value());
        edge.base_prob = *prob;
      }
      skeleton.push_back(edge);
    }
  }

  std::unordered_map<int, double> allocation;  // candidate -> probability
  auto evaluate = [&](const std::unordered_map<int, double>& alloc,
                      uint64_t salt) {
    UncertainGraph eval =
        g.directed() ? UncertainGraph::Directed(
                           static_cast<NodeId>(remap.size()))
                     : UncertainGraph::Undirected(
                           static_cast<NodeId>(remap.size()));
    for (const SkeletonEdge& e : skeleton) {
      double p = e.base_prob;
      if (e.candidate >= 0) {
        auto it = alloc.find(e.candidate);
        p = it == alloc.end() ? 0.0 : it->second;
      }
      if (p <= 0.0) continue;
      (void)eval.AddEdge(e.src, e.dst, p);
    }
    SolverOptions eval_options = options;
    return EstimateWithOptions(eval, sub_s, sub_t, eval_options, salt);
  };

  const double unit =
      budget_options.total_budget / static_cast<double>(budget_options.units);
  double remaining = budget_options.total_budget;
  uint64_t round = 0;
  while (remaining > 1e-12) {
    ++round;
    const double current = evaluate(allocation, round);
    int best = -1;
    double best_gain = 0.0;
    for (int c : relevant) {
      const auto it = allocation.find(c);
      const double now = it == allocation.end() ? 0.0 : it->second;
      if (now == 0.0 &&
          static_cast<int>(allocation.size()) >= budget_options.max_edges) {
        continue;  // cannot open another distinct edge
      }
      const double bumped =
          std::min(now + std::min(unit, remaining),
                   budget_options.max_edge_prob);
      if (bumped <= now + 1e-12) continue;  // already at the cap
      std::unordered_map<int, double> trial = allocation;
      trial[c] = bumped;
      const double gain = evaluate(trial, round) - current;
      if (best < 0 || gain > best_gain) {
        best_gain = gain;
        best = c;
      }
    }
    // Stop only when no candidate can accept more mass. A best gain at or
    // below zero is not a stop signal: an individual unit's marginal gain
    // can drown in sampling noise even though the accumulated allocation
    // helps, so the budget is always placed on the current argmax.
    if (best < 0) break;
    const double now =
        allocation.count(best) > 0 ? allocation[best] : 0.0;
    const double bumped = std::min(now + std::min(unit, remaining),
                                   budget_options.max_edge_prob);
    remaining -= bumped - now;
    allocation[best] = bumped;
  }

  for (const auto& [c, p] : allocation) {
    Edge edge = candidates->edges[c];
    edge.prob = p;
    solution.added_edges.push_back(edge);
    solution.budget_used += p;
  }
  std::sort(solution.added_edges.begin(), solution.added_edges.end(),
            [](const Edge& a, const Edge& b) {
              return a.src != b.src ? a.src < b.src : a.dst < b.dst;
            });
  solution.reliability_after =
      solution.added_edges.empty()
          ? solution.reliability_before
          : EstimateWithOptions(AugmentGraph(g, solution.added_edges), s, t,
                                options, 0xb0d);
  return solution;
}

}  // namespace relmax
