#include "paths/layered_mrp.h"

#include <algorithm>
#include <queue>

namespace relmax {
namespace {

struct RedArc {
  NodeId to;
  double prob;
  int candidate_index;
};

struct HeapEntry {
  double prob;
  uint64_t state;  // layer * n + node
  bool operator<(const HeapEntry& o) const { return prob < o.prob; }
};

}  // namespace

StatusOr<MrpImprovement> ImproveMostReliablePathWithCandidates(
    const UncertainGraph& g, NodeId s, NodeId t, int k,
    const std::vector<Edge>& candidates) {
  const NodeId n = g.num_nodes();
  if (s >= n || t >= n) return Status::OutOfRange("query node out of range");
  if (k < 0) return Status::InvalidArgument("budget k must be non-negative");
  for (const Edge& e : candidates) {
    RELMAX_RETURN_IF_ERROR(g.ValidateEdge(e.src, e.dst, e.prob));
  }

  // Red adjacency; undirected graphs can traverse a candidate either way.
  std::vector<std::vector<RedArc>> red(n);
  for (int i = 0; i < static_cast<int>(candidates.size()); ++i) {
    const Edge& e = candidates[i];
    red[e.src].push_back({e.dst, e.prob, i});
    if (!g.directed()) red[e.dst].push_back({e.src, e.prob, i});
  }

  const int layers = k + 1;
  const uint64_t num_states = static_cast<uint64_t>(layers) * n;
  std::vector<double> best(num_states, 0.0);
  // Predecessor state and the red candidate used to get here (-1 = blue arc).
  std::vector<uint64_t> parent(num_states, static_cast<uint64_t>(-1));
  std::vector<int> via_red(num_states, -1);

  auto state_of = [n](int layer, NodeId v) {
    return static_cast<uint64_t>(layer) * n + v;
  };

  std::priority_queue<HeapEntry> heap;
  best[state_of(0, s)] = 1.0;
  heap.push({1.0, state_of(0, s)});
  while (!heap.empty()) {
    const auto [prob, state] = heap.top();
    heap.pop();
    if (prob < best[state]) continue;  // stale
    const int layer = static_cast<int>(state / n);
    const NodeId u = static_cast<NodeId>(state % n);

    for (const Arc& arc : g.OutArcs(u)) {  // blue: stay in layer
      if (arc.prob <= 0.0) continue;
      const uint64_t next = state_of(layer, arc.to);
      const double candidate_prob = prob * arc.prob;
      if (candidate_prob > best[next]) {
        best[next] = candidate_prob;
        parent[next] = state;
        via_red[next] = -1;
        heap.push({candidate_prob, next});
      }
    }
    if (layer + 1 < layers) {
      for (const RedArc& arc : red[u]) {  // red: advance one layer
        if (arc.prob <= 0.0) continue;
        const uint64_t next = state_of(layer + 1, arc.to);
        const double candidate_prob = prob * arc.prob;
        if (candidate_prob > best[next]) {
          best[next] = candidate_prob;
          parent[next] = state;
          via_red[next] = arc.candidate_index;
          heap.push({candidate_prob, next});
        }
      }
    }
  }

  MrpImprovement result;
  result.base_probability = best[state_of(0, t)];

  // Best terminal state over all layers; ties prefer fewer red edges, which
  // also makes "no improvement possible" collapse onto layer 0.
  int best_layer = 0;
  double best_prob = best[state_of(0, t)];
  for (int j = 1; j < layers; ++j) {
    if (best[state_of(j, t)] > best_prob) {
      best_prob = best[state_of(j, t)];
      best_layer = j;
    }
  }
  if (best_prob <= 0.0) return result;  // t unreachable even with additions

  result.best_path.probability = best_prob;
  for (uint64_t state = state_of(best_layer, t);
       state != static_cast<uint64_t>(-1); state = parent[state]) {
    result.best_path.nodes.push_back(static_cast<NodeId>(state % n));
    if (via_red[state] >= 0) {
      result.added_edges.push_back(candidates[via_red[state]]);
    }
    if (state == state_of(0, s)) break;
  }
  std::reverse(result.best_path.nodes.begin(), result.best_path.nodes.end());
  std::reverse(result.added_edges.begin(), result.added_edges.end());
  result.improved = best_prob > result.base_probability;
  return result;
}

}  // namespace relmax
