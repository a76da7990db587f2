#include "core/candidates.h"

#include <algorithm>
#include <unordered_set>

#include "core/evaluate.h"
#include "graph/bfs.h"

namespace relmax {
namespace {

// Top-r node ids by score (descending), zero-score nodes excluded,
// deterministic tie-break on id. `always_include` is forced in.
std::vector<NodeId> TopRNodes(const std::vector<double>& scores, int r,
                              NodeId always_include) {
  std::vector<NodeId> order;
  order.reserve(scores.size());
  for (NodeId v = 0; v < scores.size(); ++v) {
    if (scores[v] > 0.0 || v == always_include) order.push_back(v);
  }
  std::sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
    if (scores[a] != scores[b]) return scores[a] > scores[b];
    return a < b;
  });
  if (static_cast<int>(order.size()) > r) order.resize(r);
  if (std::find(order.begin(), order.end(), always_include) == order.end()) {
    order.back() = always_include;  // r slots, the anchor always qualifies
  }
  return order;
}

Status ValidateOptions(const SolverOptions& options) {
  if (options.top_r <= 0) {
    return Status::InvalidArgument("top_r must be positive");
  }
  if (options.zeta <= 0.0 || options.zeta > 1.0) {
    return Status::InvalidArgument("zeta must be in (0, 1]");
  }
  if (options.elimination_samples <= 0) {
    return Status::InvalidArgument("elimination_samples must be positive");
  }
  return Status::Ok();
}

// Emits missing (u, v) pairs from `from` × `to` honoring the h-hop
// constraint. Dedups undirected orientations.
std::vector<Edge> BuildCandidateEdges(const UncertainGraph& g,
                                      const std::vector<NodeId>& from,
                                      const std::vector<NodeId>& to,
                                      double zeta, int hop_h) {
  std::unordered_set<NodeId> target_set(to.begin(), to.end());
  std::unordered_set<uint64_t> emitted;
  std::vector<Edge> edges;
  for (NodeId u : from) {
    // One truncated BFS per source-side node covers the h-hop test for all
    // of C(t) at once.
    std::vector<int> dist;
    if (hop_h >= 0) dist = UndirectedHopDistances(g, u, hop_h);
    for (NodeId v : to) {
      if (u == v || g.HasEdge(u, v)) continue;
      if (hop_h >= 0 && (dist[v] == kUnreachable || dist[v] > hop_h)) continue;
      uint64_t key = (static_cast<uint64_t>(u) << 32) | v;
      if (!g.directed()) {
        const NodeId lo = std::min(u, v);
        const NodeId hi = std::max(u, v);
        key = (static_cast<uint64_t>(lo) << 32) | hi;
      }
      if (emitted.insert(key).second) edges.push_back({u, v, zeta});
    }
  }
  return edges;
}

}  // namespace

StatusOr<CandidateSet> SelectCandidates(const UncertainGraph& g, NodeId s,
                                        NodeId t,
                                        const SolverOptions& options) {
  if (s >= g.num_nodes() || t >= g.num_nodes()) {
    return Status::OutOfRange("query node out of range");
  }
  RELMAX_RETURN_IF_ERROR(ValidateOptions(options));

  CandidateSet result;
  result.from_source =
      TopRNodes(FromSourceWithOptions(g, s, options), options.top_r, s);
  result.to_target =
      TopRNodes(ToTargetWithOptions(g, t, options), options.top_r, t);
  result.edges = BuildCandidateEdges(g, result.from_source, result.to_target,
                                     options.zeta, options.hop_h);
  return result;
}

StatusOr<CandidateSet> SelectCandidatesMulti(
    const UncertainGraph& g, const std::vector<NodeId>& sources,
    const std::vector<NodeId>& targets, const SolverOptions& options) {
  if (sources.empty() || targets.empty()) {
    return Status::InvalidArgument("sources and targets must be non-empty");
  }
  for (NodeId v : sources) {
    if (v >= g.num_nodes()) return Status::OutOfRange("source out of range");
  }
  for (NodeId v : targets) {
    if (v >= g.num_nodes()) return Status::OutOfRange("target out of range");
  }
  RELMAX_RETURN_IF_ERROR(ValidateOptions(options));

  CandidateSet result;
  std::unordered_set<NodeId> from_set;
  uint64_t salt = 101;
  for (NodeId s : sources) {
    for (NodeId v :
         TopRNodes(FromSourceWithOptions(g, s, options, salt++),
                   options.top_r, s)) {
      if (from_set.insert(v).second) result.from_source.push_back(v);
    }
  }
  std::unordered_set<NodeId> to_set;
  for (NodeId t : targets) {
    for (NodeId v : TopRNodes(ToTargetWithOptions(g, t, options, salt++),
                              options.top_r, t)) {
      if (to_set.insert(v).second) result.to_target.push_back(v);
    }
  }
  result.edges = BuildCandidateEdges(g, result.from_source, result.to_target,
                                     options.zeta, options.hop_h);
  return result;
}

StatusOr<SearchGraph> BuildSearchGraph(const UncertainGraph& g,
                                       const std::vector<NodeId>& query_nodes,
                                       const CandidateSet& candidates) {
  for (const Edge& e : candidates.edges) {
    RELMAX_RETURN_IF_ERROR(g.ValidateEdge(e.src, e.dst, e.prob));
  }
  for (const std::vector<NodeId>* list :
       {&query_nodes, &candidates.from_source, &candidates.to_target}) {
    for (NodeId v : *list) {
      if (v >= g.num_nodes()) {
        return Status::OutOfRange("search-graph node out of range");
      }
    }
  }
  SearchGraph search;
  search.compact_id.assign(g.num_nodes(), kInvalidNode);
  auto push = [&](NodeId v) {
    if (search.compact_id[v] != kInvalidNode) return;
    search.compact_id[v] = static_cast<NodeId>(search.nodes.size());
    search.nodes.push_back(v);
  };
  for (NodeId v : query_nodes) push(v);
  for (NodeId v : candidates.from_source) push(v);
  for (NodeId v : candidates.to_target) push(v);
  for (const Edge& e : candidates.edges) {
    push(e.src);
    push(e.dst);
  }
  const NodeId k = static_cast<NodeId>(search.nodes.size());
  search.candidates.reserve(candidates.edges.size());
  for (const Edge& e : candidates.edges) {
    search.candidates.push_back(
        {search.compact_id[e.src], search.compact_id[e.dst], e.prob});
  }

  // Candidate indices by compact tail (both ends when undirected), in
  // candidate order: where AugmentGraph's appended edges sit in each node's
  // CSR run, after the node's own arcs.
  std::vector<std::vector<int>> candidate_arcs(k);
  for (int i = 0; i < static_cast<int>(search.candidates.size()); ++i) {
    candidate_arcs[search.candidates[i].src].push_back(i);
    if (!g.directed()) candidate_arcs[search.candidates[i].dst].push_back(i);
  }

  // Node by node, g's in-set arcs and then the candidate arcs. A pair that
  // is already present (the second arc of an undirected edge, a candidate
  // duplicating an edge or an earlier candidate) is skipped, exactly as
  // AugmentGraph and InducedSubgraph skip it.
  search.graph = g.directed() ? UncertainGraph::Directed(k)
                              : UncertainGraph::Undirected(k);
  const CsrView csr = g.OutCsr();
  auto add = [&](NodeId u, NodeId v, double p) {
    if (search.graph.HasEdge(u, v)) return;
    const Status st = search.graph.AddEdge(u, v, p);
    RELMAX_DCHECK(st.ok());
    (void)st;
  };
  for (NodeId u = 0; u < k; ++u) {
    const NodeId orig = search.nodes[u];
    for (size_t a = csr.begin(orig); a < csr.end(orig); ++a) {
      const NodeId v = search.compact_id[csr.heads[a]];
      if (v != kInvalidNode) add(u, v, csr.probs[a]);
    }
    for (int i : candidate_arcs[u]) {
      const Edge& e = search.candidates[i];
      add(u, e.src == u ? e.dst : e.src, e.prob);
    }
  }
  return search;
}

std::vector<Edge> AllMissingEdges(const UncertainGraph& g, double zeta,
                                  int hop_h) {
  std::vector<Edge> edges;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    std::vector<int> dist;
    if (hop_h >= 0) dist = UndirectedHopDistances(g, u, hop_h);
    const NodeId v_begin = g.directed() ? 0 : u + 1;
    for (NodeId v = v_begin; v < g.num_nodes(); ++v) {
      if (u == v || g.HasEdge(u, v)) continue;
      if (hop_h >= 0 && (dist[v] == kUnreachable || dist[v] > hop_h)) continue;
      edges.push_back({u, v, zeta});
    }
  }
  return edges;
}

}  // namespace relmax
