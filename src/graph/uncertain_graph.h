#ifndef RELMAX_GRAPH_UNCERTAIN_GRAPH_H_
#define RELMAX_GRAPH_UNCERTAIN_GRAPH_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/status.h"

namespace relmax {

/// Node identifier. Nodes are dense integers in [0, num_nodes()).
using NodeId = uint32_t;

/// Dense logical-edge identifier in insertion order, shared by both stored
/// arcs of an undirected edge. Samplers key per-world edge state off this.
using EdgeId = uint32_t;

/// Sentinel for "no node".
inline constexpr NodeId kInvalidNode = static_cast<NodeId>(-1);

/// An adjacency entry: head node, existence probability, and the logical
/// edge id it belongs to. With the CSR layout this is a *materialized value*
/// assembled from the flat arrays, not a stored struct.
struct Arc {
  NodeId to;
  double prob;
  EdgeId edge_id;
};

/// An edge in external form. For undirected graphs the canonical form has
/// src < dst.
struct Edge {
  NodeId src;
  NodeId dst;
  double prob;

  bool operator==(const Edge& o) const {
    return src == o.src && dst == o.dst && prob == o.prob;
  }
};

/// Lightweight non-owning view over one node's arcs in the CSR arrays.
///
/// Dereferencing materializes an Arc by value from the structure-of-arrays
/// storage, so `for (const Arc& a : g.OutArcs(u))` keeps working unchanged
/// (the const reference binds to the per-iteration temporary). The view is
/// invalidated by any graph mutation, exactly like the reference the old
/// adjacency-list API returned.
class ArcSpan {
 public:
  class iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = Arc;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = Arc;

    iterator(const NodeId* heads, const double* probs, const EdgeId* edge_ids,
             size_t i)
        : heads_(heads), probs_(probs), edge_ids_(edge_ids), i_(i) {}

    Arc operator*() const { return {heads_[i_], probs_[i_], edge_ids_[i_]}; }
    iterator& operator++() {
      ++i_;
      return *this;
    }
    iterator operator++(int) {
      iterator copy = *this;
      ++i_;
      return copy;
    }
    bool operator==(const iterator& o) const { return i_ == o.i_; }
    bool operator!=(const iterator& o) const { return i_ != o.i_; }

   private:
    const NodeId* heads_;
    const double* probs_;
    const EdgeId* edge_ids_;
    size_t i_;
  };

  ArcSpan(const NodeId* heads, const double* probs, const EdgeId* edge_ids,
          size_t size)
      : heads_(heads), probs_(probs), edge_ids_(edge_ids), size_(size) {}

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  Arc operator[](size_t i) const {
    return {heads_[i], probs_[i], edge_ids_[i]};
  }
  iterator begin() const { return iterator(heads_, probs_, edge_ids_, 0); }
  iterator end() const { return iterator(heads_, probs_, edge_ids_, size_); }

 private:
  const NodeId* heads_;
  const double* probs_;
  const EdgeId* edge_ids_;
  size_t size_;
};

/// Borrowed pointers into one direction's CSR arrays — the idiom for hot
/// traversal loops, which fetch the view once and index the flat arrays
/// directly instead of calling OutArcs(u) per node:
///
///   const CsrView csr = g.OutCsr();
///   for (size_t i = csr.begin(u); i < csr.end(u); ++i) {
///     visit(csr.heads[i], csr.probs[i], csr.edge_ids[i]);
///   }
///
/// Arcs of node u occupy [offsets[u], offsets[u+1]) in increasing logical
/// edge-id order (identical to the old adjacency-list insertion order).
/// The view is invalidated by any graph mutation.
struct CsrView {
  const size_t* offsets = nullptr;  ///< n + 1 entries
  const NodeId* heads = nullptr;
  const double* probs = nullptr;
  const EdgeId* edge_ids = nullptr;

  size_t begin(NodeId u) const { return offsets[u]; }
  size_t end(NodeId u) const { return offsets[u + 1]; }
  ArcSpan arcs(NodeId u) const {
    const size_t b = offsets[u];
    return ArcSpan(heads + b, probs + b, edge_ids + b, offsets[u + 1] - b);
  }
};

/// An uncertain (probabilistic) graph G = (V, E, p): every edge e carries an
/// independent existence probability p(e) ∈ [0, 1] under possible-world
/// semantics (paper §2.1).
///
/// Storage is compressed-sparse-row (CSR): per direction, a flat offsets
/// array plus structure-of-arrays heads / probs / edge_ids, so traversal is
/// a linear scan with no per-node pointer chase. The in-direction CSR is
/// materialized only for directed graphs (undirected graphs serve InArcs
/// from the out arrays, which already hold both arc copies). Logical edges
/// additionally live in a flat by-EdgeId array (`EdgesById`, `EdgeProbs`)
/// with O(1) expected lookup through a hash index.
///
/// Dynamic insertion is still supported — the solvers repeatedly evaluate
/// augmented graphs G ∪ E1. Mutations append to the edge list and mark the
/// CSR stale; the next traversal rebuilds it in O(V + E). The rebuild is
/// internally synchronized (safe when several sampler threads first touch a
/// freshly augmented graph), but mutating concurrently with traversal is a
/// data race, as it always was. Undirected graphs store each edge as two
/// arcs but count it once in num_edges() and Edges().
class UncertainGraph {
 public:
  /// Creates a directed graph with n isolated nodes.
  static UncertainGraph Directed(NodeId n) { return UncertainGraph(n, true); }
  /// Creates an undirected graph with n isolated nodes.
  static UncertainGraph Undirected(NodeId n) {
    return UncertainGraph(n, false);
  }

  UncertainGraph(const UncertainGraph& other);
  UncertainGraph(UncertainGraph&& other) noexcept;
  UncertainGraph& operator=(const UncertainGraph& other);
  UncertainGraph& operator=(UncertainGraph&& other) noexcept;
  ~UncertainGraph() = default;

  bool directed() const { return directed_; }
  NodeId num_nodes() const { return num_nodes_; }
  /// Logical edge count (an undirected edge counts once).
  size_t num_edges() const { return edges_.size(); }

  /// Monotonic mutation counter: bumped by AddNode/AddEdge/UpdateEdgeProb
  /// (and by being assigned over). Samplers that precompute per-arc state
  /// compare this to detect that their caches went stale.
  uint64_t version() const { return version_; }

  /// Appends an isolated node and returns its id.
  NodeId AddNode();

  /// Adds edge (u, v) with probability p. Fails on self-loops, out-of-range
  /// endpoints, p outside [0, 1] (NaN included), or duplicate edges.
  Status AddEdge(NodeId u, NodeId v, double p);

  /// AddEdge's test of (u, v, p) without the duplicate check: OutOfRange for
  /// an endpoint outside [0, num_nodes()), InvalidArgument for a self-loop or
  /// a probability outside [0, 1] (NaN included). APIs that take edges to
  /// add later (candidate sets) validate them with it up front.
  Status ValidateEdge(NodeId u, NodeId v, double p) const;

  /// Replaces the probability of existing edge (u, v).
  Status UpdateEdgeProb(NodeId u, NodeId v, double p);

  /// True if edge (u, v) exists. For undirected graphs the orientation is
  /// ignored.
  bool HasEdge(NodeId u, NodeId v) const {
    return edge_index_.count(EdgeKey(u, v)) > 0;
  }

  /// Probability of edge (u, v), or nullopt if absent.
  std::optional<double> EdgeProb(NodeId u, NodeId v) const;

  /// Logical edge id of (u, v), or nullopt if absent.
  std::optional<EdgeId> EdgeIndexOf(NodeId u, NodeId v) const;

  /// Edge by logical id (canonical orientation).
  const Edge& EdgeById(EdgeId id) const { return edges_[id]; }

  /// All logical edges in insertion (id) order.
  const std::vector<Edge>& EdgesById() const { return edges_; }

  /// Structure-of-arrays probability vector indexed by EdgeId — the flat
  /// array world samplers iterate when flipping every logical edge once.
  const std::vector<double>& EdgeProbs() const { return edge_probs_; }

  /// Outgoing arcs of u (for undirected graphs: all incident arcs).
  ArcSpan OutArcs(NodeId u) const {
    EnsureCsr();
    const size_t b = out_offsets_[u];
    return ArcSpan(out_heads_.data() + b, out_probs_.data() + b,
                   out_edge_ids_.data() + b, out_offsets_[u + 1] - b);
  }

  /// Incoming arcs of u. For undirected graphs this equals OutArcs(u).
  ArcSpan InArcs(NodeId u) const {
    if (!directed_) return OutArcs(u);
    EnsureCsr();
    const size_t b = in_offsets_[u];
    return ArcSpan(in_heads_.data() + b, in_probs_.data() + b,
                   in_edge_ids_.data() + b, in_offsets_[u + 1] - b);
  }

  /// Flat out-direction CSR for hot loops (see CsrView). Rebuilds lazily if
  /// stale; the returned pointers are valid until the next mutation.
  CsrView OutCsr() const {
    EnsureCsr();
    return {out_offsets_.data(), out_heads_.data(), out_probs_.data(),
            out_edge_ids_.data()};
  }

  /// Flat in-direction CSR. For undirected graphs this is OutCsr().
  CsrView InCsr() const {
    if (!directed_) return OutCsr();
    EnsureCsr();
    return {in_offsets_.data(), in_heads_.data(), in_probs_.data(),
            in_edge_ids_.data()};
  }

  /// Canonical logical edge list sorted by (src, dst).
  std::vector<Edge> Edges() const;

  /// Sum of probabilities over arcs incident to u in both directions — the
  /// paper's "degree centrality" score (§3.3).
  double WeightedDegree(NodeId u) const;

  /// Graph with every arc reversed. Undirected graphs return a copy.
  UncertainGraph Transposed() const;

  /// Subgraph induced by `nodes` (ids are compacted in the given order).
  /// Duplicate ids are rejected.
  StatusOr<UncertainGraph> InducedSubgraph(
      const std::vector<NodeId>& nodes) const;

 private:
  UncertainGraph(NodeId n, bool directed)
      : directed_(directed), num_nodes_(n) {}

  // Canonical 64-bit key: directed keeps (u, v); undirected sorts endpoints.
  uint64_t EdgeKey(NodeId u, NodeId v) const {
    if (!directed_ && u > v) std::swap(u, v);
    return (static_cast<uint64_t>(u) << 32) | v;
  }

  // Double-checked lazy rebuild; cheap acquire load once the CSR is fresh.
  void EnsureCsr() const {
    if (!csr_stale_.load(std::memory_order_acquire)) return;
    RebuildCsr();
  }
  void RebuildCsr() const;
  void MarkStale() { csr_stale_.store(true, std::memory_order_release); }

  // One assignment list for all four special members: `other` is forwarded,
  // so member access moves from rvalues and copies from lvalues. Callers
  // hold the appropriate mutexes.
  template <typename Graph>
  void AssignFrom(Graph&& other);

  bool directed_ = false;
  NodeId num_nodes_ = 0;
  uint64_t version_ = 0;
  std::vector<Edge> edges_;        // canonical form, indexed by EdgeId
  std::vector<double> edge_probs_;  // SoA mirror of edges_[e].prob
  std::unordered_map<uint64_t, EdgeId> edge_index_;

  // CSR arrays, rebuilt lazily from edges_ under csr_mutex_. Arcs of node u
  // live in [offsets[u], offsets[u+1]) in increasing edge-id order — the
  // same per-node order the old adjacency lists had, so traversal-driven
  // RNG streams are bit-identical across the representation change.
  mutable std::vector<size_t> out_offsets_;
  mutable std::vector<NodeId> out_heads_;
  mutable std::vector<double> out_probs_;
  mutable std::vector<EdgeId> out_edge_ids_;
  mutable std::vector<size_t> in_offsets_;  // only populated when directed_
  mutable std::vector<NodeId> in_heads_;
  mutable std::vector<double> in_probs_;
  mutable std::vector<EdgeId> in_edge_ids_;
  mutable std::atomic<bool> csr_stale_{true};
  mutable std::mutex csr_mutex_;
};

}  // namespace relmax

#endif  // RELMAX_GRAPH_UNCERTAIN_GRAPH_H_
