#ifndef RELMAX_INDEX_RELIABILITY_INDEX_H_
#define RELMAX_INDEX_RELIABILITY_INDEX_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "graph/uncertain_graph.h"
#include "sampling/world_bank.h"

namespace relmax {

/// Offline per-world connectivity index over a WorldBank: answers
/// R(s, t) = |{worlds where t is reachable from s}| / Z with **no flood at
/// query time**.
///
/// The flood-per-source engine (PR 5) pays O(E · Z/64 · passes) per distinct
/// source; under random-pair workloads almost every query is a new source and
/// batching amortizes nothing. Following the indexing insight of Sasaki et
/// al. (PAPERS.md) — precompute structure over the sampled worlds once,
/// answer repeated queries from the digest — this index labels every world's
/// connectivity offline:
///
/// **Undirected:** each world w gets exact connected-component labels
/// (union-find per world at build time). Labels are stored as B =
/// ceil(log2 n) *bitplanes* packed across 64-world lanes: plane b of node v
/// is a Z-bit row whose bit w is bit b of v's component label in world w.
/// Then "s and t share a component in world w" for all Z worlds at once is
/// `~OR_b(plane_b(s) XOR plane_b(t))`, a B · Z/64 word sweep ending in a
/// popcount — O(Z/64 · log n) per query, no graph traversal.
///
/// **Directed:** per-world SCC condensation labels (iterative Tarjan per
/// world), stored in the same bitplane layout. SCC equality gives the worlds
/// where s and t are mutually reachable; when that covers every world the
/// query is answered outright (R = 1). Residual one-way reachability comes
/// from a lazily cached per-source reach row: the first query from source s
/// runs one word-parallel flood over the bank and memoizes all n target rows,
/// so subsequent queries from s are single-row popcounts. Rows are evicted
/// FIFO under `Options::max_reach_bytes`.
///
/// **Bit purity:** every answer equals the shared-flood path over the same
/// bank, bit for bit — components/SCCs and floods are exact per world, so the
/// connected-worlds bitsets are identical, not just statistically close.
///
/// **Incremental maintenance:** after a graph mutation the owner rebuilds the
/// bank (bank bits are a pure function of (probs, Z, seed), so the rebuilt
/// bank is bit-identical to a fresh engine's) and calls ApplyBankUpdate with
/// the affected-world mask from DiffWorlds — the XOR of old and new edge
/// rows. Only the affected worlds' label columns are recomputed; unaffected
/// worlds keep their labels untouched. A single-edge probability nudge
/// typically flips a small fraction of worlds, so relabeling — the expensive
/// part — scales with the size of the change, not with Z.
///
/// Determinism: labels are filled by the counter-seeded sharded executor
/// (shard i owns bit-word i of every plane), and per-world labeling is
/// canonical (components numbered by first appearance in node order), so the
/// whole index is a pure function of the bank bits — bit-identical for any
/// num_threads. Queries never depend on cache state: eviction changes which
/// floods re-run, never their results.
///
class ReliabilityIndex {
 public:
  struct Options {
    /// Cap on the label-plane footprint (n · ceil(log2 n) · Z bits). Above
    /// it, construction refuses (Fits() returns false) — callers keep the
    /// flood path instead.
    size_t max_label_bytes = size_t{128} << 20;
    /// Cap on the directed lazy reach-row cache (n · Z bits per source).
    /// Oldest sources are evicted first.
    size_t max_reach_bytes = size_t{64} << 20;
    /// Lanes used while (re)labeling; <= 0 means all hardware threads. The
    /// stored bits do not depend on it.
    int num_threads = 1;
  };

  /// Build/maintenance accounting. builds / incremental_updates /
  /// worlds_relabeled / last_update_worlds are monotonic over the index
  /// lifetime. The reach_* counters describe the directed lazy reach cache
  /// **since it was last dropped**: ApplyBankUpdate clears the cache (its
  /// rows mixed pre-update worlds) and resets all three, so after an
  /// incremental update they match a fresh build's counters instead of
  /// carrying floods that served the previous bank.
  struct Stats {
    /// Full builds (constructor).
    size_t builds = 0;
    /// ApplyBankUpdate calls that kept unaffected worlds.
    size_t incremental_updates = 0;
    /// Worlds relabeled across all builds and updates.
    size_t worlds_relabeled = 0;
    /// Worlds relabeled by the most recent ApplyBankUpdate.
    size_t last_update_worlds = 0;
    /// Directed lazy floods actually run (one per uncached source).
    size_t reach_floods = 0;
    /// Directed reach rows currently cached / evicted so far.
    size_t reach_rows_cached = 0;
    size_t reach_row_evictions = 0;
  };

  /// Labels every world in `bank`. The bank (and its universe graph) must
  /// outlive the index or be replaced via ApplyBankUpdate. Callers should
  /// check Fits() first; an over-cap build is a programmer error (CHECK).
  explicit ReliabilityIndex(const WorldBank& bank, const Options& options);

  /// Restores an index from previously saved label planes instead of
  /// relabeling — the deserialization path (index/index_io.h). `labels` must
  /// be the label_words() of an index built over a bit-identical bank (same
  /// universe shape, worlds, and draw stream; the load path validates this
  /// via the file's digest key before calling). The restored index answers
  /// bit-identically to the one that was saved; stats().builds and
  /// stats().worlds_relabeled stay 0 to record that no labeling ran.
  static std::unique_ptr<ReliabilityIndex> FromSavedLabels(
      const WorldBank& bank, const Options& options,
      std::vector<uint64_t> labels);

  /// Whether the label planes for (g, num_samples) fit under
  /// `options.max_label_bytes`.
  static bool Fits(const UncertainGraph& g, int num_samples,
                   const Options& options);

  /// Label-plane bytes for (num_nodes, num_samples).
  static size_t LabelBytes(NodeId num_nodes, int num_samples);

  /// R(s, t): fraction of worlds where t is reachable from s. Non-const
  /// because directed queries may populate the lazy reach cache; answers are
  /// independent of cache state.
  double Query(NodeId s, NodeId t);

  /// World-indexed bitset with bit w set iff t is reachable from s in world
  /// w — bit-identical to ReachabilityFixpoint over the same bank.
  std::vector<uint64_t> ConnectedWorlds(NodeId s, NodeId t);

  /// Relabels exactly the worlds set in `affected` (world-indexed bitset)
  /// against `fresh`, keeping every other world's labels. `fresh` must have
  /// the same num_worlds and universe num_nodes as the indexed bank (edges
  /// may have been appended) and replaces it as the index's bank; the
  /// directed reach cache is dropped. Pass DiffWorlds(old, fresh) to get the
  /// exact mask.
  void ApplyBankUpdate(const WorldBank& fresh,
                       const std::vector<uint64_t>& affected);

  /// Worlds whose edge presence differs between the banks: XOR of the up
  /// rows of every common edge, plus the up row of every edge only in
  /// `fresh` (appended after the old bank was sampled). Banks must have the
  /// same num_worlds.
  static std::vector<uint64_t> DiffWorlds(const WorldBank& old_bank,
                                          const WorldBank& fresh);

  int num_worlds() const { return num_worlds_; }
  /// Bitplanes per node (ceil(log2 num_nodes); 0 for a 1-node graph).
  int label_bits() const { return label_bits_; }
  /// Bytes held by the label planes.
  size_t label_bytes() const { return labels_.size() * sizeof(uint64_t); }
  /// The raw label planes (plane b of node v starts at word
  /// (v * label_bits() + b) * world_words) — what index_io serializes and
  /// FromSavedLabels restores.
  std::span<const uint64_t> label_words() const { return labels_; }
  /// Bytes held by the directed reach-row cache right now.
  size_t reach_cache_bytes() const;
  const Stats& stats() const { return stats_; }

 private:
  // Tag for the label-adopting constructor behind FromSavedLabels.
  struct AdoptLabels {};
  ReliabilityIndex(const WorldBank& bank, const Options& options,
                   std::vector<uint64_t> labels, AdoptLabels);

  // Recomputes the label columns of every world set in `mask` from bank_.
  // Affected bits are cleared first; other worlds' bits are untouched.
  void RelabelWorlds(const std::vector<uint64_t>& mask);

  // Flat reach rows (n · world_words words) for `s`, flooding on first use.
  const std::vector<uint64_t>& SourceReach(NodeId s);

  // OR_b(plane_b(s) XOR plane_b(t)) complemented and tail-masked: the worlds
  // where s and t carry equal labels.
  std::vector<uint64_t> EqualLabelWorlds(NodeId s, NodeId t) const;

  const WorldBank* bank_;  // replaced by ApplyBankUpdate
  Options options_;
  NodeId num_nodes_;
  int num_worlds_;
  size_t world_words_;
  int label_bits_;
  bool directed_;
  // Plane b of node v is the world_words_-word row starting at
  // labels_[(v * label_bits_ + b) * world_words_].
  std::vector<uint64_t> labels_;
  std::vector<EdgeId> all_edges_;
  // Directed lazy per-source reach rows: n rows of world_words_ words, flat.
  std::unordered_map<NodeId, std::vector<uint64_t>> reach_cache_;
  std::deque<NodeId> reach_order_;
  Stats stats_;
};

}  // namespace relmax

#endif  // RELMAX_INDEX_RELIABILITY_INDEX_H_
