#ifndef RELMAX_SAMPLING_WORLD_BANK_H_
#define RELMAX_SAMPLING_WORLD_BANK_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/uncertain_graph.h"
#include "sampling/bitlane.h"

namespace relmax {

/// A bank of Z possible worlds sampled **once** over a (small) graph's edge
/// universe, stored as an edges × worlds presence bit-matrix.
///
/// Greedy selection loops (BE/IP, hill climbing) estimate reliability on many
/// near-identical subgraphs of one universe; re-sampling worlds for every
/// (round × candidate) pair makes sampling the dominant cost. A WorldBank
/// pays the RNG cost once and evaluates connectivity for **all worlds at
/// once**: reachability is iterated to fixpoint with word-parallel bit
/// operations (`reach[v] |= reach[u] & up[e]`), so one machine word carries
/// 64 worlds and no per-world BFS ever runs. Because every candidate is
/// scored against the same worlds (common random numbers), greedy
/// marginal-gain comparisons within a round share sampling noise.
///
/// Storage is one flat, 64-byte-aligned bitlane::BitMatrix whose rows are
/// whole 512-bit lane blocks, so the fixpoint inner step moves a cache line
/// per operation and autovectorizes (see bitlane.h). The fixpoint itself is
/// frontier-driven: it tracks which lane blocks of which nodes changed last
/// pass and only re-propagates those, instead of re-sweeping every word of
/// every row until quiescence.
///
/// Determinism: the matrix is filled by the counter-seeded sharded executor
/// (sampling/parallel.h). Shard `i` owns worlds [i * kShardSamples, …) —
/// exactly bit-word `i` of every edge row, since kShardSamples == 64 — and
/// draws them from the stream seeded by ShardSeed(seed, i), so every bit is
/// a pure function of (edge probs, num_samples, seed): **bit-identical for
/// any num_threads**. Fixpoint answers are additionally invariant to the
/// lane kernel (scalar vs blocked/SIMD): the fixpoint of the monotone word
/// algebra is unique, so block scheduling cannot change the converged bits.
/// The bank is immutable after construction and safe to read from multiple
/// threads.
class WorldBank {
 public:
  struct Options {
    int num_samples = 500;
    uint64_t seed = 42;
    int num_threads = 1;
  };

  /// What ReachabilityFixpoint may assume about a reused `reach` matrix.
  ///
  /// kClearScratch (the default): `reach` is scratch; the flood wipes it
  /// and seeds only the source row. Use this unless you prepared `reach`.
  ///
  /// kSeedsAreFacts: every bit already set in `reach` is a known-reachable
  /// fact to propagate from (the caller pre-seeded rows, e.g. path-derived
  /// reachability). The flood must not clear them. If the matrix had to be
  /// reallocated to fit the requested shape, the seeds are gone and the
  /// flood degrades to kClearScratch semantics on a fresh matrix.
  enum class SeedPolicy { kClearScratch, kSeedsAreFacts };

  /// Samples `options.num_samples` worlds over `universe`'s edges. The
  /// universe graph must outlive the bank.
  WorldBank(const UncertainGraph& universe, const Options& options);

  /// Adopts pre-filled rows instead of sampling — the deserialization path
  /// (index/index_io.h), where `up` wraps an mmap-ed file section. `up` must
  /// hold universe.num_edges() rows of ceil(num_worlds / 64) logical words
  /// in the sampled layout (row e = edge e's world bitset, tail and pad bits
  /// zero). The bank never writes the matrix after construction, so a
  /// read-only external matrix is safe; whoever owns the underlying buffer
  /// must keep it alive for the bank's lifetime.
  WorldBank(const UncertainGraph& universe, int num_worlds,
            bitlane::BitMatrix up);

  int num_worlds() const { return num_worlds_; }
  const UncertainGraph& universe() const { return universe_; }

  /// Edge rows in the bank — the universe's edge count **at construction**.
  /// If the graph is mutated afterwards, universe().num_edges() can exceed
  /// this; bank readers must size loops by this count, never the graph's.
  size_t num_edges() const { return up_.rows(); }

  /// Words in a world-indexed bitset (ceil(num_worlds / 64)).
  size_t world_words() const { return world_words_; }

  /// World-indexed bitset: the worlds in which logical edge `e` exists.
  /// A view into the bank's row (world_words() words); valid as long as the
  /// bank lives.
  std::span<const uint64_t> EdgeUpWorlds(EdgeId e) const {
    return up_.row_span(e);
  }

  /// True iff edge e is up in world w.
  bool EdgePresent(int w, EdgeId e) const {
    return (EdgeUpWorlds(e)[static_cast<size_t>(w) >> 6] >> (w & 63)) & 1;
  }

  /// Computes, for every world simultaneously, which nodes are reachable
  /// from `source` using only `active` edges that are up in that world:
  /// on return `reach->row(v)` bit w is set iff v is reachable in world w.
  /// With `backward`, directed graphs propagate against arc direction
  /// (reachability *to* `source`). `*reach` is shaped to
  /// (num_nodes × world_words) and zeroed unless it already matches and
  /// `seeds == kSeedsAreFacts`. Iterating `active` in rough path order
  /// converges in ~2 passes.
  ///
  /// Returns the number of (edge, lane-block) propagation steps that
  /// actually added bits — 0 iff the seeded state was already a fixpoint.
  /// The frontier pass only revisits blocks dirtied since they were last
  /// relaxed, so a converged re-run touches each seeded block once and
  /// changes nothing.
  int64_t ReachabilityFixpoint(
      NodeId source, bool backward, const std::vector<EdgeId>& active,
      bitlane::BitMatrix* reach,
      SeedPolicy seeds = SeedPolicy::kClearScratch) const;

  /// Bitwise AND of the up-worlds of `edges` (all-ones when empty): the
  /// worlds in which every listed edge is simultaneously up.
  std::vector<uint64_t> WorldsWithAllEdges(
      const std::vector<EdgeId>& edges) const;

  /// Fraction of worlds where s reaches t over `active` edges. When
  /// `seed_connected` is non-empty (world_words() words), those worlds are
  /// counted as connected without flooding them again.
  double ConnectedFraction(NodeId s, NodeId t,
                           const std::vector<EdgeId>& active,
                           std::vector<uint64_t> seed_connected = {}) const;

  /// All bank edge ids, ascending — the "everything is active" edge set.
  std::vector<EdgeId> AllEdges() const;

  /// Popcount of the first `limit` bits of `bits`.
  static int64_t CountBits(std::span<const uint64_t> bits, size_t limit);

 private:
  const UncertainGraph& universe_;
  int num_worlds_;
  size_t world_words_;
  /// Row e = world bitset for edge e (bits beyond num_worlds stay zero,
  /// including the lane-block padding words — the fixpoint relies on it).
  bitlane::BitMatrix up_;
};

/// Telemetry for the shared-world fast path. Consumers that want a WorldBank
/// but exceed their footprint cap fall back to per-candidate / per-query
/// re-sampling — correct but much slower. Each such event calls
/// NoteBankFallback, which bumps a process-wide counter (surfaced as
/// `bank_fallbacks` in batch stats) and prints a one-line stderr warning so
/// operators can see they have fallen off the fast path. Callers that want
/// the fast path on a bigger graph raise the consumer's byte cap
/// (`max_bank_bytes` / `max_shared_world_bytes`).
void NoteBankFallback(const char* consumer, size_t wanted_bytes,
                      size_t cap_bytes);
int64_t BankFallbackCount();

}  // namespace relmax

#endif  // RELMAX_SAMPLING_WORLD_BANK_H_
