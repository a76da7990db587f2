#include "sampling/world_bank.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>

#include "common/logging.h"
#include "common/rng.h"
#include "sampling/parallel.h"

namespace relmax {
namespace {

// Same integer-threshold encoding as the MC kernel (sampling/reliability.cc):
// ceil(p * 2^53) <= 2^53 for p < 1, so anything above 2^53 marks "up without
// drawing" (p >= 1); 0 marks "down without drawing" (p <= 0). For p in (0,1),
// `(Next() >> 11) < threshold` is exactly `NextDouble() < p` and consumes the
// same single draw, so the bank's bits stay bit-identical to the
// NextBernoulli fill it replaces.
constexpr uint64_t kP53 = uint64_t{1} << 53;
constexpr uint64_t kAlwaysUp = kP53 + 1;

}  // namespace

WorldBank::WorldBank(const UncertainGraph& universe, const Options& options)
    : universe_(universe),
      num_worlds_(options.num_samples),
      world_words_((static_cast<size_t>(options.num_samples) + 63) / 64),
      up_(universe.num_edges(), world_words_) {
  RELMAX_CHECK(options.num_samples > 0);
  // Shard i covers worlds [i * kShardSamples, …): with kShardSamples == 64
  // that is exactly bit-word i of every edge row, so shards never write the
  // same word and the fill is race-free without atomics.
  static_assert(kShardSamples == 64,
                "the word-per-shard bank fill requires 64-world shards");
  const size_t num_edges = universe.num_edges();
  // Flat structure-of-arrays probability vector, pre-folded into integer
  // thresholds so the inner loop compares a raw draw against a constant
  // instead of branching on a double inside NextBernoulli.
  const double* const probs = universe.EdgeProbs().data();
  std::vector<uint64_t> thresholds(num_edges);
  for (size_t e = 0; e < num_edges; ++e) {
    const double p = probs[e];
    thresholds[e] = p <= 0.0   ? 0
                    : p >= 1.0 ? kAlwaysUp
                               : static_cast<uint64_t>(std::ceil(p * 0x1p53));
  }
  const uint64_t* const thr = thresholds.data();
  const std::vector<SampleShard> shards =
      MakeSampleShards(options.num_samples, options.seed);
  struct FillContext {
    Rng rng{0};
    // One word per edge: the shard's 64 worlds for that edge, accumulated
    // contiguously and scattered into the rows once per shard instead of
    // once per draw.
    std::vector<uint64_t> col;
  };
  ForEachShard(
      shards.size(), options.num_threads,
      [num_edges] {
        auto context = std::make_unique<FillContext>();
        context->col.resize(num_edges);
        return context;
      },
      [&](std::unique_ptr<FillContext>& context, size_t i) {
        context->rng.Reseed(shards[i].seed);
        Rng& rng = context->rng;
        uint64_t* const col = context->col.data();
        std::fill_n(col, num_edges, uint64_t{0});
        for (int sample = 0; sample < shards[i].num_samples; ++sample) {
          const uint64_t bit = uint64_t{1} << sample;
          for (size_t e = 0; e < num_edges; ++e) {
            const uint64_t t = thr[e];
            // The two degenerate categories take no draw (NextBernoulli's
            // contract) and branch perfectly predictably — the threshold
            // pattern repeats identically every sample. The live category is
            // branch-free on the draw, which is the bit that used to
            // mispredict ~min(p, 1-p) of the time.
            if (t == 0) continue;
            if (t > kP53) {
              col[e] |= bit;
              continue;
            }
            col[e] |= ((rng.Next() >> 11) < t) ? bit : 0;
          }
        }
        const size_t word = static_cast<size_t>(shards[i].index);
        for (size_t e = 0; e < num_edges; ++e) up_.row(e)[word] = col[e];
      },
      [](std::unique_ptr<FillContext>&) {});
}

WorldBank::WorldBank(const UncertainGraph& universe, int num_worlds,
                     bitlane::BitMatrix up)
    : universe_(universe),
      num_worlds_(num_worlds),
      world_words_((static_cast<size_t>(num_worlds) + 63) / 64),
      up_(std::move(up)) {
  RELMAX_CHECK(num_worlds > 0);
  RELMAX_CHECK(up_.rows() == universe.num_edges());
  RELMAX_CHECK(up_.words() == world_words_);
}

int64_t WorldBank::ReachabilityFixpoint(NodeId source, bool backward,
                                        const std::vector<EdgeId>& active,
                                        bitlane::BitMatrix* reach,
                                        SeedPolicy seeds) const {
  RELMAX_CHECK(source < universe_.num_nodes());
  const size_t num_nodes = universe_.num_nodes();
  const bool reallocated = reach->EnsureShape(num_nodes, world_words_);
  if (!reallocated && seeds == SeedPolicy::kClearScratch) {
    // The kernel owns the scratch hygiene: a shape-matched buffer reused
    // across sources is wiped here, never by caller convention.
    reach->Clear();
  }
  uint64_t* const at_source = reach->row(source);
  for (size_t w = 0; w < world_words_; ++w) at_source[w] = ~uint64_t{0};
  if (num_worlds_ & 63) {
    at_source[world_words_ - 1] = (uint64_t{1} << (num_worlds_ & 63)) - 1;
  }

  // Frontier-driven worklist over lane blocks. Per node, one dirty bit per
  // lane block ("this block gained worlds since the node was last relaxed").
  // Popping a node snapshots-and-clears its dirty mask, then relaxes only
  // those blocks along its incident arcs; a neighbor whose block actually
  // changes is (re)queued. Nodes and blocks that never change are never
  // touched — unlike the previous dense sweeps, which re-walked every word
  // of every active edge each pass until quiescence. The converged bits are
  // schedule-independent (the fixpoint of the monotone word algebra is
  // unique), so this keeps the (threads, lane-width)-invariance contract.
  // thread_local: floods are hot (per candidate, per source) and the masks
  // are small, so the allocations are paid once per thread, not per call.
  const size_t blocks = reach->blocks_per_row();
  const size_t mask_words = (blocks + 63) / 64;
  thread_local std::vector<uint64_t> dirty_storage;
  thread_local std::vector<uint8_t> queued_storage;
  thread_local std::vector<uint8_t> active_storage;
  thread_local std::vector<NodeId> worklist;
  thread_local std::vector<uint64_t> popped_mask;
  dirty_storage.assign(num_nodes * mask_words, 0);
  queued_storage.assign(num_nodes, 0);
  active_storage.assign(universe_.num_edges(), 0);
  worklist.clear();
  popped_mask.resize(mask_words);
  uint64_t* const dirty = dirty_storage.data();
  uint8_t* const queued = queued_storage.data();
  uint8_t* const active_flag = active_storage.data();
  for (EdgeId e : active) active_flag[e] = 1;

  const uint64_t all_blocks_mask =
      (blocks & 63) ? (uint64_t{1} << (blocks & 63)) - 1 : ~uint64_t{0};
  if (seeds == SeedPolicy::kSeedsAreFacts && !reallocated) {
    // Every nonzero block is a fact the flood must start from (the source
    // row included — it was just forced on above).
    for (size_t v = 0; v < num_nodes; ++v) {
      const uint64_t* const row = reach->row(v);
      uint64_t any_block = 0;
      for (size_t b = 0; b < blocks; ++b) {
        uint64_t any = 0;
        for (size_t i = 0; i < bitlane::kLaneWords; ++i) {
          any |= row[b * bitlane::kLaneWords + i];
        }
        if (any != 0) {
          dirty[v * mask_words + (b >> 6)] |= uint64_t{1} << (b & 63);
          any_block = 1;
        }
      }
      if (any_block != 0) {
        queued[v] = 1;
        worklist.push_back(static_cast<NodeId>(v));
      }
    }
  } else {
    // Fresh scratch: the source row is the only nonzero row, and it is
    // nonzero in every block that carries logical words.
    for (size_t mw = 0; mw + 1 < mask_words; ++mw) {
      dirty[source * mask_words + mw] = ~uint64_t{0};
    }
    dirty[source * mask_words + (mask_words - 1)] = all_blocks_mask;
    queued[source] = 1;
    worklist.push_back(source);
  }

  // Forward floods walk out-arcs; backward directed floods walk in-arcs
  // (reach-to-source flows from an arc's head to its tail, and InCsr(w)'s
  // heads are exactly w's predecessors). Undirected graphs keep both arc
  // copies in the out-CSR, so one view covers both directions.
  const CsrView csr = (backward && universe_.directed()) ? universe_.InCsr()
                                                         : universe_.OutCsr();
  const bool scalar = bitlane::Mode() == bitlane::LaneMode::kScalar;
  int64_t propagated = 0;
  for (size_t head = 0; head < worklist.size(); ++head) {
    const NodeId u = worklist[head];
    queued[u] = 0;
    uint64_t* const du = dirty + u * mask_words;
    for (size_t mw = 0; mw < mask_words; ++mw) {
      popped_mask[mw] = du[mw];
      du[mw] = 0;
    }
    const uint64_t* const src_row = reach->row(u);
    const size_t arcs_end = csr.end(u);
    for (size_t a = csr.begin(u); a < arcs_end; ++a) {
      const EdgeId e = csr.edge_ids[a];
      if (active_flag[e] == 0) continue;
      const NodeId v = csr.heads[a];
      if (v == u) continue;  // self-loop: cannot change reachability
      const uint64_t* const up = up_.row(e);
      uint64_t* const dst_row = reach->row(v);
      bool v_changed = false;
      for (size_t mw = 0; mw < mask_words; ++mw) {
        uint64_t avail = popped_mask[mw];
        while (avail != 0) {
          const size_t b =
              mw * 64 + static_cast<size_t>(__builtin_ctzll(avail));
          avail &= avail - 1;
          const size_t off = b * bitlane::kLaneWords;
          const uint64_t changed =
              scalar ? bitlane::PropagateBlockScalar(src_row + off, up + off,
                                                     dst_row + off)
                     : bitlane::PropagateBlock(src_row + off, up + off,
                                               dst_row + off);
          if (changed != 0) {
            dirty[v * mask_words + mw] |= uint64_t{1} << (b & 63);
            ++propagated;
            v_changed = true;
          }
        }
      }
      if (v_changed && queued[v] == 0) {
        queued[v] = 1;
        worklist.push_back(v);
      }
    }
  }
  return propagated;
}

std::vector<uint64_t> WorldBank::WorldsWithAllEdges(
    const std::vector<EdgeId>& edges) const {
  std::vector<uint64_t> all(world_words_, ~uint64_t{0});
  // Clear the tail bits beyond num_worlds so counts stay exact.
  if (num_worlds_ & 63) {
    all.back() = (uint64_t{1} << (num_worlds_ & 63)) - 1;
  }
  for (EdgeId e : edges) {
    const uint64_t* const up = up_.row(e);
    for (size_t w = 0; w < world_words_; ++w) all[w] &= up[w];
  }
  return all;
}

double WorldBank::ConnectedFraction(
    NodeId s, NodeId t, const std::vector<EdgeId>& active,
    std::vector<uint64_t> seed_connected) const {
  RELMAX_CHECK(t < universe_.num_nodes());
  bitlane::BitMatrix reach;
  ReachabilityFixpoint(s, /*backward=*/false, active, &reach);
  if (seed_connected.empty()) seed_connected.assign(world_words_, 0);
  const uint64_t* const at_t = reach.row(t);
  for (size_t w = 0; w < world_words_; ++w) {
    seed_connected[w] |= at_t[w];
  }
  return static_cast<double>(
             CountBits(seed_connected, static_cast<size_t>(num_worlds_))) /
         num_worlds_;
}

std::vector<EdgeId> WorldBank::AllEdges() const {
  // Sized by the bank's own rows, not universe().num_edges(): the graph may
  // have grown edges since the bank was sampled.
  std::vector<EdgeId> edges(num_edges());
  for (size_t e = 0; e < edges.size(); ++e) edges[e] = static_cast<EdgeId>(e);
  return edges;
}

int64_t WorldBank::CountBits(std::span<const uint64_t> bits, size_t limit) {
  int64_t count = 0;
  for (size_t word = 0; word * 64 < limit && word < bits.size(); ++word) {
    uint64_t value = bits[word];
    const size_t remaining = limit - word * 64;
    if (remaining < 64) value &= (uint64_t{1} << remaining) - 1;
    count += __builtin_popcountll(value);
  }
  return count;
}

namespace {

std::atomic<int64_t> g_bank_fallbacks{0};

}  // namespace

void NoteBankFallback(const char* consumer, size_t wanted_bytes,
                      size_t cap_bytes) {
  g_bank_fallbacks.fetch_add(1, std::memory_order_relaxed);
  std::fprintf(stderr,
               "relmax: %s: shared-world bank needs %.1f MiB > %.1f MiB cap; "
               "falling back to per-query re-sampling (slow path)\n",
               consumer, static_cast<double>(wanted_bytes) / (1024.0 * 1024.0),
               static_cast<double>(cap_bytes) / (1024.0 * 1024.0));
}

int64_t BankFallbackCount() {
  return g_bank_fallbacks.load(std::memory_order_relaxed);
}

}  // namespace relmax
