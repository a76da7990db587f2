#include "index/reliability_index.h"

#include <algorithm>
#include <memory>
#include <span>

#include "common/logging.h"
#include "sampling/parallel.h"

namespace relmax {
namespace {

/// Bits needed for labels in [0, n): ceil(log2 n), 0 for n <= 1.
int LabelBits(NodeId num_nodes) {
  int bits = 0;
  if (num_nodes > 1) {
    const NodeId max_label = num_nodes - 1;
    while ((max_label >> bits) != 0) ++bits;
  }
  return bits;
}

/// World-indexed bitset with every world bit set (tail bits clear).
std::vector<uint64_t> AllWorlds(int num_worlds, size_t world_words) {
  std::vector<uint64_t> all(world_words, ~uint64_t{0});
  if (num_worlds & 63) {
    all.back() = (uint64_t{1} << (num_worlds & 63)) - 1;
  }
  return all;
}

/// Per-lane labeling scratch, reused across every world a lane relabels.
struct LabelScratch {
  // This 64-world word of every edge's up row, hoisted once per word so the
  // per-world inner loops read one flat array instead of striding across
  // the bank's rows per (edge, world).
  std::vector<uint64_t> up_words;
  // Undirected union-find.
  std::vector<NodeId> parent;
  // Raw label -> compact label, keyed by first appearance in node order.
  std::vector<NodeId> remap;
  // Directed iterative Tarjan.
  std::vector<int> order;
  std::vector<int> low;
  std::vector<NodeId> comp;
  std::vector<uint8_t> on_stack;
  std::vector<NodeId> stack;
  struct Frame {
    NodeId v;
    size_t arc;
  };
  std::vector<Frame> frames;
};

NodeId Find(std::vector<NodeId>& parent, NodeId v) {
  while (parent[v] != v) {
    parent[v] = parent[parent[v]];  // path halving
    v = parent[v];
  }
  return v;
}

}  // namespace

size_t ReliabilityIndex::LabelBytes(NodeId num_nodes, int num_samples) {
  const size_t world_words = (static_cast<size_t>(num_samples) + 63) / 64;
  return static_cast<size_t>(num_nodes) * LabelBits(num_nodes) * world_words *
         sizeof(uint64_t);
}

bool ReliabilityIndex::Fits(const UncertainGraph& g, int num_samples,
                            const Options& options) {
  return LabelBytes(g.num_nodes(), num_samples) <= options.max_label_bytes;
}

ReliabilityIndex::ReliabilityIndex(const WorldBank& bank,
                                   const Options& options)
    : bank_(&bank),
      options_(options),
      num_nodes_(bank.universe().num_nodes()),
      num_worlds_(bank.num_worlds()),
      world_words_(bank.world_words()),
      label_bits_(LabelBits(bank.universe().num_nodes())),
      directed_(bank.universe().directed()) {
  RELMAX_CHECK(Fits(bank.universe(), num_worlds_, options_));
  labels_.assign(static_cast<size_t>(num_nodes_) * label_bits_ * world_words_,
                 0);
  all_edges_ = bank.AllEdges();
  ++stats_.builds;
  stats_.worlds_relabeled += static_cast<size_t>(num_worlds_);
  RelabelWorlds(AllWorlds(num_worlds_, world_words_));
}

ReliabilityIndex::ReliabilityIndex(const WorldBank& bank,
                                   const Options& options,
                                   std::vector<uint64_t> labels, AdoptLabels)
    : bank_(&bank),
      options_(options),
      num_nodes_(bank.universe().num_nodes()),
      num_worlds_(bank.num_worlds()),
      world_words_(bank.world_words()),
      label_bits_(LabelBits(bank.universe().num_nodes())),
      directed_(bank.universe().directed()),
      labels_(std::move(labels)) {
  RELMAX_CHECK(Fits(bank.universe(), num_worlds_, options_));
  RELMAX_CHECK(labels_.size() == static_cast<size_t>(num_nodes_) *
                                     label_bits_ * world_words_);
  all_edges_ = bank.AllEdges();
}

std::unique_ptr<ReliabilityIndex> ReliabilityIndex::FromSavedLabels(
    const WorldBank& bank, const Options& options,
    std::vector<uint64_t> labels) {
  return std::unique_ptr<ReliabilityIndex>(
      new ReliabilityIndex(bank, options, std::move(labels), AdoptLabels{}));
}

void ReliabilityIndex::RelabelWorlds(const std::vector<uint64_t>& mask) {
  const UncertainGraph& universe = bank_->universe();
  const size_t num_rows = static_cast<size_t>(num_nodes_) * label_bits_;
  const std::vector<Edge>& edges = universe.EdgesById();
  const CsrView csr = directed_ ? universe.OutCsr() : CsrView{};
  // One shard per 64-world word: a shard writes only bit-word `word` of every
  // plane row, so shards are race-free, and per-world labels are a pure
  // function of the bank bits — bit-identical for any num_threads.
  ForEachShard(
      world_words_, options_.num_threads,
      [] { return std::make_unique<LabelScratch>(); },
      [&](std::unique_ptr<LabelScratch>& scratch, size_t word) {
        const uint64_t mask_word = mask[word];
        if (mask_word == 0) return;
        // Clear the affected worlds' columns; other worlds keep their bits.
        const uint64_t keep = ~mask_word;
        for (size_t row = 0; row < num_rows; ++row) {
          labels_[row * world_words_ + word] &= keep;
        }
        scratch->up_words.resize(edges.size());
        for (size_t e = 0; e < edges.size(); ++e) {
          scratch->up_words[e] =
              bank_->EdgeUpWorlds(static_cast<EdgeId>(e))[word];
        }
        for (int bit = 0; bit < 64; ++bit) {
          if (((mask_word >> bit) & 1) == 0) continue;
          if (static_cast<int>(word * 64) + bit >= num_worlds_) break;
          const uint64_t world_bit = uint64_t{1} << bit;
          LabelScratch& s = *scratch;
          // Writes bit `world_bit` of word `word` in v's planes for `label`.
          auto write_label = [&](NodeId v, NodeId label) {
            uint64_t* base =
                labels_.data() +
                static_cast<size_t>(v) * label_bits_ * world_words_ + word;
            for (int b = 0; b < label_bits_; ++b) {
              if ((label >> b) & 1) base[static_cast<size_t>(b) *
                                         world_words_] |= world_bit;
            }
          };
          auto edge_up = [&](EdgeId e) {
            return (s.up_words[e] & world_bit) != 0;
          };
          if (!directed_) {
            // Exact connected components: union-find over the world's up
            // edges, labels compacted by first appearance in node order.
            s.parent.resize(num_nodes_);
            for (NodeId v = 0; v < num_nodes_; ++v) s.parent[v] = v;
            for (size_t e = 0; e < edges.size(); ++e) {
              if (!edge_up(static_cast<EdgeId>(e))) continue;
              const NodeId a = Find(s.parent, edges[e].src);
              const NodeId b = Find(s.parent, edges[e].dst);
              if (a != b) s.parent[std::max(a, b)] = std::min(a, b);
            }
            s.remap.assign(num_nodes_, kInvalidNode);
            NodeId next = 0;
            for (NodeId v = 0; v < num_nodes_; ++v) {
              const NodeId root = Find(s.parent, v);
              if (s.remap[root] == kInvalidNode) s.remap[root] = next++;
              write_label(v, s.remap[root]);
            }
            continue;
          }
          // Directed: SCC condensation by iterative Tarjan over the out-CSR,
          // skipping arcs that are down in this world.
          s.order.assign(num_nodes_, -1);
          s.low.resize(num_nodes_);
          s.comp.resize(num_nodes_);
          s.on_stack.assign(num_nodes_, 0);
          s.stack.clear();
          s.frames.clear();
          int next_order = 0;
          NodeId num_comps = 0;
          for (NodeId root = 0; root < num_nodes_; ++root) {
            if (s.order[root] >= 0) continue;
            s.order[root] = s.low[root] = next_order++;
            s.stack.push_back(root);
            s.on_stack[root] = 1;
            s.frames.push_back({root, csr.begin(root)});
            while (!s.frames.empty()) {
              LabelScratch::Frame& f = s.frames.back();
              const NodeId v = f.v;
              bool descended = false;
              while (f.arc < csr.end(v)) {
                const size_t a = f.arc++;
                if (!edge_up(csr.edge_ids[a])) continue;
                const NodeId to = csr.heads[a];
                if (s.order[to] < 0) {
                  s.order[to] = s.low[to] = next_order++;
                  s.stack.push_back(to);
                  s.on_stack[to] = 1;
                  s.frames.push_back({to, csr.begin(to)});  // invalidates f
                  descended = true;
                  break;
                }
                if (s.on_stack[to] && s.order[to] < s.low[v]) {
                  s.low[v] = s.order[to];
                }
              }
              if (descended) continue;
              s.frames.pop_back();
              if (s.low[v] == s.order[v]) {
                NodeId u;
                do {
                  u = s.stack.back();
                  s.stack.pop_back();
                  s.on_stack[u] = 0;
                  s.comp[u] = num_comps;
                } while (u != v);
                ++num_comps;
              }
              if (!s.frames.empty() && s.low[v] < s.low[s.frames.back().v]) {
                s.low[s.frames.back().v] = s.low[v];
              }
            }
          }
          // Tarjan numbers SCCs in completion order; renumber by first
          // appearance in node order so labels are canonical.
          s.remap.assign(num_nodes_, kInvalidNode);
          NodeId next = 0;
          for (NodeId v = 0; v < num_nodes_; ++v) {
            if (s.remap[s.comp[v]] == kInvalidNode) s.remap[s.comp[v]] = next++;
            write_label(v, s.remap[s.comp[v]]);
          }
        }
      },
      [](std::unique_ptr<LabelScratch>&) {});
}

std::vector<uint64_t> ReliabilityIndex::EqualLabelWorlds(NodeId s,
                                                         NodeId t) const {
  std::vector<uint64_t> diff(world_words_, 0);
  const uint64_t* s_planes =
      labels_.data() + static_cast<size_t>(s) * label_bits_ * world_words_;
  const uint64_t* t_planes =
      labels_.data() + static_cast<size_t>(t) * label_bits_ * world_words_;
  for (int b = 0; b < label_bits_; ++b) {
    const uint64_t* sp = s_planes + static_cast<size_t>(b) * world_words_;
    const uint64_t* tp = t_planes + static_cast<size_t>(b) * world_words_;
    for (size_t w = 0; w < world_words_; ++w) diff[w] |= sp[w] ^ tp[w];
  }
  std::vector<uint64_t> eq = AllWorlds(num_worlds_, world_words_);
  for (size_t w = 0; w < world_words_; ++w) eq[w] &= ~diff[w];
  return eq;
}

const std::vector<uint64_t>& ReliabilityIndex::SourceReach(NodeId s) {
  const auto it = reach_cache_.find(s);
  if (it != reach_cache_.end()) return it->second;
  bitlane::BitMatrix reach;
  bank_->ReachabilityFixpoint(s, /*backward=*/false, all_edges_, &reach);
  ++stats_.reach_floods;
  std::vector<uint64_t> flat(static_cast<size_t>(num_nodes_) * world_words_);
  for (NodeId v = 0; v < num_nodes_; ++v) {
    const uint64_t* const row = reach.row(v);
    std::copy(row, row + world_words_,
              flat.begin() + static_cast<size_t>(v) * world_words_);
  }
  // FIFO eviction under the byte cap. A row larger than the whole cap is
  // still admitted (the caller holds a reference); it is evicted next time.
  const size_t row_bytes = flat.size() * sizeof(uint64_t);
  while (!reach_order_.empty() &&
         (reach_cache_.size() + 1) * row_bytes > options_.max_reach_bytes) {
    reach_cache_.erase(reach_order_.front());
    reach_order_.pop_front();
    ++stats_.reach_row_evictions;
  }
  const auto inserted = reach_cache_.emplace(s, std::move(flat));
  reach_order_.push_back(s);
  stats_.reach_rows_cached = reach_cache_.size();
  return inserted.first->second;
}

size_t ReliabilityIndex::reach_cache_bytes() const {
  return reach_cache_.size() * static_cast<size_t>(num_nodes_) *
         world_words_ * sizeof(uint64_t);
}

std::vector<uint64_t> ReliabilityIndex::ConnectedWorlds(NodeId s, NodeId t) {
  RELMAX_CHECK(s < num_nodes_ && t < num_nodes_);
  std::vector<uint64_t> eq = EqualLabelWorlds(s, t);
  if (!directed_) return eq;
  // Same SCC in every world ⇒ mutually reachable everywhere: answer without
  // any flood. (The flood would set exactly these bits too.)
  if (WorldBank::CountBits(eq, static_cast<size_t>(num_worlds_)) ==
      num_worlds_) {
    return eq;
  }
  const std::vector<uint64_t>& rows = SourceReach(s);
  const uint64_t* row = rows.data() + static_cast<size_t>(t) * world_words_;
  return std::vector<uint64_t>(row, row + world_words_);
}

double ReliabilityIndex::Query(NodeId s, NodeId t) {
  return static_cast<double>(
             WorldBank::CountBits(ConnectedWorlds(s, t),
                                  static_cast<size_t>(num_worlds_))) /
         num_worlds_;
}

std::vector<uint64_t> ReliabilityIndex::DiffWorlds(const WorldBank& old_bank,
                                                   const WorldBank& fresh) {
  RELMAX_CHECK(old_bank.num_worlds() == fresh.num_worlds());
  const size_t world_words = fresh.world_words();
  std::vector<uint64_t> mask(world_words, 0);
  // The banks' own row counts, not universe().num_edges(): the old bank's
  // graph has typically been mutated since that bank was sampled.
  const size_t old_edges = old_bank.num_edges();
  const size_t new_edges = fresh.num_edges();
  const size_t common = std::min(old_edges, new_edges);
  for (size_t e = 0; e < common; ++e) {
    const std::span<const uint64_t> before =
        old_bank.EdgeUpWorlds(static_cast<EdgeId>(e));
    const std::span<const uint64_t> after =
        fresh.EdgeUpWorlds(static_cast<EdgeId>(e));
    for (size_t w = 0; w < world_words; ++w) mask[w] |= before[w] ^ after[w];
  }
  // Edges present in only one bank affect every world they are up in.
  for (size_t e = common; e < new_edges; ++e) {
    const std::span<const uint64_t> up =
        fresh.EdgeUpWorlds(static_cast<EdgeId>(e));
    for (size_t w = 0; w < world_words; ++w) mask[w] |= up[w];
  }
  for (size_t e = common; e < old_edges; ++e) {
    const std::span<const uint64_t> up =
        old_bank.EdgeUpWorlds(static_cast<EdgeId>(e));
    for (size_t w = 0; w < world_words; ++w) mask[w] |= up[w];
  }
  return mask;
}

void ReliabilityIndex::ApplyBankUpdate(const WorldBank& fresh,
                                       const std::vector<uint64_t>& affected) {
  RELMAX_CHECK(fresh.num_worlds() == num_worlds_);
  RELMAX_CHECK(fresh.universe().num_nodes() == num_nodes_);
  RELMAX_CHECK(fresh.universe().directed() == directed_);
  RELMAX_CHECK(affected.size() == world_words_);
  bank_ = &fresh;
  all_edges_ = fresh.AllEdges();
  // Reach rows mix affected and unaffected worlds in one flood; rebuild them
  // lazily rather than patching. The reach counters reset with the cache —
  // they describe the cache since its last drop (see Stats) — so incremental
  // stats stay comparable to a fresh build's instead of over-counting floods
  // that served the pre-update bank.
  reach_cache_.clear();
  reach_order_.clear();
  stats_.reach_rows_cached = 0;
  stats_.reach_floods = 0;
  stats_.reach_row_evictions = 0;
  const size_t worlds = static_cast<size_t>(
      WorldBank::CountBits(affected, static_cast<size_t>(num_worlds_)));
  ++stats_.incremental_updates;
  stats_.last_update_worlds = worlds;
  stats_.worlds_relabeled += worlds;
  if (worlds > 0) RelabelWorlds(affected);
}

}  // namespace relmax
