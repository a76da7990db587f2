#include "query/query_engine.h"

#include <algorithm>
#include <cstdio>
#include <optional>
#include <unordered_set>

#include "common/logging.h"
#include "common/memory.h"
#include "common/timer.h"
#include "core/evaluate.h"
#include "sampling/parallel.h"
#include "sampling/reliability.h"
#include "sampling/rss.h"

namespace relmax {
namespace {

uint64_t PairKey(NodeId s, NodeId t) {
  return (static_cast<uint64_t>(s) << 32) | t;
}

// True when the shared-world path applies (MC estimator, reuse enabled,
// bank and flood footprints under their caps).
bool UseSharedWorlds(const UncertainGraph& g,
                     const QueryEngineOptions& options) {
  if (!options.reuse_worlds) return false;
  if (options.estimator != Estimator::kMonteCarlo) return false;
  return BankBytes(g.num_edges(), options.num_samples) <=
             options.max_bank_bytes &&
         BankBytes(static_cast<size_t>(g.num_nodes()), options.num_samples) <=
             options.max_flood_bytes_per_lane;
}

// True when queries resolve through the reliability index: on top of the
// shared-world path, the label planes must fit their cap. A non-empty
// index_file implies use_index.
bool UseIndex(const UncertainGraph& g, const QueryEngineOptions& options) {
  return (options.use_index || !options.index_file.empty()) &&
         UseSharedWorlds(g, options) &&
         ReliabilityIndex::Fits(g, options.num_samples, options.index);
}

ReliabilityIndex::Options IndexOptions(const QueryEngineOptions& options) {
  ReliabilityIndex::Options index_options = options.index;
  index_options.num_threads = options.num_threads;
  return index_options;
}

}  // namespace

WorldState::WorldState(const UncertainGraph& g,
                       const QueryEngineOptions& options, IndexIoStats* io)
    : graph_(g), options_(options) {
  Build(io);
}

WorldState::WorldState(const WorldState& prev, const UncertainGraph& g,
                       const QueryEngineOptions& options, IndexIoStats* io)
    : graph_(g), options_(options) {
  bool extends = prev.index_ != nullptr && UseIndex(g, options) &&
                 g.num_nodes() == prev.sampled_nodes_ &&
                 g.num_edges() >= prev.sampled_endpoints_.size();
  const std::vector<Edge>& edges = g.EdgesById();
  for (size_t e = 0; extends && e < prev.sampled_endpoints_.size(); ++e) {
    extends = edges[e].src == prev.sampled_endpoints_[e].first &&
              edges[e].dst == prev.sampled_endpoints_[e].second;
  }
  if (!extends) {
    Build(io);
    return;
  }
  // Incremental maintenance on a copy, so `prev` keeps answering: only the
  // worlds whose edge presence changed are relabeled.
  AdoptBank(std::make_unique<WorldBank>(graph_, WorldOptions()));
  const std::vector<uint64_t> affected =
      ReliabilityIndex::DiffWorlds(*prev.bank_, *bank_);
  index_ = std::make_unique<ReliabilityIndex>(*prev.index_);
  index_->ApplyBankUpdate(*bank_, affected);
  if (!options_.index_file.empty()) SaveIndexFile(io);
}

WorldBank::Options WorldState::WorldOptions() const {
  return WorldBank::Options{.num_samples = options_.num_samples,
                            .seed = options_.seed,
                            .num_threads = options_.num_threads};
}

void WorldState::Build(IndexIoStats* io) {
  if (UseIndex(graph_, options_)) {
    // Load-else-build-and-save: a valid file for this (graph, options) key
    // adopts the mmap-ed bank and labels with no sampling or relabeling.
    if (!options_.index_file.empty()) TryLoadIndexFile(io);
    if (index_ != nullptr) return;
    AdoptBank(std::make_unique<WorldBank>(graph_, WorldOptions()));
    index_ = std::make_unique<ReliabilityIndex>(*bank_, IndexOptions(options_));
    if (!options_.index_file.empty()) SaveIndexFile(io);
  } else if (UseSharedWorlds(graph_, options_)) {
    AdoptBank(std::make_unique<WorldBank>(graph_, WorldOptions()));
  }
}

void WorldState::AdoptBank(std::unique_ptr<WorldBank> bank) {
  bank_ = std::move(bank);
  all_edges_ = bank_->AllEdges();
  sampled_nodes_ = graph_.num_nodes();
  sampled_endpoints_.clear();
  for (const Edge& e : graph_.EdgesById()) {
    sampled_endpoints_.emplace_back(e.src, e.dst);
  }
}

void WorldState::TryLoadIndexFile(IndexIoStats* io) {
  StatusOr<LoadedIndex> loaded = LoadIndex(
      options_.index_file, graph_, WorldOptions(), IndexOptions(options_));
  if (!loaded.ok()) {
    if (loaded.status().code() != StatusCode::kNotFound) {
      std::fprintf(stderr,
                   "relmax: query engine: index file load failed (%s); "
                   "rebuilding the index from scratch\n",
                   loaded.status().ToString().c_str());
      ++io->load_failures;
    }
    return;
  }
  LoadedIndex li = std::move(loaded).value();
  index_mapping_ = std::move(li.mapping);
  AdoptBank(std::move(li.bank));
  index_ = std::move(li.index);
  ++io->loads;
  io->generation = li.generation;
  io->file_bytes = li.file_bytes;
}

void WorldState::SaveIndexFile(IndexIoStats* io) const {
  RELMAX_DCHECK(bank_ != nullptr && index_ != nullptr);
  const uint64_t generation = io->generation + 1;
  const StatusOr<size_t> saved = SaveIndex(*bank_, *index_, WorldOptions(),
                                           generation, options_.index_file);
  if (!saved.ok()) {
    std::fprintf(stderr,
                 "relmax: query engine: index file save failed (%s); "
                 "continuing without persistence\n",
                 saved.status().ToString().c_str());
    return;
  }
  ++io->saves;
  io->generation = generation;
  io->file_bytes = *saved;
}

void WorldState::Flood(const std::vector<StQuery>& pairs,
                       std::unordered_map<uint64_t, double>* resolved,
                       BatchStats* stats) const {
  // Group pair indices by source (first-appearance order, so the flood
  // schedule is a pure function of the deduplicated pair list). Every value
  // below depends only on (bank bits, source, target); the bank is
  // thread-invariant by construction, so slot writes by pair index keep the
  // whole batch bit-identical for any num_threads.
  std::unordered_map<NodeId, size_t> source_slot;
  std::vector<NodeId> sources;
  std::vector<std::vector<size_t>> pairs_of_source;
  for (size_t i = 0; i < pairs.size(); ++i) {
    const auto [it, inserted] = source_slot.emplace(pairs[i].s, sources.size());
    if (inserted) {
      sources.push_back(pairs[i].s);
      pairs_of_source.emplace_back();
    }
    pairs_of_source[it->second].push_back(i);
  }
  std::vector<double> values(pairs.size());
  const WorldBank& bank = *bank_;
  const int num_worlds = bank.num_worlds();
  ForEachShard(
      sources.size(), options_.num_threads,
      [] { return std::make_unique<bitlane::BitMatrix>(); },
      [&](std::unique_ptr<bitlane::BitMatrix>& reach, size_t i) {
        // The fixpoint wipes the reused scratch itself (kClearScratch).
        bank.ReachabilityFixpoint(sources[i], /*backward=*/false, all_edges_,
                                  reach.get());
        for (size_t idx : pairs_of_source[i]) {
          values[idx] = static_cast<double>(WorldBank::CountBits(
                            reach->row_span(pairs[idx].t),
                            static_cast<size_t>(num_worlds))) /
                        num_worlds;
        }
      },
      [](std::unique_ptr<bitlane::BitMatrix>&) {});
  for (size_t i = 0; i < pairs.size(); ++i) {
    (*resolved)[PairKey(pairs[i].s, pairs[i].t)] = values[i];
  }
  stats->floods += sources.size();
}

void WorldState::Resolve(const std::vector<StQuery>& pairs,
                         std::unordered_map<uint64_t, double>* resolved,
                         BatchStats* stats) const {
  if (pairs.empty()) return;
  if (index_ != nullptr) {
    // Label-plane popcounts answer every undirected pair and every directed
    // pair sharing an SCC in all worlds; the rest flood once per distinct
    // source. All are pure functions of the bank bits, so batch order and
    // thread count cannot matter.
    std::vector<StQuery> residual;
    for (const StQuery& q : pairs) {
      if (const std::optional<double> r = index_->LabelQuery(q.s, q.t)) {
        (*resolved)[PairKey(q.s, q.t)] = *r;
      } else {
        residual.push_back(q);
      }
    }
    stats->index_answers += pairs.size();
    Flood(residual, resolved, stats);
    return;
  }
  if (bank_ != nullptr) {
    Flood(pairs, resolved, stats);
    return;
  }
  // Per-query fallback: each pair is estimated independently, exactly the
  // single-query public API under the same (Z, seed, threads). When the
  // caller *asked* for shared worlds (MC + reuse_worlds) and only the
  // footprint caps pushed us here, that is a silent 10-100x slowdown unless
  // we surface it.
  if (options_.reuse_worlds && options_.estimator == Estimator::kMonteCarlo) {
    const size_t bank_bytes =
        BankBytes(graph_.num_edges(), options_.num_samples);
    const size_t flood_bytes = BankBytes(
        static_cast<size_t>(graph_.num_nodes()), options_.num_samples);
    if (bank_bytes > options_.max_bank_bytes) {
      NoteBankFallback("query engine", bank_bytes, options_.max_bank_bytes);
    } else {
      NoteBankFallback("query engine (flood lane)", flood_bytes,
                       options_.max_flood_bytes_per_lane);
    }
    ++stats->bank_fallbacks;
  }
  if (options_.estimator == Estimator::kRss) {
    RssOptions rss = options_.rss;
    rss.num_samples = options_.num_samples;
    rss.seed = options_.seed;
    rss.num_threads = options_.num_threads;
    for (const StQuery& q : pairs) {
      (*resolved)[PairKey(q.s, q.t)] =
          EstimateReliabilityRss(graph_, q.s, q.t, rss);
    }
  } else {
    const SampleOptions mc{.num_samples = options_.num_samples,
                           .seed = options_.seed,
                           .num_threads = options_.num_threads};
    for (const StQuery& q : pairs) {
      (*resolved)[PairKey(q.s, q.t)] =
          EstimateReliability(graph_, q.s, q.t, mc);
    }
  }
  stats->fallback_estimates += pairs.size();
}

BatchResult WorldState::Answer(const QuerySet& set, ResultCache* cache) const {
  WallTimer timer;
  BatchResult result;
  result.stats.num_queries = set.size();

  // Deduplicate the (s, t) pairs the batch needs, across all query kinds, in
  // first-appearance order; pairs already memoized are cache hits.
  std::vector<StQuery> needed;
  std::unordered_set<uint64_t> seen;
  auto want = [&](NodeId s, NodeId t) {
    if (!seen.insert(PairKey(s, t)).second) return;
    if (cache != nullptr && cache->values.count(PairKey(s, t)) != 0) {
      ++result.stats.cache_hits;
      return;
    }
    needed.push_back({s, t});
  };
  for (const StQuery& q : set.st_queries()) want(q.s, q.t);
  for (const AggregateQuery& q : set.aggregate_queries()) {
    for (NodeId s : q.sources) {
      for (NodeId t : q.targets) want(s, t);
    }
  }
  for (const TopKQuery& q : set.top_k_queries()) {
    for (const StQuery& c : q.candidates) want(c.s, c.t);
  }
  result.stats.distinct_pairs = seen.size();

  std::unordered_map<uint64_t, double> resolved;
  Resolve(needed, &resolved, &result.stats);

  const auto value = [&](NodeId s, NodeId t) {
    const auto it = resolved.find(PairKey(s, t));
    if (it != resolved.end()) return it->second;
    RELMAX_CHECK(cache != nullptr);
    const auto cached = cache->values.find(PairKey(s, t));
    RELMAX_CHECK(cached != cache->values.end());
    return cached->second;
  };

  result.st_values.reserve(set.st_queries().size());
  for (const StQuery& q : set.st_queries()) {
    result.st_values.push_back(value(q.s, q.t));
  }
  for (const AggregateQuery& q : set.aggregate_queries()) {
    std::vector<std::vector<double>> matrix(q.sources.size());
    for (size_t i = 0; i < q.sources.size(); ++i) {
      matrix[i].reserve(q.targets.size());
      for (NodeId t : q.targets) matrix[i].push_back(value(q.sources[i], t));
    }
    result.aggregate_values.push_back(AggregateMatrix(matrix, q.aggregate));
  }
  for (const TopKQuery& q : set.top_k_queries()) {
    std::vector<std::pair<size_t, double>> scored;
    scored.reserve(q.candidates.size());
    for (size_t i = 0; i < q.candidates.size(); ++i) {
      scored.emplace_back(i, value(q.candidates[i].s, q.candidates[i].t));
    }
    // stable_sort keeps candidate order among equal reliabilities, so the
    // ranking is deterministic and documented.
    std::stable_sort(scored.begin(), scored.end(),
                     [](const std::pair<size_t, double>& a,
                        const std::pair<size_t, double>& b) {
                       return a.second > b.second;
                     });
    const size_t k = std::min(static_cast<size_t>(q.k), scored.size());
    scored.resize(k);
    result.top_k.push_back(std::move(scored));
  }

  if (cache != nullptr) {
    // Insert in the deterministic deduplicated `needed` order (never map
    // iteration order), so eviction victims are identical across runs.
    for (const StQuery& q : needed) {
      const uint64_t key = PairKey(q.s, q.t);
      if (cache->values.emplace(key, resolved.at(key)).second) {
        cache->order.push_back(key);
      }
    }
    while (cache->values.size() > cache->max_entries &&
           !cache->order.empty()) {
      cache->values.erase(cache->order.front());
      cache->order.pop_front();
      ++result.stats.cache_evictions;
    }
  }
  if (bank_ != nullptr) {
    result.stats.bank_bytes =
        BankBytes(bank_->num_edges(), bank_->num_worlds());
  }
  result.stats.seconds = timer.ElapsedSeconds();
  return result;
}

QueryEngine::QueryEngine(const UncertainGraph& g,
                         const QueryEngineOptions& options)
    : graph_(g), options_(options), graph_version_(g.version()) {
  RELMAX_CHECK(options_.num_samples > 0);
  cache_.max_entries = options_.max_cache_entries;
}

StatusOr<BatchResult> QueryEngine::Answer(const QuerySet& set) {
  RELMAX_RETURN_IF_ERROR(set.Validate(graph_));
  if (graph_.version() != graph_version_) {
    // Memoized answers depend on edge probabilities: always stale.
    graph_version_ = graph_.version();
    cache_.values.clear();
    cache_.order.clear();
    if (state_ != nullptr) {
      state_ = std::make_unique<const WorldState>(*state_, graph_, options_,
                                                  &index_io_stats_);
    }
  }
  if (state_ == nullptr) {
    state_ = std::make_unique<const WorldState>(graph_, options_,
                                                &index_io_stats_);
  }
  return state_->Answer(set, options_.cache_results ? &cache_ : nullptr);
}

StatusOr<double> QueryEngine::EstimateSt(NodeId s, NodeId t) {
  QuerySet set;
  set.AddSt(s, t);
  const StatusOr<BatchResult> result = Answer(set);
  if (!result.ok()) return result.status();
  return result->st_values[0];
}

}  // namespace relmax
