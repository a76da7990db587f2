#include "core/evaluate.h"

#include <algorithm>
#include <memory>

#include "common/logging.h"
#include "common/rng.h"
#include "core/selection.h"
#include "graph/visit_marker.h"
#include "sampling/parallel.h"
#include "sampling/reliability.h"
#include "sampling/rss.h"
#include "sampling/world_bank.h"

namespace relmax {
namespace {

RssOptions MakeRssOptions(const SolverOptions& options, int num_samples,
                          uint64_t seed_salt) {
  RssOptions rss = options.rss;
  rss.num_samples = num_samples;
  rss.seed = options.seed ^ (seed_salt * 0x9e3779b97f4a7c15ULL + 1);
  rss.num_threads = options.num_threads;
  return rss;
}

}  // namespace

double EstimateWithOptions(const UncertainGraph& g, NodeId s, NodeId t,
                           const SolverOptions& options, uint64_t seed_salt) {
  if (options.estimator == Estimator::kRss) {
    RssSampler sampler(g, MakeRssOptions(options, options.num_samples,
                                         seed_salt));
    return sampler.Reliability(s, t);
  }
  return EstimateReliability(
      g, s, t,
      {.num_samples = options.num_samples,
       .seed = options.seed ^ (seed_salt * 0x9e3779b97f4a7c15ULL + 1),
       .num_threads = options.num_threads});
}

std::vector<double> FromSourceWithOptions(const UncertainGraph& g, NodeId s,
                                          const SolverOptions& options,
                                          uint64_t seed_salt) {
  if (options.estimator == Estimator::kRss) {
    RssSampler sampler(
        g, MakeRssOptions(options, options.elimination_samples, seed_salt));
    return sampler.FromSource(s);
  }
  return ReliabilityFromSource(
      g, s,
      {.num_samples = options.elimination_samples,
       .seed = options.seed ^ (seed_salt * 0x9e3779b97f4a7c15ULL + 3),
       .num_threads = options.num_threads});
}

std::vector<double> ToTargetWithOptions(const UncertainGraph& g, NodeId t,
                                        const SolverOptions& options,
                                        uint64_t seed_salt) {
  if (options.estimator == Estimator::kRss) {
    RssSampler sampler(
        g, MakeRssOptions(options, options.elimination_samples, seed_salt));
    return sampler.ToTarget(t);
  }
  return ReliabilityToTarget(
      g, t,
      {.num_samples = options.elimination_samples,
       .seed = options.seed ^ (seed_salt * 0x9e3779b97f4a7c15ULL + 5),
       .num_threads = options.num_threads});
}

UncertainGraph AugmentGraph(const UncertainGraph& g,
                            const std::vector<Edge>& edges) {
  UncertainGraph augmented = g;
  for (const Edge& e : edges) {
    const Status st = augmented.AddEdge(e.src, e.dst, e.prob);
    RELMAX_DCHECK(st.ok() || st.code() == StatusCode::kAlreadyExists);
    (void)st;
  }
  return augmented;
}

PathUnionSubgraph::PathUnionSubgraph(const UncertainGraph& base, NodeId s,
                                     NodeId t)
    : base_(base),
      graph_(base.directed() ? UncertainGraph::Directed(0)
                             : UncertainGraph::Undirected(0)),
      remap_(base.num_nodes(), kInvalidNode) {
  s_ = Map(s);
  t_ = Map(t);
}

NodeId PathUnionSubgraph::Map(NodeId v) {
  RELMAX_DCHECK(v < remap_.size());
  if (remap_[v] == kInvalidNode) remap_[v] = graph_.AddNode();
  return remap_[v];
}

std::vector<EdgeId> PathUnionSubgraph::AddPath(const PathResult& path) {
  std::vector<EdgeId> edge_ids;
  if (!path.nodes.empty()) edge_ids.reserve(path.nodes.size() - 1);
  for (size_t i = 0; i + 1 < path.nodes.size(); ++i) {
    const NodeId u = path.nodes[i];
    const NodeId v = path.nodes[i + 1];
    const NodeId su = Map(u);
    const NodeId sv = Map(v);
    if (const auto existing = graph_.EdgeIndexOf(su, sv)) {
      edge_ids.push_back(*existing);
      continue;
    }
    const auto prob = base_.EdgeProb(u, v);
    RELMAX_DCHECK(prob.has_value());
    const Status st = graph_.AddEdge(su, sv, *prob);
    RELMAX_DCHECK(st.ok());
    (void)st;
    edge_ids.push_back(*graph_.EdgeIndexOf(su, sv));
  }
  return edge_ids;
}

double PathUnionSubgraph::Reliability(const SolverOptions& options,
                                      uint64_t seed_salt) const {
  return EstimateWithOptions(graph_, s_, t_, options, seed_salt);
}

struct PathSetEvaluator::Impl {
  /// Union of all annotated paths — the sampling universe.
  PathUnionSubgraph universe;
  std::unique_ptr<WorldBank> bank;
  /// Per-path edge ids in the universe graph, in path order.
  std::vector<std::vector<EdgeId>> path_edges;
  /// Per-path world-indexed bitset: worlds where the whole path is up.
  std::vector<std::vector<uint64_t>> path_up;
  // Evaluation scratch, sized once and reused.
  std::vector<EdgeId> active;           ///< selected edges, in path order
  std::vector<uint32_t> edge_epoch;     ///< dedup stamp per universe edge
  uint32_t epoch = 0;
  bitlane::BitMatrix reach;

  Impl(const UncertainGraph& g_plus, NodeId s, NodeId t)
      : universe(g_plus, s, t) {}

  // Appends path i's edges to `active` (deduplicated, path order preserved
  // so the fixpoint converges in ~2 sweeps) and ORs its all-edges-up worlds
  // into the fast-path seed at reach[t].
  void MergePath(int i) {
    for (EdgeId e : path_edges[i]) {
      if (edge_epoch[e] == epoch) continue;
      edge_epoch[e] = epoch;
      active.push_back(e);
    }
    const std::vector<uint64_t>& up = path_up[i];
    uint64_t* const at_t = reach.row(universe.t());
    for (size_t w = 0; w < up.size(); ++w) at_t[w] |= up[w];
  }
};

// Seed tag decorrelating the bank's worlds from the solver's other sampling
// streams (elimination, before/after estimates) at the same options.seed.
namespace {
constexpr uint64_t kWorldBankSalt = 0x1d57a6b1e55ed5eeULL;
}  // namespace

PathSetEvaluator::PathSetEvaluator(const UncertainGraph& g_plus, NodeId s,
                                   NodeId t,
                                   const std::vector<AnnotatedPath>& paths,
                                   const SolverOptions& options)
    : impl_(std::make_unique<Impl>(g_plus, s, t)) {
  impl_->path_edges.reserve(paths.size());
  for (const AnnotatedPath& path : paths) {
    impl_->path_edges.push_back(impl_->universe.AddPath(path.path));
  }
  impl_->bank = std::make_unique<WorldBank>(
      impl_->universe.graph(),
      WorldBank::Options{.num_samples = options.num_samples,
                         .seed = options.seed ^ kWorldBankSalt,
                         .num_threads = options.num_threads});
  impl_->path_up.reserve(paths.size());
  for (const std::vector<EdgeId>& edges : impl_->path_edges) {
    impl_->path_up.push_back(impl_->bank->WorldsWithAllEdges(edges));
  }
  impl_->edge_epoch.assign(impl_->universe.num_edges(), 0);
  impl_->reach.EnsureShape(impl_->universe.num_nodes(),
                           impl_->bank->world_words());
}

PathSetEvaluator::~PathSetEvaluator() = default;

double PathSetEvaluator::Reliability(const std::vector<int>& selected,
                                     int extra) {
  Impl& impl = *impl_;
  const int num_worlds = impl.bank->num_worlds();
  impl.active.clear();
  ++impl.epoch;
  impl.reach.Clear();
  // Fast path: worlds where some selected path is fully up are connected
  // without any propagation — MergePath ORs them straight into reach[t].
  for (int i : selected) impl.MergePath(i);
  if (extra >= 0) impl.MergePath(extra);
  const NodeId t = impl.universe.t();
  const int64_t seeded = WorldBank::CountBits(impl.reach.row_span(t),
                                              static_cast<size_t>(num_worlds));
  if (seeded < num_worlds) {
    // Word-parallel sweeps settle the remaining worlds, where only a
    // combination of partial paths can connect s to t.
    impl.bank->ReachabilityFixpoint(impl.universe.s(), /*backward=*/false,
                                    impl.active, &impl.reach,
                                    WorldBank::SeedPolicy::kSeedsAreFacts);
  }
  return static_cast<double>(WorldBank::CountBits(
             impl.reach.row_span(t), static_cast<size_t>(num_worlds))) /
         num_worlds;
}

namespace {

// Per-lane scratch for the shared-world estimators below: one RNG (reseeded
// per shard from its counter-based stream) plus BFS buffers and an integer
// tally that folds commutatively into the shared result.
struct WorldContext {
  explicit WorldContext(const UncertainGraph& g, size_t tally_size)
      : rng(0),
        present(g.num_edges()),
        visited(g.num_nodes()),
        tally(tally_size, 0) {
    queue.reserve(g.num_nodes());
  }

  // Flips every logical edge once: one shared world for all pairs. The flat
  // structure-of-arrays probability vector keeps this a pure (prob, draw)
  // sweep.
  void SampleWorld(const UncertainGraph& g) {
    const double* const probs = g.EdgeProbs().data();
    for (size_t e = 0; e < g.num_edges(); ++e) {
      present[e] = rng.NextBernoulli(probs[e]) ? 1 : 0;
    }
  }

  // BFS from `seeds` over the sampled world.
  void Traverse(const UncertainGraph& g, const std::vector<NodeId>& seeds) {
    visited.NewEpoch();
    queue.clear();
    for (NodeId s : seeds) {
      if (visited.Visit(s)) queue.push_back(s);
    }
    Flood(g);
  }

  // Single-seed variant: no seed-vector temporary in the per-source loop.
  void Traverse(const UncertainGraph& g, NodeId seed) {
    visited.NewEpoch();
    queue.clear();
    visited.Visit(seed);
    queue.push_back(seed);
    Flood(g);
  }

  void Flood(const UncertainGraph& g) {
    const CsrView csr = g.OutCsr();
    for (size_t head = 0; head < queue.size(); ++head) {
      const NodeId u = queue[head];
      const size_t end = csr.end(u);
      for (size_t i = csr.begin(u); i < end; ++i) {
        const NodeId v = csr.heads[i];
        if (!present[csr.edge_ids[i]] || visited.Visited(v)) continue;
        visited.Visit(v);
        queue.push_back(v);
      }
    }
  }

  Rng rng;
  std::vector<char> present;
  VisitMarker visited;
  std::vector<NodeId> queue;
  std::vector<int64_t> tally;
};

}  // namespace

std::vector<std::vector<double>> PairwiseReliability(
    const UncertainGraph& g, const std::vector<NodeId>& sources,
    const std::vector<NodeId>& targets, int num_samples, uint64_t seed,
    int num_threads) {
  RELMAX_CHECK(num_samples > 0);
  const NodeId n = g.num_nodes();
  for (NodeId v : sources) RELMAX_CHECK(v < n);
  for (NodeId v : targets) RELMAX_CHECK(v < n);

  const std::vector<SampleShard> shards = MakeSampleShards(num_samples, seed);
  // Flattened |S| x |T| hit counts.
  std::vector<int64_t> hits(sources.size() * targets.size(), 0);
  ForEachShard(
      shards.size(), num_threads,
      [&] { return std::make_unique<WorldContext>(g, hits.size()); },
      [&](std::unique_ptr<WorldContext>& ctx, size_t i) {
        ctx->rng.Reseed(shards[i].seed);
        for (int sample = 0; sample < shards[i].num_samples; ++sample) {
          ctx->SampleWorld(g);
          for (size_t si = 0; si < sources.size(); ++si) {
            ctx->Traverse(g, sources[si]);
            for (size_t ti = 0; ti < targets.size(); ++ti) {
              if (ctx->visited.Visited(targets[ti])) {
                ++ctx->tally[si * targets.size() + ti];
              }
            }
          }
        }
      },
      [&](std::unique_ptr<WorldContext>& ctx) {
        for (size_t i = 0; i < hits.size(); ++i) hits[i] += ctx->tally[i];
      });

  std::vector<std::vector<double>> result(
      sources.size(), std::vector<double>(targets.size(), 0.0));
  for (size_t si = 0; si < sources.size(); ++si) {
    for (size_t ti = 0; ti < targets.size(); ++ti) {
      result[si][ti] =
          static_cast<double>(hits[si * targets.size() + ti]) / num_samples;
    }
  }
  return result;
}

double InfluenceSpread(const UncertainGraph& g,
                       const std::vector<NodeId>& sources,
                       const std::vector<NodeId>& targets, int num_samples,
                       uint64_t seed, int num_threads) {
  RELMAX_CHECK(num_samples > 0);
  const NodeId n = g.num_nodes();
  for (NodeId v : sources) RELMAX_CHECK(v < n);
  for (NodeId v : targets) RELMAX_CHECK(v < n);

  const std::vector<SampleShard> shards = MakeSampleShards(num_samples, seed);
  int64_t reached_targets = 0;
  ForEachShard(
      shards.size(), num_threads,
      [&] { return std::make_unique<WorldContext>(g, 1); },
      [&](std::unique_ptr<WorldContext>& ctx, size_t i) {
        ctx->rng.Reseed(shards[i].seed);
        for (int sample = 0; sample < shards[i].num_samples; ++sample) {
          ctx->SampleWorld(g);
          ctx->Traverse(g, sources);
          for (NodeId t : targets) {
            ctx->tally[0] += ctx->visited.Visited(t) ? 1 : 0;
          }
        }
      },
      [&](std::unique_ptr<WorldContext>& ctx) {
        reached_targets += ctx->tally[0];
      });
  return static_cast<double>(reached_targets) / num_samples;
}

double AggregateMatrix(const std::vector<std::vector<double>>& matrix,
                       Aggregate agg) {
  RELMAX_CHECK(!matrix.empty() && !matrix[0].empty());
  double sum = 0.0;
  double mn = 1.0;
  double mx = 0.0;
  size_t count = 0;
  for (const auto& row : matrix) {
    for (double r : row) {
      sum += r;
      mn = std::min(mn, r);
      mx = std::max(mx, r);
      ++count;
    }
  }
  switch (agg) {
    case Aggregate::kAverage:
      return sum / static_cast<double>(count);
    case Aggregate::kMinimum:
      return mn;
    case Aggregate::kMaximum:
      return mx;
  }
  // Exhaustive above; a corrupt enum value must not silently read as 0.0.
  internal::CheckFailed("unhandled Aggregate", __FILE__, __LINE__);
}

}  // namespace relmax
