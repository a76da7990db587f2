// Layer probes: direct, timed calls into each module's public functions on
// one workload's graph and pairs. They run only in traced runs, after the
// measured loop, so they never touch an end-to-end number.
#include <algorithm>
#include <bit>
#include <memory>
#include <thread>
#include <unordered_set>

#include "common/logging.h"
#include "core/candidates.h"
#include "core/evaluate.h"
#include "core/selection.h"
#include "index/reliability_index.h"
#include "paths/yen.h"
#include "query/query_engine.h"
#include "sampling/bitlane.h"
#include "sampling/reliability.h"
#include "sampling/world_view.h"
#include "serve/serve_core.h"
#include "workloads.h"

namespace perfbench {
namespace {

using relmax::StQuery;
using relmax::UncertainGraph;

void Put(LayerMap* layers, const std::string& name, double value,
         const std::string& unit) {
  (*layers)[name] = {value, unit};
}

double MedianMs(const Tracer& tracer, const char* span) {
  return 1e3 * Median(tracer.Durations(span));
}

void ProbeSampling(const ProbeInputs& in, Tracer* tracer, LayerMap* layers) {
  const UncertainGraph& g = *in.graph;
  relmax::WorldViewOptions options;
  options.num_samples = in.num_samples;
  options.seed = in.seed;
  std::unique_ptr<relmax::WorldView> bank;
  for (int rep = 0; rep < 3; ++rep) {
    auto span = tracer->Open("probe.sampling.bank_fill");
    bank = relmax::MakeWorldView(g, options);
  }
  Put(layers, "sampling.bank_fill_s",
      Median(tracer->Durations("probe.sampling.bank_fill")), "s");

  // One flood per distinct source of the first pairs.
  const std::vector<relmax::EdgeId> all_edges = bank->AllEdges();
  relmax::bitlane::BitMatrix reach;
  std::unordered_set<NodeId> flooded;
  std::vector<double> blocks;
  for (const StQuery& q : in.pairs) {
    if (flooded.size() == 16) break;
    if (!flooded.insert(q.s).second) continue;
    auto span = tracer->Open("probe.sampling.flood");
    blocks.push_back(static_cast<double>(
        bank->ReachabilityFixpoint(q.s, /*backward=*/false, all_edges,
                                   &reach)));
  }
  Put(layers, "sampling.flood_ms", MedianMs(*tracer, "probe.sampling.flood"),
      "ms");
  Put(layers, "sampling.flood_blocks", Mean(blocks), "count");

  relmax::SampleOptions sample;
  sample.num_samples = in.num_samples;
  sample.seed = in.seed;
  for (size_t i = 0; i < std::min<size_t>(16, in.pairs.size()); ++i) {
    auto span = tracer->Open("probe.sampling.estimate");
    (void)relmax::EstimateReliability(g, in.pairs[i].s, in.pairs[i].t, sample);
  }
  Put(layers, "sampling.estimate_ms",
      MedianMs(*tracer, "probe.sampling.estimate"), "ms");
}

void ProbeQuery(const ProbeInputs& in, Tracer* tracer, LayerMap* layers) {
  relmax::QueryEngineOptions options;
  options.num_samples = in.num_samples;
  options.seed = in.seed;
  relmax::QueryEngine engine(*in.graph, options);
  relmax::QuerySet set;
  for (size_t i = 0; i < std::min<size_t>(64, in.pairs.size()); ++i) {
    set.AddSt(in.pairs[i].s, in.pairs[i].t);
  }
  // The same batch twice: a cold pass that floods, then a warm pass that
  // the result cache answers.
  double queries = 0.0, floods = 0.0, hits = 0.0;
  for (int pass = 0; pass < 2; ++pass) {
    auto span = tracer->Open("probe.query.answer");
    auto result = engine.Answer(set);
    RELMAX_CHECK(result.ok());
    queries += static_cast<double>(result->stats.num_queries);
    floods += static_cast<double>(result->stats.floods);
    hits += static_cast<double>(result->stats.cache_hits);
  }
  double total_ms = 0.0;
  for (double d : tracer->Durations("probe.query.answer")) total_ms += 1e3 * d;
  Put(layers, "query.answer_ms", total_ms / queries, "ms");
  Put(layers, "query.floods_per_query", floods / queries, "ratio");
  Put(layers, "query.cache_hit_ratio", hits / queries, "ratio");
}

void ProbeIndex(const ProbeInputs& in, Tracer* tracer, LayerMap* layers) {
  // A standalone replica, as one serve lane holds it: graph copy, bank,
  // index.
  UncertainGraph replica = *in.graph;
  relmax::WorldViewOptions options;
  options.num_samples = in.num_samples;
  options.seed = in.seed;
  std::vector<std::unique_ptr<relmax::WorldView>> banks;
  banks.push_back(relmax::MakeWorldView(replica, options));
  relmax::ReliabilityIndex::Options index_options;
  RELMAX_CHECK(relmax::ReliabilityIndex::Fits(replica, in.num_samples,
                                              index_options));
  std::unique_ptr<relmax::ReliabilityIndex> index;
  {
    auto span = tracer->Open("probe.index.build");
    index = std::make_unique<relmax::ReliabilityIndex>(*banks.back(),
                                                       index_options);
  }
  Put(layers, "index.build_s", Median(tracer->Durations("probe.index.build")),
      "s");

  const size_t queries = std::min<size_t>(256, in.pairs.size());
  {
    auto span = tracer->Open("probe.index.query");
    for (size_t i = 0; i < queries; ++i) {
      (void)index->Query(in.pairs[i].s, in.pairs[i].t);
    }
  }
  Put(layers, "index.query_us",
      1e6 * Median(tracer->Durations("probe.index.query")) /
          static_cast<double>(queries),
      "us");

  // Serve-style nudges: refill the bank, diff it against the old one, and
  // relabel only the affected worlds.
  relmax::Rng rng(in.seed ^ 0x1dea);
  std::vector<double> worlds;
  for (int rep = 0; rep < 3; ++rep) {
    ApplyNudge(&replica, MakeNudge(replica, 0.05, rng));
    auto span = tracer->Open("probe.index.update");
    banks.push_back(relmax::MakeWorldView(replica, options));
    const std::vector<uint64_t> affected = relmax::ReliabilityIndex::DiffWorlds(
        *banks[banks.size() - 2], *banks.back());
    index->ApplyBankUpdate(*banks.back(), affected);
    size_t count = 0;
    for (uint64_t word : affected) count += std::popcount(word);
    worlds.push_back(static_cast<double>(count));
  }
  Put(layers, "index.update_ms", MedianMs(*tracer, "probe.index.update"),
      "ms");
  Put(layers, "index.update_worlds", Median(worlds), "count");
}

void ProbeServe(const ProbeInputs& in, Tracer* tracer, LayerMap* layers) {
  relmax::serve::ServeOptions options;
  options.engine.num_samples = in.num_samples;
  options.engine.seed = in.seed;
  relmax::serve::ServeCore core(*in.graph, options);
  // 64 reads one millisecond apart, then one write.
  const Clock::time_point start = Clock::now();
  std::vector<double> lag_ms;
  const size_t reads = std::min<size_t>(64, in.pairs.size());
  for (size_t i = 0; i < reads; ++i) {
    const Clock::time_point due = start + std::chrono::milliseconds(i);
    std::this_thread::sleep_until(due);
    lag_ms.push_back(1e3 * SecondsSince(due));
    auto span = tracer->Open("probe.serve.submit");
    core.Submit(in.pairs[i].s, in.pairs[i].t,
                [](const relmax::StatusOr<double>&, uint64_t) {});
  }
  core.Drain();
  relmax::Rng rng(in.seed ^ 0x5e7e);
  const Nudge nudge = MakeNudge(*in.graph, 0.05, rng);
  {
    auto span = tracer->Open("probe.serve.publish");
    RELMAX_CHECK(core.UpdateEdgeProb(nudge.u, nudge.v, nudge.p).ok());
  }
  const relmax::serve::ServeStats stats = core.Stats();
  Put(layers, "serve.submit_us",
      1e6 * Median(tracer->Durations("probe.serve.submit")), "us");
  Put(layers, "serve.window_size_mean",
      static_cast<double>(stats.answered) /
          static_cast<double>(std::max<uint64_t>(stats.batches, 1)),
      "count");
  Put(layers, "serve.publish_ms", MedianMs(*tracer, "probe.serve.publish"),
      "ms");
  Put(layers, "serve.generator_lag_ms", Median(lag_ms), "ms");
}

// The solver pipeline stage by stage, as MaximizeReliability runs it (BE,
// paths on the eliminated subgraph).
void ProbeSolver(const ProbeInputs& in, Tracer* tracer, LayerMap* layers) {
  const UncertainGraph& g = *in.graph;
  relmax::SolverOptions options;  // k=10, ζ=0.5, r=100, l=30, h=3, Z=500
  options.seed = in.seed;
  relmax::SampleOptions reference;
  reference.num_samples = 2 * options.num_samples;
  reference.seed = in.seed ^ 0x9a1;
  reference.num_threads = 0;
  std::vector<double> candidate_edges, paths_considered, gains;
  for (const StQuery& q : in.solve_pairs) {
    const auto candidates = [&] {
      auto span = tracer->Open("probe.core.candidates");
      return relmax::SelectCandidates(g, q.s, q.t, options);
    }();
    RELMAX_CHECK(candidates.ok());
    candidate_edges.push_back(static_cast<double>(candidates->edges.size()));
    const UncertainGraph g_plus = relmax::AugmentGraph(g, candidates->edges);

    std::vector<NodeId> nodes;
    std::unordered_set<NodeId> seen;
    auto push = [&](NodeId v) {
      if (seen.insert(v).second) nodes.push_back(v);
    };
    push(q.s);
    push(q.t);
    for (NodeId v : candidates->from_source) push(v);
    for (NodeId v : candidates->to_target) push(v);
    auto sub = g_plus.InducedSubgraph(nodes);
    RELMAX_CHECK(sub.ok());
    std::vector<relmax::PathResult> paths;
    {
      auto span = tracer->Open("probe.paths.top_l");
      paths = relmax::TopLReliablePaths(*sub, 0, 1, options.top_l);
    }
    for (relmax::PathResult& path : paths) {
      for (NodeId& v : path.nodes) v = nodes[v];
    }
    const std::vector<relmax::AnnotatedPath> annotated =
        relmax::AnnotatePaths(g_plus, paths, candidates->edges);
    paths_considered.push_back(static_cast<double>(annotated.size()));
    std::vector<int> chosen;
    {
      auto span = tracer->Open("probe.core.selection");
      chosen = relmax::SelectEdgesByPathBatches(g_plus, q.s, q.t, annotated,
                                                options);
    }
    std::vector<relmax::Edge> added;
    for (int i : chosen) added.push_back(candidates->edges[i]);
    gains.push_back(relmax::EstimateReliability(relmax::AugmentGraph(g, added),
                                                q.s, q.t, reference) -
                    relmax::EstimateReliability(g, q.s, q.t, reference));
  }
  Put(layers, "core.candidates_ms", MedianMs(*tracer, "probe.core.candidates"),
      "ms");
  Put(layers, "core.candidate_edges", Mean(candidate_edges), "count");
  Put(layers, "paths.top_l_ms", MedianMs(*tracer, "probe.paths.top_l"), "ms");
  Put(layers, "core.selection_ms", MedianMs(*tracer, "probe.core.selection"),
      "ms");
  Put(layers, "core.paths_considered", Mean(paths_considered), "count");
  Put(layers, "core.gain_mean", Mean(gains), "prob");
}

}  // namespace

void ProbeLayers(const ProbeInputs& inputs, Tracer* tracer, LayerMap* layers) {
  ProbeSampling(inputs, tracer, layers);
  ProbeQuery(inputs, tracer, layers);
  ProbeIndex(inputs, tracer, layers);
  ProbeServe(inputs, tracer, layers);
  ProbeSolver(inputs, tracer, layers);
}

}  // namespace perfbench
