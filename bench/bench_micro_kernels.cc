// Micro-kernel benchmarks (google-benchmark): the primitives the solver
// pipeline is built from — MC sampling, RSS, reliability-to-all passes,
// most-reliable-path Dijkstra, Yen top-l, search-space elimination, and the
// delta-gain world ensemble.
#include <benchmark/benchmark.h>

#include "baselines/fast_gain.h"
#include "common/rng.h"
#include "core/candidates.h"
#include "gen/datasets.h"
#include "gen/queries.h"
#include "paths/most_reliable_path.h"
#include "paths/yen.h"
#include "sampling/reliability.h"
#include "sampling/rss.h"
#include "sampling/world_bank.h"

namespace relmax {
namespace {

const Dataset& TestGraph() {
  static const Dataset* dataset = [] {
    auto d = MakeDataset("lastfm", 0.5, 7);
    RELMAX_CHECK(d.ok());
    return new Dataset(*std::move(d));
  }();
  return *dataset;
}

std::pair<NodeId, NodeId> TestQuery() {
  static const auto query = [] {
    auto q = GenerateQueries(TestGraph().graph, 1, {.seed = 3});
    RELMAX_CHECK(q.ok());
    return (*q)[0];
  }();
  return query;
}

void BM_MonteCarloReliability(benchmark::State& state) {
  const auto [s, t] = TestQuery();
  MonteCarloSampler sampler(TestGraph().graph, 11);
  const int z = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.Reliability(s, t, z));
  }
  state.SetItemsProcessed(state.iterations() * z);
}
BENCHMARK(BM_MonteCarloReliability)->Arg(100)->Arg(500)->Arg(1000);

// The batched parallel MC kernel: same estimate bit-for-bit at every thread
// count (second range arg), wall-clock scaling with lanes.
void BM_MonteCarloReliabilityParallel(benchmark::State& state) {
  const auto [s, t] = TestQuery();
  const int z = static_cast<int>(state.range(0));
  const int threads = static_cast<int>(state.range(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(EstimateReliability(
        TestGraph().graph, s, t,
        {.num_samples = z, .seed = 11, .num_threads = threads}));
  }
  state.SetItemsProcessed(state.iterations() * z);
}
BENCHMARK(BM_MonteCarloReliabilityParallel)
    ->Args({2000, 1})
    ->Args({2000, 2})
    ->Args({2000, 4})
    ->Args({2000, 8})
    ->UseRealTime();

void BM_RssReliabilityParallel(benchmark::State& state) {
  const auto [s, t] = TestQuery();
  const int z = static_cast<int>(state.range(0));
  const int threads = static_cast<int>(state.range(1));
  RssSampler sampler(TestGraph().graph,
                     {.num_samples = z, .seed = 11, .num_threads = threads});
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.Reliability(s, t));
  }
  state.SetItemsProcessed(state.iterations() * z);
}
BENCHMARK(BM_RssReliabilityParallel)
    ->Args({2000, 1})
    ->Args({2000, 4})
    ->UseRealTime();

void BM_RssReliability(benchmark::State& state) {
  const auto [s, t] = TestQuery();
  const int z = static_cast<int>(state.range(0));
  RssSampler sampler(TestGraph().graph, {.num_samples = z, .seed = 11});
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.Reliability(s, t));
  }
  state.SetItemsProcessed(state.iterations() * z);
}
BENCHMARK(BM_RssReliability)->Arg(100)->Arg(500);

void BM_ReliabilityFromSourceToAll(benchmark::State& state) {
  const auto [s, t] = TestQuery();
  (void)t;
  MonteCarloSampler sampler(TestGraph().graph, 13);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.FromSource(s, 200));
  }
}
BENCHMARK(BM_ReliabilityFromSourceToAll);

void BM_MostReliablePath(benchmark::State& state) {
  const auto [s, t] = TestQuery();
  for (auto _ : state) {
    benchmark::DoNotOptimize(MostReliablePath(TestGraph().graph, s, t));
  }
}
BENCHMARK(BM_MostReliablePath);

void BM_YenTopL(benchmark::State& state) {
  const auto [s, t] = TestQuery();
  const int l = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(TopLReliablePaths(TestGraph().graph, s, t, l));
  }
}
BENCHMARK(BM_YenTopL)->Arg(10)->Arg(30);

void BM_SearchSpaceElimination(benchmark::State& state) {
  const auto [s, t] = TestQuery();
  SolverOptions options;
  options.top_r = static_cast<int>(state.range(0));
  options.elimination_samples = 300;
  options.hop_h = 3;
  for (auto _ : state) {
    auto candidates = SelectCandidates(TestGraph().graph, s, t, options);
    benchmark::DoNotOptimize(candidates);
  }
}
BENCHMARK(BM_SearchSpaceElimination)->Arg(20)->Arg(50)->Arg(100);

// The word-parallel reachability fixpoint — the inner kernel behind
// WorldBank selection, batch queries, and the index's lazy reach rows. One
// iteration floods all Z worlds from s over the full edge set into a reused
// scratch, so worlds/sec here is the number every shared-world consumer
// ultimately pays.
void BM_ReachabilityFixpoint(benchmark::State& state) {
  const auto [s, t] = TestQuery();
  (void)t;
  const int z = static_cast<int>(state.range(0));
  const WorldBank bank(TestGraph().graph,
                       {.num_samples = z, .seed = 29, .num_threads = 1});
  const std::vector<EdgeId> active = bank.AllEdges();
  bitlane::BitMatrix reach;
  for (auto _ : state) {
    bank.ReachabilityFixpoint(s, /*backward=*/false, active, &reach);
    benchmark::DoNotOptimize(reach);
  }
  state.SetItemsProcessed(state.iterations() * z);
}
BENCHMARK(BM_ReachabilityFixpoint)->Arg(500)->Arg(2000)->Arg(8000);

// Bank fill: sampling Z worlds over every edge into the bit-matrix. One
// iteration is one full bank construction (the once-per-solve cost that
// reuse_worlds amortizes).
void BM_WorldBankFill(benchmark::State& state) {
  const int z = static_cast<int>(state.range(0));
  for (auto _ : state) {
    WorldBank bank(TestGraph().graph,
                   {.num_samples = z, .seed = 31, .num_threads = 1});
    benchmark::DoNotOptimize(bank.num_worlds());
  }
  state.SetItemsProcessed(state.iterations() * z);
}
BENCHMARK(BM_WorldBankFill)->Arg(500)->Arg(2000);

void BM_WorldEnsembleBuild(benchmark::State& state) {
  const auto [s, t] = TestQuery();
  const int z = static_cast<int>(state.range(0));
  for (auto _ : state) {
    WorldEnsemble ensemble(TestGraph().graph, s, t, z, 17);
    benchmark::DoNotOptimize(ensemble.BaseReliability());
  }
}
BENCHMARK(BM_WorldEnsembleBuild)->Arg(100)->Arg(500);

}  // namespace
}  // namespace relmax

BENCHMARK_MAIN();
