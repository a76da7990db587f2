// Batch multi-query throughput: the naive per-query loop (one full
// EstimateReliability sampling pass per query — the only option before the
// query engine existed) against QueryEngine's shared-world batch path, which
// samples Z worlds once and runs one word-parallel flood per distinct
// source. The workload is an S × T query grid, the regime the engine is
// built for: every query shares its source with T − 1 others.
//
// Beyond throughput, the harness re-verifies the engine's determinism
// contract on every size: batch answers bit-identical across --threads 1/4
// and bit-identical to per-query EstimateSt() on a fresh engine. A non-empty
// --json PATH writes the result entry in the canonical BENCH_*.json shape
// ({label, command, environment, benchmarks}) for tools/check_bench_json.py.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/timer.h"
#include "query/query_engine.h"
#include "query/query_set.h"
#include "sampling/reliability.h"

namespace relmax {
namespace bench {
namespace {

struct SizeResult {
  int num_queries = 0;
  int num_sources = 0;
  double naive_seconds = 0.0;
  double batched_seconds = 0.0;
  double cached_seconds = 0.0;
  bool identical = false;  // threads 1/4 and batch == per-query EstimateSt
};

SizeResult RunSize(const UncertainGraph& g, int num_sources, int num_targets,
                   int num_samples, uint64_t seed) {
  SizeResult r;
  r.num_sources = num_sources;
  r.num_queries = num_sources * num_targets;
  // Query grid: sources from the front of the id range, targets from the
  // middle — arbitrary but fixed, so runs are comparable.
  std::vector<StQuery> pairs;
  QuerySet set;
  const NodeId n = g.num_nodes();
  for (int si = 0; si < num_sources; ++si) {
    for (int ti = 0; ti < num_targets; ++ti) {
      const NodeId s = static_cast<NodeId>(si);
      const NodeId t = static_cast<NodeId>((n / 2 + ti) % n);
      pairs.push_back({s, t});
      set.AddSt(s, t);
    }
  }

  // Naive loop: what a caller does without the engine — one independent
  // sampling pass per query.
  std::vector<double> naive(pairs.size());
  WallTimer timer;
  for (size_t i = 0; i < pairs.size(); ++i) {
    naive[i] = EstimateReliability(
        g, pairs[i].s, pairs[i].t,
        {.num_samples = num_samples, .seed = seed});
  }
  r.naive_seconds = timer.ElapsedSeconds();

  // Batched: one engine, one Answer() call.
  QueryEngineOptions options;
  options.num_samples = num_samples;
  options.seed = seed;
  QueryEngine engine(g, options);
  timer.Restart();
  auto batched = engine.Answer(set);
  r.batched_seconds = timer.ElapsedSeconds();
  if (!batched.ok()) {
    std::fprintf(stderr, "batch failed: %s\n",
                 batched.status().ToString().c_str());
    return r;
  }

  // Repeat-query traffic: the whole batch served from the result cache.
  timer.Restart();
  auto cached = engine.Answer(set);
  r.cached_seconds = timer.ElapsedSeconds();

  // Determinism contract. Thread invariance, then batch-composition
  // invariance spot-checked on every 8th pair (full per-query re-estimation
  // would dwarf the timed section at large sizes).
  QueryEngineOptions four = options;
  four.num_threads = 4;
  QueryEngine engine4(g, four);
  auto batched4 = engine4.Answer(set);
  r.identical = batched4.ok() && cached.ok() &&
                batched4->st_values == batched->st_values &&
                cached->st_values == batched->st_values;
  for (size_t i = 0; r.identical && i < pairs.size(); i += 8) {
    QueryEngine solo(g, options);
    const auto value = solo.EstimateSt(pairs[i].s, pairs[i].t);
    r.identical = value.ok() && *value == batched->st_values[i];
  }
  return r;
}

void Run(const Flags& flags) {
  const std::string dataset_name = flags.GetString("dataset", "as_topology");
  const double scale = flags.GetDouble("scale", 0.1);
  const int num_samples = flags.GetInt32("samples", 2000);
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 7));
  const int max_queries = flags.GetInt32("max-queries", 256);
  const std::string json_path = flags.GetString("json", "");

  auto dataset = MakeDataset(dataset_name, scale, seed);
  if (!dataset.ok()) {
    std::fprintf(stderr, "dataset failed: %s\n",
                 dataset.status().ToString().c_str());
    std::exit(1);
  }
  const UncertainGraph& g = dataset->graph;
  std::printf("=== Batch query engine: naive per-query loop vs shared-world "
              "batch ===\n");
  std::printf("%s scale %.2f: %u nodes, %zu edges; Z = %d, seed = %llu\n\n",
              dataset_name.c_str(), scale, g.num_nodes(), g.num_edges(),
              num_samples, static_cast<unsigned long long>(seed));

  TablePrinter table({"Queries", "Sources", "Naive q/s", "Batched q/s",
                      "Speedup", "Cached q/s", "Identical"});
  std::vector<SizeResult> results;
  bool all_identical = true;
  for (const auto& [sources, targets] :
       {std::pair{4, 4}, std::pair{8, 8}, std::pair{8, 32}}) {
    if (sources * targets > max_queries) continue;
    const SizeResult r = RunSize(g, sources, targets, num_samples, seed);
    results.push_back(r);
    all_identical = all_identical && r.identical;
    const double naive_qps = r.num_queries / r.naive_seconds;
    const double batched_qps = r.num_queries / r.batched_seconds;
    table.AddRow({Fmt(r.num_queries), Fmt(r.num_sources), Fmt(naive_qps, 1),
                  Fmt(batched_qps, 1),
                  Fmt(r.naive_seconds / r.batched_seconds, 2),
                  Fmt(r.num_queries / std::max(r.cached_seconds, 1e-9), 1),
                  r.identical ? "yes" : "NO"});
    std::fflush(stdout);
  }
  table.Print();
  std::printf(
      "\nthe batched path pays the world bank once (Z x edges coin flips)\n"
      "and one reachability flood per distinct source, so its advantage\n"
      "grows with queries-per-source; the cached column is repeat traffic\n"
      "served entirely from the (graph version, Z, seed)-keyed result "
      "cache.\n");

  // The bench doubles as the determinism check the bench-smoke CI job runs
  // on the real dataset: a broken contract must fail the job, not just
  // print "NO" in a green log. (The JSON below is still written first so
  // the failing run's numbers are inspectable.)
  const auto enforce_identical = [&all_identical] {
    if (all_identical) return;
    std::fprintf(stderr,
                 "FAIL: batch answers were not bit-identical across "
                 "threads / cache replay / batch composition\n");
    std::exit(1);
  };
  if (json_path.empty()) {
    enforce_identical();
    return;
  }
  std::string json = "{\n  \"label\": \"batch_vs_naive\",\n";
  json += "  \"command\": \"bench_batch_queries --dataset " + dataset_name +
          " --scale " + Fmt(scale, 2) + " --samples " +
          std::to_string(num_samples) + " --seed " + std::to_string(seed) +
          "\",\n";
  json += "  \"environment\": " +
          EnvironmentJson("WallTimer harness",
                          "naive loop = one EstimateReliability pass per "
                          "query; batched = QueryEngine shared WorldBank, "
                          "one flood per distinct source") +
          ",\n  \"benchmarks\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const SizeResult& r = results[i];
    json += "    {\"name\": \"BatchQueries/" +
            std::to_string(r.num_queries) + "\", \"queries\": " +
            std::to_string(r.num_queries) + ", \"sources\": " +
            std::to_string(r.num_sources) + ", \"naive_seconds\": " +
            Fmt(r.naive_seconds, 6) + ", \"batched_seconds\": " +
            Fmt(r.batched_seconds, 6) + ", \"cached_seconds\": " +
            Fmt(r.cached_seconds, 6) + ", \"speedup\": " +
            Fmt(r.naive_seconds / r.batched_seconds, 2) +
            ", \"bit_identical\": " + (r.identical ? "true" : "false") + "}" +
            (i + 1 < results.size() ? "," : "") + "\n";
  }
  json += "  ]\n}\n";
  FILE* f = std::fopen(json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    std::exit(1);
  }
  std::fputs(json.c_str(), f);
  std::fclose(f);
  std::printf("wrote %s\n", json_path.c_str());
  enforce_identical();
}

}  // namespace
}  // namespace bench
}  // namespace relmax

int main(int argc, char** argv) {
  relmax::bench::Run(relmax::Flags::Parse(argc, argv));
  return 0;
}
