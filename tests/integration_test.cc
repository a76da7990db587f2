// End-to-end integration tests: the full pipeline (dataset generation ->
// query generation -> elimination -> path extraction -> selection ->
// verification) across module boundaries, plus cross-method consistency.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <algorithm>
#include <cstdio>
#include <regex>
#include <string>

#include "baselines/greedy.h"
#include "common/rng.h"
#include "core/candidates.h"
#include "core/evaluate.h"
#include "core/multi.h"
#include "core/solver.h"
#include "gen/datasets.h"
#include "gen/queries.h"
#include "graph/graph_io.h"
#include "sampling/reliability.h"

namespace relmax {
namespace {

SolverOptions PipelineOptions() {
  SolverOptions options;
  options.budget_k = 5;
  options.zeta = 0.5;
  options.top_r = 30;
  options.top_l = 20;
  options.hop_h = 3;
  options.elimination_samples = 300;
  options.num_samples = 300;
  options.seed = 77;
  return options;
}

class DatasetPipelineSweep : public testing::TestWithParam<const char*> {};

TEST_P(DatasetPipelineSweep, EndToEndSolveOnDataset) {
  auto dataset = MakeDataset(GetParam(), 0.05, 9);
  ASSERT_TRUE(dataset.ok());
  auto queries = GenerateQueries(dataset->graph, 2,
                                 {.min_hops = 2, .max_hops = 5, .seed = 4});
  ASSERT_TRUE(queries.ok()) << queries.status().ToString();

  for (const auto& [s, t] : *queries) {
    auto solution = MaximizeReliability(dataset->graph, s, t,
                                        PipelineOptions());
    ASSERT_TRUE(solution.ok()) << GetParam();
    EXPECT_LE(solution->added_edges.size(), 5u);
    // Independent verification of the claimed reliabilities.
    const double before = EstimateReliability(
        dataset->graph, s, t, {.num_samples = 3000, .seed = 123});
    EXPECT_NEAR(solution->reliability_before, before, 0.1) << GetParam();
    const double after = EstimateReliability(
        AugmentGraph(dataset->graph, solution->added_edges), s, t,
        {.num_samples = 3000, .seed = 123});
    EXPECT_NEAR(solution->reliability_after, after, 0.1) << GetParam();
    EXPECT_GE(after + 0.05, before) << GetParam();  // additions cannot hurt
    // Every added edge respects the h-hop constraint and is genuinely new.
    for (const Edge& e : solution->added_edges) {
      EXPECT_FALSE(dataset->graph.HasEdge(e.src, e.dst));
      EXPECT_DOUBLE_EQ(e.prob, 0.5);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Datasets, DatasetPipelineSweep,
                         testing::Values("lastfm", "as_topology", "dblp",
                                         "twitter", "smallworld1",
                                         "scalefree1"));

TEST(IntegrationTest, SolverBeatsNaiveBaselineOnAverage) {
  auto dataset = MakeDataset("lastfm", 0.05, 11);
  ASSERT_TRUE(dataset.ok());
  auto queries = GenerateQueries(dataset->graph, 3,
                                 {.min_hops = 3, .max_hops = 5, .seed = 6});
  ASSERT_TRUE(queries.ok());

  double be_total = 0.0;
  double topk_total = 0.0;
  const SolverOptions options = PipelineOptions();
  for (const auto& [s, t] : *queries) {
    auto candidates = SelectCandidates(dataset->graph, s, t, options);
    ASSERT_TRUE(candidates.ok());
    auto be = MaximizeReliabilityWithCandidates(dataset->graph, s, t,
                                                *candidates, options);
    ASSERT_TRUE(be.ok());
    auto topk = SelectIndividualTopK(dataset->graph, s, t, candidates->edges,
                                     options);
    ASSERT_TRUE(topk.ok());

    auto measure = [&](const std::vector<Edge>& edges) {
      return EstimateReliability(AugmentGraph(dataset->graph, edges), s, t,
                                 {.num_samples = 4000, .seed = 99});
    };
    be_total += measure(be->added_edges);
    topk_total += measure(*topk);
  }
  // BE models edge interactions; individual top-k does not. Allow noise.
  EXPECT_GE(be_total + 0.05, topk_total);
}

TEST(IntegrationTest, GraphRoundTripPreservesSolverBehavior) {
  auto dataset = MakeDataset("smallworld1", 0.03, 13);
  ASSERT_TRUE(dataset.ok());
  const std::string path = testing::TempDir() + "/relmax_integration.graph";
  ASSERT_TRUE(WriteEdgeList(dataset->graph, path).ok());
  auto loaded = ReadEdgeList(path);
  ASSERT_TRUE(loaded.ok());

  auto queries = GenerateQueries(dataset->graph, 1,
                                 {.min_hops = 3, .max_hops = 5, .seed = 2});
  ASSERT_TRUE(queries.ok());
  const auto [s, t] = (*queries)[0];
  auto original = MaximizeReliability(dataset->graph, s, t,
                                      PipelineOptions());
  auto reloaded = MaximizeReliability(*loaded, s, t, PipelineOptions());
  ASSERT_TRUE(original.ok() && reloaded.ok());
  // Serialization canonicalizes arc order, so the sampler consumes
  // randomness differently and may pick a different — equally valid — edge
  // set. What must hold: both solutions are feasible and both improve the
  // query's reliability on the same underlying graph.
  EXPECT_LE(reloaded->added_edges.size(), 5u);
  const double before = EstimateReliability(
      dataset->graph, s, t, {.num_samples = 5000, .seed = 3});
  auto measure = [&](const std::vector<Edge>& edges) {
    return EstimateReliability(AugmentGraph(dataset->graph, edges), s, t,
                               {.num_samples = 5000, .seed = 3});
  };
  EXPECT_GE(measure(original->added_edges) + 0.02, before);
  EXPECT_GE(measure(reloaded->added_edges) + 0.02, before);
  for (const Edge& e : reloaded->added_edges) {
    EXPECT_FALSE(loaded->HasEdge(e.src, e.dst));
  }
  std::remove(path.c_str());
}

TEST(IntegrationTest, MultiAverageConsistentWithSinglePairUnion) {
  auto dataset = MakeDataset("smallworld1", 0.03, 17);
  ASSERT_TRUE(dataset.ok());
  auto query = GenerateMultiQuery(dataset->graph, 3, {.seed = 21});
  ASSERT_TRUE(query.ok());
  auto solution = MaximizeMultiReliability(dataset->graph, query->sources,
                                           query->targets,
                                           Aggregate::kAverage,
                                           PipelineOptions());
  ASSERT_TRUE(solution.ok());
  const auto before = PairwiseReliability(dataset->graph, query->sources,
                                          query->targets, 3000, 5);
  const auto after = PairwiseReliability(
      AugmentGraph(dataset->graph, solution->added_edges), query->sources,
      query->targets, 3000, 5);
  EXPECT_GE(AggregateMatrix(after, Aggregate::kAverage) + 0.02,
            AggregateMatrix(before, Aggregate::kAverage));
}

// ------------------------------------------------------ golden CLI pins
//
// Full-binary runs of relmax_cli with pinned stdout. The estimates and the
// selected edge sets are bit-identical functions of (graph file, flags,
// seed) — including the CSR arc order driving every RNG stream — so any
// regression in edge visitation order, probability bookkeeping, or flag
// plumbing fails these loudly. Wall-clock timings are normalized away;
// thread counts 1 and 4 must produce byte-identical normalized output.

// Runs relmax_cli with `args` (plus `env` assignments prefixed to the shell
// command) and returns its stdout+stderr; `*exit_code` gets the exit status.
std::string RunCliWithExit(const std::string& args, int* exit_code,
                           const std::string& env = "") {
  const std::string cmd =
      env + std::string(RELMAX_CLI_PATH) + " " + args + " 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << cmd;
  if (pipe == nullptr) return "";
  std::string out;
  char buffer[4096];
  size_t n;
  while ((n = fread(buffer, 1, sizeof(buffer), pipe)) > 0) {
    out.append(buffer, n);
  }
  const int status = pclose(pipe);
  *exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return out;
}

std::string RunCli(const std::string& args) {
  int exit_code = -1;
  const std::string out = RunCliWithExit(args, &exit_code);
  EXPECT_EQ(exit_code, 0) << args << "\n" << out;
  return out;
}

// Replaces wall-clock figures ("0.37 s") with a fixed token so the golden
// comparison only sees deterministic content.
std::string NormalizeTimings(const std::string& s) {
  static const std::regex kTiming("[0-9]+\\.[0-9]+ s");
  return std::regex_replace(s, kTiming, "<t> s");
}

// The paper's run-through Example 3 (Figure 4c core): directed, blue edges
// C->B (0.9) and C->t (0.3); s = 0, B = 1, C = 2, t = 3.
std::string WriteExample3Graph() {
  UncertainGraph g = UncertainGraph::Directed(4);
  EXPECT_TRUE(g.AddEdge(2, 1, 0.9).ok());
  EXPECT_TRUE(g.AddEdge(2, 3, 0.3).ok());
  const std::string path = testing::TempDir() + "/golden_example3.graph";
  EXPECT_TRUE(WriteEdgeList(g, path).ok());
  return path;
}

// The solver_test two-cluster fixture: dense clusters around s and t joined
// by one weak bridge.
std::string WriteTwoClusterGraph() {
  Rng rng(3);
  UncertainGraph g = UncertainGraph::Undirected(12);
  auto connect_cluster = [&](NodeId lo, NodeId hi) {
    for (NodeId u = lo; u < hi; ++u) {
      for (NodeId v = u + 1; v <= hi; ++v) {
        if (rng.NextBernoulli(0.8)) {
          (void)g.AddEdge(u, v, rng.NextDouble(0.4, 0.8));
        }
      }
    }
  };
  connect_cluster(0, 5);
  connect_cluster(6, 11);
  EXPECT_TRUE(g.AddEdge(5, 6, 0.15).ok());
  const std::string path = testing::TempDir() + "/golden_two_cluster.graph";
  EXPECT_TRUE(WriteEdgeList(g, path).ok());
  return path;
}

// Batch query workload for the Example-3 graph, exercising comments,
// duplicate queries, and unreachable pairs.
std::string WriteExample3Queries() {
  const std::string path = testing::TempDir() + "/golden_example3.queries";
  FILE* f = std::fopen(path.c_str(), "w");
  EXPECT_NE(f, nullptr);
  std::fputs(
      "# Example-3 batch: answered from one shared world bank\n"
      "2 3\n2 1\n0 3\n2 3\n1 3\n",
      f);
  std::fclose(f);
  return path;
}

class GoldenCliThreadSweep : public testing::TestWithParam<int> {};

TEST_P(GoldenCliThreadSweep, Example3SolveAndEstimateStdoutPinned) {
  const std::string graph = WriteExample3Graph();
  const std::string threads = std::to_string(GetParam());

  const std::string solve = NormalizeTimings(RunCli(
      "solve --graph " + graph +
      " --s 0 --t 3 --k 2 --zeta 0.01 --h -1 --r 12 --samples 4000"
      " --seed 11 --threads " + threads));
  EXPECT_EQ(solve,
            "method BE: reliability 0.0000 -> 0.0132 (gain 0.0132) in <t> s\n"
            "  add 0 -> 3 (p = 0.010)\n"
            "  add 0 -> 2 (p = 0.010)\n"
            "candidates: 2 after elimination, 2 on top-30 paths\n");

  const std::string estimate = NormalizeTimings(RunCli(
      "estimate --graph " + graph +
      " --s 2 --t 3 --samples 20000 --seed 5 --threads " + threads));
  EXPECT_EQ(estimate, "R(2, 3) = 0.3004   (20000 samples, <t> s)\n");
}

TEST_P(GoldenCliThreadSweep, Example3BatchStdoutPinned) {
  const std::string graph = WriteExample3Graph();
  const std::string queries = WriteExample3Queries();
  const std::string threads = std::to_string(GetParam());

  // Shared-world path: worlds sampled once, one flood per distinct source
  // (2, 0, 1), duplicate (2, 3) served from the deduplicated pair set.
  const std::string batch = NormalizeTimings(RunCli(
      "batch --graph " + graph + " --queries " + queries +
      " --samples 20000 --seed 5 --threads " + threads));
  EXPECT_EQ(batch,
            "R(2, 3) = 0.3004\n"
            "R(2, 1) = 0.9006\n"
            "R(0, 3) = 0.0000\n"
            "R(2, 3) = 0.3004\n"
            "R(1, 3) = 0.0000\n"
            "batch: 5 queries, 4 distinct pairs, 3 floods, "
            "0 fallback estimates, 0 index answers, 0 cache hits "
            "(20000 samples, bank bytes 5008, <t> s)\n");

  // Index path: same bank, same bits — the R values must equal the
  // shared-flood run digit for digit. 4 nodes -> 2 label bits; 20000 worlds
  // -> 313 words -> 4 * 2 * 313 * 8 = 20032 label bytes; the build labels
  // all 20000 worlds; the acyclic Example-3 graph has singleton SCCs, so
  // each of the 3 distinct sources needs one lazy reach flood.
  const std::string indexed = NormalizeTimings(RunCli(
      "batch --graph " + graph + " --queries " + queries +
      " --samples 20000 --seed 5 --index --threads " + threads));
  EXPECT_EQ(indexed,
            "R(2, 3) = 0.3004\n"
            "R(2, 1) = 0.9006\n"
            "R(0, 3) = 0.0000\n"
            "R(2, 3) = 0.3004\n"
            "R(1, 3) = 0.0000\n"
            "batch: 5 queries, 4 distinct pairs, 0 floods, "
            "0 fallback estimates, 4 index answers, 0 cache hits "
            "(20000 samples, bank bytes 5008, <t> s)\n"
            "index: 20000 worlds, 2 label bits, 20032 label bytes, "
            "20000 worlds relabeled, 3 reach floods\n");

  // Per-query fallback: one estimate per distinct pair. R(2, 3) must match
  // the `estimate` golden above exactly — the fallback IS that code path.
  const std::string fallback = NormalizeTimings(RunCli(
      "batch --graph " + graph + " --queries " + queries +
      " --samples 20000 --seed 5 --reuse-worlds=0 --threads " + threads));
  EXPECT_EQ(fallback,
            "R(2, 3) = 0.3004\n"
            "R(2, 1) = 0.8962\n"
            "R(0, 3) = 0.0000\n"
            "R(2, 3) = 0.3004\n"
            "R(1, 3) = 0.0000\n"
            "batch: 5 queries, 4 distinct pairs, 0 floods, "
            "4 fallback estimates, 0 index answers, 0 cache hits "
            "(20000 samples, bank bytes 0, <t> s)\n");
}

TEST_P(GoldenCliThreadSweep, Example3IndexFileStdoutPinned) {
  const std::string graph = WriteExample3Graph();
  const std::string queries = WriteExample3Queries();
  const std::string threads = std::to_string(GetParam());
  const std::string index_file =
      testing::TempDir() + "/golden_example3_t" + threads + ".rmx";
  std::remove(index_file.c_str());

  // The index-file path varies with the temp dir; goldens pin content only.
  const auto normalize = [&](std::string s) {
    size_t at;
    while ((at = s.find(index_file)) != std::string::npos) {
      s.replace(at, index_file.size(), "<index>");
    }
    return NormalizeTimings(s);
  };

  // No file yet: batch silently builds and saves (generation 1). R values
  // must equal the --index golden digit for digit — persistence cannot
  // change a single bit of any answer.
  const std::string built = normalize(RunCli(
      "batch --graph " + graph + " --queries " + queries +
      " --samples 20000 --seed 5 --index-file " + index_file +
      " --threads " + threads));
  EXPECT_EQ(built,
            "R(2, 3) = 0.3004\n"
            "R(2, 1) = 0.9006\n"
            "R(0, 3) = 0.0000\n"
            "R(2, 3) = 0.3004\n"
            "R(1, 3) = 0.0000\n"
            "batch: 5 queries, 4 distinct pairs, 0 floods, "
            "0 fallback estimates, 4 index answers, 0 cache hits "
            "(20000 samples, bank bytes 5008, <t> s)\n"
            "index: 20000 worlds, 2 label bits, 20032 label bytes, "
            "20000 worlds relabeled, 3 reach floods\n"
            "index_io: 0 loads, 1 saves, 0 load failures, "
            "generation 1, 105384 file bytes\n");

  // `index load` validates the full file (key, layout, checksums) and
  // reports its shape. The byte size pins the on-disk format itself: header
  // 88 + table + 64-byte-aligned sections (bank 5120, labels 20032,
  // compaction 80000) + footer.
  const std::string loaded = normalize(RunCli(
      "index load --graph " + graph + " --index-file " + index_file +
      " --samples 20000 --seed 5 --threads " + threads));
  EXPECT_EQ(loaded,
            "loaded <index>: generation 1, 105384 bytes (20000 worlds, "
            "2 label bits, 20032 label bytes, <t> s)\n");

  // Second batch: mmap-load, no sampling, no relabeling — "0 worlds
  // relabeled" is the load path's signature. Answers identical again.
  const std::string reloaded = normalize(RunCli(
      "batch --graph " + graph + " --queries " + queries +
      " --samples 20000 --seed 5 --index-file " + index_file +
      " --threads " + threads));
  EXPECT_EQ(reloaded,
            "R(2, 3) = 0.3004\n"
            "R(2, 1) = 0.9006\n"
            "R(0, 3) = 0.0000\n"
            "R(2, 3) = 0.3004\n"
            "R(1, 3) = 0.0000\n"
            "batch: 5 queries, 4 distinct pairs, 0 floods, "
            "0 fallback estimates, 4 index answers, 0 cache hits "
            "(20000 samples, bank bytes 5008, <t> s)\n"
            "index: 20000 worlds, 2 label bits, 20032 label bytes, "
            "0 worlds relabeled, 3 reach floods\n"
            "index_io: 1 loads, 0 saves, 0 load failures, "
            "generation 1, 105384 file bytes\n");

  // Explicit `index save` rebuilds and atomically overwrites (generation 1
  // again — a fresh save, not a republish).
  const std::string saved = normalize(RunCli(
      "index save --graph " + graph + " --index-file " + index_file +
      " --samples 20000 --seed 5 --threads " + threads));
  EXPECT_EQ(saved,
            "saved <index>: generation 1, 105384 bytes (20000 worlds, "
            "2 label bits, 20032 label bytes, <t> s)\n");
}

TEST_P(GoldenCliThreadSweep, TwoClusterSolveAndEstimateStdoutPinned) {
  const std::string graph = WriteTwoClusterGraph();
  const std::string threads = std::to_string(GetParam());

  const std::string solve = NormalizeTimings(RunCli(
      "solve --graph " + graph +
      " --s 0 --t 11 --k 3 --r 12 --l 15 --h -1 --samples 400"
      " --elim-samples 400 --seed 21 --threads " + threads));
  EXPECT_EQ(solve,
            "method BE: reliability 0.1400 -> 0.8825 (gain 0.7425) in <t> s\n"
            "  add 0 -> 11 (p = 0.500)\n"
            "  add 4 -> 11 (p = 0.500)\n"
            "  add 3 -> 11 (p = 0.500)\n"
            "candidates: 40 after elimination, 14 on top-15 paths\n");

  const std::string estimate = NormalizeTimings(RunCli(
      "estimate --graph " + graph +
      " --s 0 --t 11 --samples 20000 --seed 5 --threads " + threads));
  EXPECT_EQ(estimate, "R(0, 11) = 0.1197   (20000 samples, <t> s)\n");
}

INSTANTIATE_TEST_SUITE_P(Threads, GoldenCliThreadSweep, testing::Values(1, 4));

// Malformed numeric and boolean flag values must stop the run with exit
// status 2 and a message naming the flag and the value — never run with a
// guessed value (`--threads abc` must not read as 0, "all cores").
TEST(GoldenCliFlagErrors, MalformedValuesExitTwo) {
  const std::string graph = WriteExample3Graph();
  const std::string queries = WriteExample3Queries();
  const auto expect_rejected = [](const std::string& args,
                                  const std::string& want,
                                  const std::string& env = "") {
    int exit_code = -1;
    const std::string out = RunCliWithExit(args, &exit_code, env);
    EXPECT_EQ(exit_code, 2) << args << "\n" << out;
    EXPECT_EQ(out, want) << args;
  };
  const std::string estimate = "estimate --graph " + graph + " --s 2 --t 3";
  expect_rejected(estimate + " --threads abc",
                  "estimate: invalid value 'abc' for --threads: want an "
                  "integer\n");
  expect_rejected(estimate + " --samples 12x",
                  "estimate: invalid value '12x' for --samples: want an "
                  "integer\n");
  expect_rejected(
      "batch --graph " + graph + " --queries " + queries + " --index=ture",
      "batch: invalid value 'ture' for --index: want true|false|1|0|yes|no\n");
  expect_rejected("solve --graph " + graph + " --s 0 --t 3 --zeta 0.5.1",
                  "solve: invalid value '0.5.1' for --zeta: want a finite "
                  "number\n");
  expect_rejected(estimate + " --seed 99999999999999999999",
                  "estimate: invalid value '99999999999999999999' for "
                  "--seed: want an integer\n");
  expect_rejected(estimate,
                  "estimate: invalid value 'two' for --threads (from "
                  "RELMAX_THREADS): want an integer\n",
                  "RELMAX_THREADS=two ");
}

}  // namespace
}  // namespace relmax
