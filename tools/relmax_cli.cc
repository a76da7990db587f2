// relmax — command-line driver for the library.
//
//   relmax gen      --dataset lastfm --scale 0.1 --out graph.txt
//   relmax stats    --graph graph.txt
//   relmax estimate --graph graph.txt --s 3 --t 99 [--estimator rss]
//   relmax solve    --graph graph.txt --s 3 --t 99 --k 10 --zeta 0.5
//   relmax multi    --graph graph.txt --sources 1,2 --targets 8,9
//                   --aggregate min --k 10
//   relmax budget   --graph graph.txt --s 3 --t 99 --budget 2.0 --max-edges 5
//   relmax batch    --graph graph.txt --queries queries.txt [--estimator rss]
//                   [--index] [--index-file index.rmx]
//   relmax index    save --graph graph.txt --index-file index.rmx
//   relmax index    load --graph graph.txt --index-file index.rmx
//   relmax serve    --graph graph.txt [--port 0] [--window-us 2000]
//                   [--max-batch 256] [--max-queue 1024] [--lanes 1]
//
// Every command accepts --seed and prints deterministic results. Sampling
// commands accept --threads N (0 = all cores); results do not depend on it.
// Greedy solvers accept --reuse-worlds=0 to disable the shared possible-world
// bank (common random numbers) and re-sample per evaluation instead; `batch`
// honors the same flag for its shared multi-query world bank, and with
// --index answers from the offline per-world connectivity index
// (bit-identical to the flood path; prints an extra `index:` stats line).
// --index-file persists that index as one mmap-able file (index/index_io.h):
// `index save` builds and writes it, `index load` validates and loads it, and
// `batch --index-file` loads it when present (O(file size), no sampling) or
// builds and saves it when missing, printing an `index_io:` stats line.
// Malformed numeric or boolean flag values (--threads abc, --samples 12x,
// --index=ture) name the flag and exit 2 instead of running with a guess.
// `serve` holds the graph (and warm bank / loaded index) resident and answers
// a line protocol on stdin (or a loopback TCP port with --port; 0 picks an
// ephemeral one): micro-batched queries, non-blocking edge updates via epoch
// snapshots, typed shed responses under overload. Query responses are
// bit-identical to `batch` rows for the same (version, estimator, seed, Z,
// query) tuple, so scripted streams diff cleanly against batch output.
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "common/flags.h"
#include "common/table.h"
#include "common/timer.h"
#include "core/budget_extension.h"
#include "core/evaluate.h"
#include "core/multi.h"
#include "core/solver.h"
#include "gen/datasets.h"
#include "graph/graph_io.h"
#include "graph/graph_stats.h"
#include "index/index_io.h"
#include "index/reliability_index.h"
#include "query/query_engine.h"
#include "query/query_set.h"
#include "sampling/reliability.h"
#include "serve/server.h"
#include "sampling/rss.h"
#include "sampling/world_bank.h"

namespace relmax {
namespace {

int Fail(const std::string& message) {
  std::fprintf(stderr, "relmax: %s\n", message.c_str());
  return 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: relmax <gen|stats|estimate|solve|multi|budget|batch|"
               "index|serve> [--flags]\n"
               "run with a command to see its required flags\n");
  return 2;
}

StatusOr<UncertainGraph> LoadGraph(const Flags& flags) {
  const std::string path = flags.GetString("graph", "");
  if (path.empty()) return Status::InvalidArgument("--graph is required");
  return ReadEdgeList(path);
}

std::vector<NodeId> ParseNodeList(const std::string& csv) {
  std::vector<NodeId> nodes;
  size_t pos = 0;
  while (pos < csv.size()) {
    size_t comma = csv.find(',', pos);
    if (comma == std::string::npos) comma = csv.size();
    nodes.push_back(
        static_cast<NodeId>(std::stoul(csv.substr(pos, comma - pos))));
    pos = comma + 1;
  }
  return nodes;
}

// Unknown flag values fail loudly: a typo like --estimator=rrs silently
// running Monte Carlo (the old behavior) is indistinguishable from success.
StatusOr<Estimator> ParseEstimator(const Flags& flags) {
  const std::string name = flags.GetString("estimator", "mc");
  if (name == "mc") return Estimator::kMonteCarlo;
  if (name == "rss") return Estimator::kRss;
  return Status::InvalidArgument("unknown --estimator (want mc|rss): " + name);
}

StatusOr<SolverOptions> OptionsFromFlags(const Flags& flags) {
  SolverOptions options;
  options.budget_k = static_cast<int>(flags.GetInt("k", 10));
  options.zeta = flags.GetDouble("zeta", 0.5);
  options.top_r = static_cast<int>(flags.GetInt("r", 100));
  options.top_l = static_cast<int>(flags.GetInt("l", 30));
  options.hop_h = static_cast<int>(flags.GetInt("h", 3));
  options.num_samples = static_cast<int>(flags.GetInt("samples", 500));
  options.elimination_samples =
      static_cast<int>(flags.GetInt("elim-samples", 500));
  options.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  options.num_threads = static_cast<int>(flags.GetInt("threads", 1));
  options.reuse_worlds = flags.GetBool("reuse-worlds", true);
  auto estimator = ParseEstimator(flags);
  RELMAX_RETURN_IF_ERROR(estimator.status());
  options.estimator = *estimator;
  return options;
}

int CmdGen(const Flags& flags) {
  const std::string name = flags.GetString("dataset", "");
  if (name == "list") {
    for (const std::string& d : DatasetNames()) std::printf("%s\n", d.c_str());
    return 0;
  }
  const std::string out = flags.GetString("out", "");
  if (name.empty() || out.empty()) {
    return Fail("gen requires --dataset and --out (see --dataset list)");
  }
  auto dataset = MakeDataset(name, flags.GetDouble("scale", 0.1),
                             static_cast<uint64_t>(flags.GetInt("seed", 42)));
  if (!dataset.ok()) return Fail(dataset.status().ToString());
  const Status st = WriteEdgeList(dataset->graph, out);
  if (!st.ok()) return Fail(st.ToString());
  std::printf("wrote %s: %u nodes, %zu edges (%s)\n", out.c_str(),
              dataset->graph.num_nodes(), dataset->graph.num_edges(),
              dataset->graph.directed() ? "directed" : "undirected");
  return 0;
}

int CmdStats(const Flags& flags) {
  auto graph = LoadGraph(flags);
  if (!graph.ok()) return Fail(graph.status().ToString());
  const GraphStats stats = ComputeGraphStats(*graph);
  TablePrinter table({"Stat", "Value"});
  table.AddRow({"nodes", Fmt(stats.num_nodes)});
  table.AddRow({"edges", Fmt(stats.num_edges)});
  table.AddRow({"prob mean", Fmt(stats.prob_mean)});
  table.AddRow({"prob sd", Fmt(stats.prob_sd)});
  table.AddRow({"prob quartiles", "{" + Fmt(stats.prob_q1) + ", " +
                                      Fmt(stats.prob_q2) + ", " +
                                      Fmt(stats.prob_q3) + "}"});
  table.AddRow({"avg shortest path", Fmt(stats.avg_spl, 2)});
  table.AddRow({"longest shortest path", Fmt(stats.longest_spl)});
  table.AddRow({"clustering coefficient",
                Fmt(stats.clustering_coefficient, 3)});
  table.Print();
  return 0;
}

int CmdEstimate(const Flags& flags) {
  auto graph = LoadGraph(flags);
  if (!graph.ok()) return Fail(graph.status().ToString());
  if (!flags.Has("s") || !flags.Has("t")) return Fail("need --s and --t");
  const NodeId s = static_cast<NodeId>(flags.GetInt("s", 0));
  const NodeId t = static_cast<NodeId>(flags.GetInt("t", 0));
  if (s >= graph->num_nodes() || t >= graph->num_nodes()) {
    return Fail("query node out of range");
  }
  const int samples = static_cast<int>(flags.GetInt("samples", 2000));
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  const int threads = static_cast<int>(flags.GetInt("threads", 1));
  const auto estimator = ParseEstimator(flags);
  if (!estimator.ok()) return Fail(estimator.status().ToString());
  WallTimer timer;
  double reliability;
  if (*estimator == Estimator::kRss) {
    reliability = EstimateReliabilityRss(
        *graph, s, t,
        {.num_samples = samples, .seed = seed, .num_threads = threads});
  } else {
    reliability = EstimateReliability(
        *graph, s, t,
        {.num_samples = samples, .seed = seed, .num_threads = threads});
  }
  std::printf("R(%u, %u) = %.4f   (%d samples, %.3f s)\n", s, t, reliability,
              samples, timer.ElapsedSeconds());
  return 0;
}

int CmdSolve(const Flags& flags) {
  auto graph = LoadGraph(flags);
  if (!graph.ok()) return Fail(graph.status().ToString());
  if (!flags.Has("s") || !flags.Has("t")) return Fail("need --s and --t");
  const NodeId s = static_cast<NodeId>(flags.GetInt("s", 0));
  const NodeId t = static_cast<NodeId>(flags.GetInt("t", 0));
  const auto options = OptionsFromFlags(flags);
  if (!options.ok()) return Fail(options.status().ToString());
  const std::string method_name = flags.GetString("method", "be");
  CoreMethod method;
  if (method_name == "be") {
    method = CoreMethod::kBatchEdges;
  } else if (method_name == "ip") {
    method = CoreMethod::kIndividualPaths;
  } else if (method_name == "mrp") {
    method = CoreMethod::kMostReliablePath;
  } else {
    return Fail("unknown --method (want be|ip|mrp): " + method_name);
  }
  WallTimer timer;
  auto solution = MaximizeReliability(*graph, s, t, *options, method);
  if (!solution.ok()) return Fail(solution.status().ToString());
  std::printf("method %s: reliability %.4f -> %.4f (gain %.4f) in %.2f s\n",
              CoreMethodName(method), solution->reliability_before,
              solution->reliability_after, solution->gain(),
              timer.ElapsedSeconds());
  for (const Edge& e : solution->added_edges) {
    std::printf("  add %u -> %u (p = %.3f)\n", e.src, e.dst, e.prob);
  }
  std::printf("candidates: %zu after elimination, %zu on top-%d paths\n",
              solution->stats.candidate_edges,
              solution->stats.candidate_edges_after_path_filter,
              options->top_l);
  return 0;
}

int CmdMulti(const Flags& flags) {
  auto graph = LoadGraph(flags);
  if (!graph.ok()) return Fail(graph.status().ToString());
  const std::vector<NodeId> sources =
      ParseNodeList(flags.GetString("sources", ""));
  const std::vector<NodeId> targets =
      ParseNodeList(flags.GetString("targets", ""));
  if (sources.empty() || targets.empty()) {
    return Fail("need --sources a,b,... and --targets c,d,...");
  }
  const std::string agg_name = flags.GetString("aggregate", "avg");
  Aggregate aggregate;
  if (agg_name == "avg") {
    aggregate = Aggregate::kAverage;
  } else if (agg_name == "min") {
    aggregate = Aggregate::kMinimum;
  } else if (agg_name == "max") {
    aggregate = Aggregate::kMaximum;
  } else {
    return Fail("unknown --aggregate (want avg|min|max): " + agg_name);
  }
  const auto options = OptionsFromFlags(flags);
  if (!options.ok()) return Fail(options.status().ToString());
  WallTimer timer;
  auto solution = MaximizeMultiReliability(*graph, sources, targets,
                                           aggregate, *options);
  if (!solution.ok()) return Fail(solution.status().ToString());
  std::printf("%s aggregate: %.4f -> %.4f (gain %.4f) in %.2f s\n",
              AggregateName(aggregate), solution->aggregate_before,
              solution->aggregate_after, solution->gain(),
              timer.ElapsedSeconds());
  for (const Edge& e : solution->added_edges) {
    std::printf("  add %u -> %u (p = %.3f)\n", e.src, e.dst, e.prob);
  }
  return 0;
}

int CmdBudget(const Flags& flags) {
  auto graph = LoadGraph(flags);
  if (!graph.ok()) return Fail(graph.status().ToString());
  if (!flags.Has("s") || !flags.Has("t")) return Fail("need --s and --t");
  const NodeId s = static_cast<NodeId>(flags.GetInt("s", 0));
  const NodeId t = static_cast<NodeId>(flags.GetInt("t", 0));
  BudgetOptions budget;
  budget.total_budget = flags.GetDouble("budget", 2.0);
  budget.max_edges = static_cast<int>(flags.GetInt("max-edges", 10));
  budget.units = static_cast<int>(flags.GetInt("units", 20));
  budget.max_edge_prob = flags.GetDouble("max-edge-prob", 0.95);
  const auto options = OptionsFromFlags(flags);
  if (!options.ok()) return Fail(options.status().ToString());
  auto solution = MaximizeReliabilityWithProbabilityBudget(
      *graph, s, t, budget, *options);
  if (!solution.ok()) return Fail(solution.status().ToString());
  std::printf(
      "budget %.2f (used %.2f): reliability %.4f -> %.4f (gain %.4f)\n",
      budget.total_budget, solution->budget_used,
      solution->reliability_before, solution->reliability_after,
      solution->gain());
  for (const Edge& e : solution->added_edges) {
    std::printf("  add %u -> %u with allocated p = %.3f\n", e.src, e.dst,
                e.prob);
  }
  return 0;
}

// The bank options an index file is keyed on, from the same flags batch
// uses, so `index save` / `index load` / `batch --index-file` agree.
WorldBank::Options WorldOptionsFromFlags(const Flags& flags) {
  WorldBank::Options options;
  options.num_samples = static_cast<int>(flags.GetInt("samples", 2000));
  options.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  options.num_threads = static_cast<int>(flags.GetInt("threads", 1));
  return options;
}

// Builds bank + index for --graph and writes them to --index-file
// (write-temp + rename; generation 1).
int CmdIndexSave(const Flags& flags) {
  auto graph = LoadGraph(flags);
  if (!graph.ok()) return Fail(graph.status().ToString());
  const std::string path = flags.GetString("index-file", "");
  if (path.empty()) return Fail("index save requires --index-file FILE");
  const WorldBank::Options world_options = WorldOptionsFromFlags(flags);
  ReliabilityIndex::Options index_options;
  index_options.num_threads = world_options.num_threads;
  if (!ReliabilityIndex::Fits(*graph, world_options.num_samples,
                              index_options)) {
    return Fail("index save: label planes exceed the index byte cap");
  }
  WallTimer timer;
  const WorldBank bank(*graph, world_options);
  ReliabilityIndex index(bank, index_options);
  const auto saved = SaveIndex(bank, index, world_options,
                               /*generation=*/1, path);
  if (!saved.ok()) return Fail(saved.status().ToString());
  std::printf(
      "saved %s: generation 1, %zu bytes (%d worlds, %d label bits, "
      "%zu label bytes, %.3f s)\n",
      path.c_str(), *saved, index.num_worlds(), index.label_bits(),
      index.label_bytes(), timer.ElapsedSeconds());
  return 0;
}

// Validates and mmap-loads --index-file against --graph — the full checksum
// and key validation, no sampling, no relabeling.
int CmdIndexLoad(const Flags& flags) {
  auto graph = LoadGraph(flags);
  if (!graph.ok()) return Fail(graph.status().ToString());
  const std::string path = flags.GetString("index-file", "");
  if (path.empty()) return Fail("index load requires --index-file FILE");
  const WorldBank::Options world_options = WorldOptionsFromFlags(flags);
  ReliabilityIndex::Options index_options;
  index_options.num_threads = world_options.num_threads;
  WallTimer timer;
  auto loaded = LoadIndex(path, *graph, world_options, index_options);
  if (!loaded.ok()) return Fail(loaded.status().ToString());
  std::printf(
      "loaded %s: generation %llu, %zu bytes (%d worlds, %d label bits, "
      "%zu label bytes, %.3f s)\n",
      path.c_str(), static_cast<unsigned long long>(loaded->generation),
      loaded->file_bytes, loaded->index->num_worlds(),
      loaded->index->label_bits(), loaded->index->label_bytes(),
      timer.ElapsedSeconds());
  return 0;
}

// Answers every query in --queries FILE (one `s t` per line, `#` comments)
// from one shared set of sampled worlds. One result row per query, in file
// order, then a stats line; rows are bit-identical for any --threads.
int CmdBatch(const Flags& flags) {
  auto graph = LoadGraph(flags);
  if (!graph.ok()) return Fail(graph.status().ToString());
  const std::string queries_path = flags.GetString("queries", "");
  if (queries_path.empty()) return Fail("batch requires --queries FILE");
  auto set = QuerySet::FromFile(queries_path);
  if (!set.ok()) return Fail(set.status().ToString());
  QueryEngineOptions options;
  options.num_samples = static_cast<int>(flags.GetInt("samples", 2000));
  options.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  options.num_threads = static_cast<int>(flags.GetInt("threads", 1));
  options.reuse_worlds = flags.GetBool("reuse-worlds", true);
  options.use_index = flags.GetBool("index", false);
  options.index_file = flags.GetString("index-file", "");
  const auto estimator = ParseEstimator(flags);
  if (!estimator.ok()) return Fail(estimator.status().ToString());
  options.estimator = *estimator;
  QueryEngine engine(*graph, options);
  WallTimer timer;
  auto result = engine.Answer(*set);
  if (!result.ok()) return Fail(result.status().ToString());
  const std::vector<StQuery>& st = set->st_queries();
  for (size_t i = 0; i < st.size(); ++i) {
    std::printf("R(%u, %u) = %.4f\n", st[i].s, st[i].t, result->st_values[i]);
  }
  // Logical bank bytes; 0 when the batch never built a bank (fallback path).
  std::printf(
      "batch: %zu queries, %zu distinct pairs, %zu floods, "
      "%zu fallback estimates, %zu index answers, "
      "%zu cache hits (%d samples, bank bytes %zu, %.3f s)\n",
      result->stats.num_queries, result->stats.distinct_pairs,
      result->stats.floods, result->stats.fallback_estimates,
      result->stats.index_answers, result->stats.cache_hits,
      options.num_samples, result->stats.bank_bytes, timer.ElapsedSeconds());
  if (const ReliabilityIndex* index = engine.index()) {
    const ReliabilityIndex::Stats& istats = index->stats();
    std::printf(
        "index: %d worlds, %d label bits, %zu label bytes, "
        "%zu worlds relabeled, %zu reach floods\n",
        index->num_worlds(), index->label_bits(), index->label_bytes(),
        istats.worlds_relabeled, istats.reach_floods);
  }
  if (!options.index_file.empty()) {
    const IndexIoStats& io = engine.index_io_stats();
    std::printf(
        "index_io: %zu loads, %zu saves, %zu load failures, "
        "generation %llu, %zu file bytes\n",
        io.loads, io.saves, io.load_failures,
        static_cast<unsigned long long>(io.generation), io.file_bytes);
  }
  return 0;
}

// Runs the online query daemon: stdin/stdout line protocol by default, a
// sequential loopback TCP listener with --port (0 = ephemeral, port printed
// once bound). Engine flags match `batch` so answers diff cleanly against it.
int CmdServe(const Flags& flags) {
  auto graph = LoadGraph(flags);
  if (!graph.ok()) return Fail(graph.status().ToString());
  serve::ServeOptions options;
  options.engine.num_samples = static_cast<int>(flags.GetInt("samples", 2000));
  options.engine.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  options.engine.num_threads = static_cast<int>(flags.GetInt("threads", 1));
  options.engine.reuse_worlds = flags.GetBool("reuse-worlds", true);
  options.engine.use_index = flags.GetBool("index", false);
  options.engine.index_file = flags.GetString("index-file", "");
  const auto estimator = ParseEstimator(flags);
  if (!estimator.ok()) return Fail(estimator.status().ToString());
  options.engine.estimator = *estimator;
  options.window_us = static_cast<int>(flags.GetInt("window-us", 2000));
  if (options.window_us < 0) return Fail("--window-us must be >= 0");
  const int64_t max_batch = flags.GetInt("max-batch", 256);
  if (max_batch < 1) return Fail("--max-batch must be >= 1");
  options.max_batch = static_cast<size_t>(max_batch);
  const int64_t max_queue = flags.GetInt("max-queue", 1024);
  if (max_queue < 0) return Fail("--max-queue must be >= 0");
  options.max_queue = static_cast<size_t>(max_queue);
  options.lanes = static_cast<int>(flags.GetInt("lanes", 1));
  if (options.lanes < 1) return Fail("--lanes must be >= 1");

  serve::Server server(std::move(*graph), options);
  if (flags.Has("port")) {
    const int64_t port = flags.GetInt("port", 0);
    if (port < 0 || port > 65535) return Fail("--port must be in [0, 65535]");
    const Status status = server.ServePort(
        static_cast<uint16_t>(port), [](uint16_t bound) {
          std::printf("serving on port %u\n", bound);
          std::fflush(stdout);
        });
    if (!status.ok()) return Fail(status.ToString());
  } else {
    const serve::ServeStats stats = server.Run(std::cin, std::cout);
    std::printf("%s\n", serve::StatsResponse(stats).c_str());
  }
  return 0;
}

}  // namespace
}  // namespace relmax

int main(int argc, char** argv) {
  if (argc < 2) return relmax::Usage();
  const std::string command = argv[1];
  if (command == "index") {
    if (argc < 3) return relmax::Usage();
    const std::string sub = argv[2];
    relmax::Flags flags = relmax::Flags::Parse(argc - 2, argv + 2);
    if (sub == "save") return relmax::CmdIndexSave(flags);
    if (sub == "load") return relmax::CmdIndexLoad(flags);
    return relmax::Usage();
  }
  relmax::Flags flags = relmax::Flags::Parse(argc - 1, argv + 1);
  if (command == "gen") return relmax::CmdGen(flags);
  if (command == "stats") return relmax::CmdStats(flags);
  if (command == "estimate") return relmax::CmdEstimate(flags);
  if (command == "solve") return relmax::CmdSolve(flags);
  if (command == "multi") return relmax::CmdMulti(flags);
  if (command == "budget") return relmax::CmdBudget(flags);
  if (command == "batch") return relmax::CmdBatch(flags);
  if (command == "serve") return relmax::CmdServe(flags);
  return relmax::Usage();
}
