#include "bench_util.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>

#include "baselines/centrality.h"
#include "baselines/eigen.h"
#include "baselines/exact.h"
#include "baselines/fast_gain.h"
#include "baselines/greedy.h"
#include "common/memory.h"
#include "common/timer.h"
#include "core/evaluate.h"
#include "core/selection.h"
#include "paths/layered_mrp.h"
#include "paths/yen.h"
#include "sampling/reliability.h"

namespace relmax {
namespace bench {

std::string EnvironmentJson(const std::string& benchmark_library,
                            const std::string& note) {
  const auto escape = [](const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
      if (c == '"' || c == '\\') out.push_back('\\');
      out.push_back(c);
    }
    return out;
  };
#if defined(__clang__)
  const std::string compiler = "clang++ " __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = "g++ " __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
#ifdef NDEBUG
  const std::string build = " (Release)";
#else
  const std::string build = " (Debug)";
#endif
  const unsigned cpus = std::thread::hardware_concurrency();
  std::string json = "{\n";
  json += "  \"cpus_available\": " + std::to_string(cpus) + ",\n";
  json += "  \"compiler\": \"" + escape(compiler + build) + "\",\n";
  json += "  \"benchmark_library\": \"" + escape(benchmark_library) + "\",\n";
  json += "  \"note\": \"" + escape(note) + "\"\n";
  json += "}";
  return json;
}

BenchConfig BenchConfig::FromFlags(const Flags& flags) {
  BenchConfig config;
  config.scale = flags.GetDouble("scale", config.scale);
  config.queries = flags.GetInt32("queries", config.queries);
  config.k = flags.GetInt32("k", config.k);
  config.zeta = flags.GetDouble("zeta", config.zeta);
  config.r = flags.GetInt32("r", config.r);
  config.l = flags.GetInt32("l", config.l);
  config.h = flags.GetInt32("h", config.h);
  config.samples = flags.GetInt32("samples", config.samples);
  config.elim_samples = flags.GetInt32("elim-samples", config.elim_samples);
  config.gain_samples = flags.GetInt32("gain-samples", config.gain_samples);
  config.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  config.num_threads = flags.GetInt32("threads", config.num_threads);
  config.reuse_worlds = flags.GetBool("reuse-worlds", config.reuse_worlds);
  config.print_env = flags.GetBool("print-env", config.print_env);
  return config;
}

SolverOptions BenchConfig::ToSolverOptions() const {
  SolverOptions options;
  options.budget_k = k;
  options.zeta = zeta;
  options.top_r = r;
  options.top_l = l;
  options.hop_h = h;
  options.num_samples = samples;
  options.elimination_samples = elim_samples;
  options.seed = seed;
  options.estimator = estimator;
  options.num_threads = num_threads;
  options.reuse_worlds = reuse_worlds;
  return options;
}

const char* MethodLabel(Method method) {
  switch (method) {
    case Method::kIndividualTopK:
      return "Individual Top-k";
    case Method::kHillClimbing:
      return "Hill Climbing";
    case Method::kDegree:
      return "Centrality (degree)";
    case Method::kBetweenness:
      return "Centrality (betweenness)";
    case Method::kEigen:
      return "Eigenvalue-based";
    case Method::kMrp:
      return "Most Reliable Path";
    case Method::kIp:
      return "Individual Path (IP)";
    case Method::kBe:
      return "Batch-edge (BE)";
    case Method::kExact:
      return "Exact Solution (ES)";
    case Method::kIndividualTopKFast:
      return "Individual Top-k (delta-gain)";
    case Method::kHillClimbingFast:
      return "Hill Climbing (delta-gain)";
  }
  return "?";
}

EliminatedQuery Eliminate(const UncertainGraph& g, NodeId s, NodeId t,
                          const SolverOptions& options) {
  EliminatedQuery eq;
  WallTimer timer;
  auto candidates = SelectCandidates(g, s, t, options);
  RELMAX_CHECK(candidates.ok());
  eq.candidates = *std::move(candidates);
  eq.elimination_seconds = timer.ElapsedSeconds();

  // The g-only induced subgraph: the baselines add candidates themselves.
  auto search = BuildSearchGraph(g, {s, t}, eq.candidates);
  RELMAX_CHECK(search.ok());
  eq.sub_nodes = std::move(search->nodes);
  eq.sub_candidates = std::move(search->candidates);
  auto sub = g.InducedSubgraph(eq.sub_nodes);
  RELMAX_CHECK(sub.ok());
  eq.sub = *std::move(sub);
  eq.sub_s = 0;
  eq.sub_t = 1;
  return eq;
}

double MeasureGain(const UncertainGraph& g, NodeId s, NodeId t,
                   const std::vector<Edge>& edges, int num_samples,
                   uint64_t seed, int num_threads) {
  const double before = EstimateReliability(
      g, s, t,
      {.num_samples = num_samples, .seed = seed, .num_threads = num_threads});
  if (edges.empty()) return 0.0;
  const double after = EstimateReliability(
      AugmentGraph(g, edges), s, t,
      {.num_samples = num_samples, .seed = seed, .num_threads = num_threads});
  return after - before;
}

namespace {

// Dispatches one method on (graph, s, t, candidates). The caller decides
// whether `graph` is the full graph or the eliminated subgraph.
std::vector<Edge> Dispatch(const UncertainGraph& graph, NodeId s, NodeId t,
                           const std::vector<Edge>& candidates,
                           Method method, const SolverOptions& options) {
  switch (method) {
    case Method::kIndividualTopK: {
      auto r = SelectIndividualTopK(graph, s, t, candidates, options);
      RELMAX_CHECK(r.ok());
      return *std::move(r);
    }
    case Method::kHillClimbing: {
      auto r = SelectHillClimbing(graph, s, t, candidates, options);
      RELMAX_CHECK(r.ok());
      return *std::move(r);
    }
    case Method::kDegree:
      return SelectByDegreeCentrality(graph, candidates, options.budget_k);
    case Method::kBetweenness:
      return SelectByBetweennessCentrality(graph, candidates,
                                           options.budget_k);
    case Method::kEigen:
      return SelectByEigenScore(graph, candidates, options.budget_k,
                                options.zeta);
    case Method::kMrp: {
      auto r = ImproveMostReliablePathWithCandidates(
          graph, s, t, options.budget_k, candidates);
      RELMAX_CHECK(r.ok());
      return r->added_edges;
    }
    case Method::kIp:
    case Method::kBe: {
      CandidateSet cs;
      cs.edges = candidates;
      auto r = MaximizeReliabilityWithCandidates(
          graph, s, t, cs, options,
          method == Method::kBe ? CoreMethod::kBatchEdges
                                : CoreMethod::kIndividualPaths);
      RELMAX_CHECK(r.ok());
      return r->added_edges;
    }
    case Method::kExact: {
      auto r = SelectExact(graph, s, t, candidates, options);
      RELMAX_CHECK(r.ok());
      return *std::move(r);
    }
    case Method::kIndividualTopKFast: {
      auto r = SelectIndividualTopKFast(graph, s, t, candidates, options);
      RELMAX_CHECK(r.ok());
      return *std::move(r);
    }
    case Method::kHillClimbingFast: {
      auto r = SelectHillClimbingFast(graph, s, t, candidates, options);
      RELMAX_CHECK(r.ok());
      return *std::move(r);
    }
  }
  return {};
}

}  // namespace

namespace {

bool IsGreedyBaseline(Method method) {
  return method == Method::kIndividualTopK || method == Method::kHillClimbing;
}

}  // namespace

MethodResult RunMethodEliminated(const UncertainGraph& g, NodeId s, NodeId t,
                                 const EliminatedQuery& eq, Method method,
                                 const BenchConfig& config) {
  MethodResult result;
  SolverOptions options = config.ToSolverOptions();
  if (IsGreedyBaseline(method)) {
    options.num_samples *= config.greedy_sample_boost;
  }
  WallTimer timer;
  const std::vector<Edge> sub_edges =
      Dispatch(eq.sub, eq.sub_s, eq.sub_t, eq.sub_candidates, method, options);
  result.seconds = timer.ElapsedSeconds() + eq.elimination_seconds;

  result.edges.reserve(sub_edges.size());
  for (const Edge& e : sub_edges) {
    result.edges.push_back(
        {eq.sub_nodes[e.src], eq.sub_nodes[e.dst], e.prob});
  }
  result.gain = MeasureGain(g, s, t, result.edges, config.gain_samples,
                            config.seed ^ 0x9a19, config.num_threads);
  result.peak_rss_bytes = PeakRssBytes();
  return result;
}

MethodResult RunMethodDirect(const UncertainGraph& g, NodeId s, NodeId t,
                             const std::vector<Edge>& candidates,
                             Method method, const BenchConfig& config) {
  MethodResult result;
  SolverOptions options = config.ToSolverOptions();
  if (IsGreedyBaseline(method)) {
    options.num_samples *= config.greedy_sample_boost;
  }
  WallTimer timer;
  result.edges = Dispatch(g, s, t, candidates, method, options);
  result.seconds = timer.ElapsedSeconds();
  result.gain = MeasureGain(g, s, t, result.edges, config.gain_samples,
                            config.seed ^ 0x9a19, config.num_threads);
  result.peak_rss_bytes = PeakRssBytes();
  return result;
}

Dataset LoadDataset(const std::string& name, const BenchConfig& config) {
  auto dataset = MakeDataset(name, config.scale, config.seed);
  if (!dataset.ok()) {
    std::fprintf(stderr, "failed to build dataset %s: %s\n", name.c_str(),
                 dataset.status().ToString().c_str());
    std::exit(1);
  }
  return *std::move(dataset);
}

std::vector<std::pair<NodeId, NodeId>> MakeQueries(const UncertainGraph& g,
                                                   const BenchConfig& config) {
  // Paper protocol: s uniform, t a 3-5-hop neighbor. At bench scale such
  // pairs often start at reliability ~0 (everything would trivially gain
  // ~1.0), so additionally prefer pairs whose starting reliability is
  // moderate — the regime the paper's tables report.
  auto candidates = GenerateQueries(
      g, config.queries * 8,
      {.min_hops = 3, .max_hops = 5, .seed = config.seed ^ 0x40e51e5});
  if (!candidates.ok()) {
    candidates = GenerateQueries(
        g, config.queries * 8,
        {.min_hops = 2, .max_hops = 6, .seed = config.seed ^ 0x40e51e5});
  }
  RELMAX_CHECK(candidates.ok());

  std::vector<std::pair<NodeId, NodeId>> picked;
  std::vector<std::pair<double, std::pair<NodeId, NodeId>>> fallback;
  for (const auto& [s, t] : *candidates) {
    if (static_cast<int>(picked.size()) >= config.queries) break;
    const double reliability = EstimateReliability(
        g, s, t, {.num_samples = 800, .seed = config.seed ^ 0x5e1ec7});
    if (reliability >= 0.25 && reliability <= 0.60) {
      picked.push_back({s, t});
    } else {
      fallback.push_back({std::abs(reliability - 0.4), {s, t}});
    }
  }
  // Not enough in-band pairs (sparse scaled graphs): take the closest ones.
  std::sort(fallback.begin(), fallback.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (size_t i = 0;
       static_cast<int>(picked.size()) < config.queries && i < fallback.size();
       ++i) {
    picked.push_back(fallback[i].second);
  }
  return picked;
}

void PrintHeader(const std::string& title, const BenchConfig& config) {
  std::printf("\n=== %s ===\n", title.c_str());
  std::printf(
      "config: scale=%.3g queries=%d k=%d zeta=%.2f r=%d l=%d h=%d "
      "Z=%d elimZ=%d seed=%llu reuse-worlds=%d\n",
      config.scale, config.queries, config.k, config.zeta, config.r, config.l,
      config.h, config.samples, config.elim_samples,
      static_cast<unsigned long long>(config.seed),
      config.reuse_worlds ? 1 : 0);
  if (config.print_env) {
    std::printf("environment: %s\n",
                EnvironmentJson("WallTimer harness",
                                "paper-table bench driver")
                    .c_str());
  }
  std::fflush(stdout);
}

}  // namespace bench
}  // namespace relmax
