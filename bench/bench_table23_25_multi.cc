// Regenerates Tables 23-25: multiple-source-target budgeted reliability
// maximization with the Min / Max / Avg aggregates on the Twitter-like
// graph — BE (ours) vs HC, EO (eigen), ESSSP and IMA.
#include <cstdio>

#include "baselines/eigen.h"
#include "baselines/esssp.h"
#include "baselines/greedy.h"
#include "baselines/ima.h"
#include "bench_util.h"
#include "common/timer.h"
#include "core/evaluate.h"
#include "core/multi.h"

namespace relmax {
namespace bench {
namespace {

struct MultiWorkspace {
  CandidateSet candidates;
  UncertainGraph sub = UncertainGraph::Directed(0);
  std::vector<NodeId> nodes;          // sub id -> original id
  std::vector<NodeId> sub_sources;    // query sets in sub coordinates
  std::vector<NodeId> sub_targets;
  std::vector<Edge> sub_candidates;
  double elimination_seconds = 0.0;
};

MultiWorkspace PrepareMulti(const UncertainGraph& g,
                            const std::vector<NodeId>& sources,
                            const std::vector<NodeId>& targets,
                            const SolverOptions& options) {
  MultiWorkspace ws;
  WallTimer timer;
  auto candidates = SelectCandidatesMulti(g, sources, targets, options);
  RELMAX_CHECK(candidates.ok());
  ws.candidates = *std::move(candidates);
  ws.elimination_seconds = timer.ElapsedSeconds();

  std::vector<NodeId> query_nodes = sources;
  query_nodes.insert(query_nodes.end(), targets.begin(), targets.end());
  auto search = BuildSearchGraph(g, query_nodes, ws.candidates);
  RELMAX_CHECK(search.ok());
  for (NodeId v : sources) ws.sub_sources.push_back(search->compact_id[v]);
  for (NodeId v : targets) ws.sub_targets.push_back(search->compact_id[v]);
  ws.nodes = std::move(search->nodes);
  ws.sub_candidates = std::move(search->candidates);
  auto sub = g.InducedSubgraph(ws.nodes);
  RELMAX_CHECK(sub.ok());
  ws.sub = *std::move(sub);
  return ws;
}

enum class MultiMethod { kHc, kEo, kEsssp, kIma, kBe };

const char* Label(MultiMethod m) {
  switch (m) {
    case MultiMethod::kHc:
      return "HC";
    case MultiMethod::kEo:
      return "EO";
    case MultiMethod::kEsssp:
      return "ESSSP";
    case MultiMethod::kIma:
      return "IMA";
    case MultiMethod::kBe:
      return "BE";
  }
  return "?";
}

void Run(const BenchConfig& config) {
  Dataset dataset = LoadDataset("twitter", config);
  const SolverOptions options = config.ToSolverOptions();
  const int set_sizes[] = {2, 3, 5};
  const MultiMethod methods[] = {MultiMethod::kHc, MultiMethod::kEo,
                                 MultiMethod::kEsssp, MultiMethod::kIma,
                                 MultiMethod::kBe};

  for (Aggregate agg :
       {Aggregate::kMinimum, Aggregate::kMaximum, Aggregate::kAverage}) {
    std::printf("\n--- aggregate: %s ---\n", AggregateName(agg));
    TablePrinter table({"|S|:|T|", "Method", "Gain", "Time (sec)"});
    for (int size : set_sizes) {
      auto query = GenerateMultiQuery(
          dataset.graph, size,
          {.seed = config.seed ^ (0x5e7 + static_cast<uint64_t>(size))});
      if (!query.ok()) continue;
      const auto& sources = query->sources;
      const auto& targets = query->targets;
      const double before = AggregateMatrix(
          PairwiseReliability(dataset.graph, sources, targets,
                              config.gain_samples, config.seed ^ 0xb4),
          agg);
      const MultiWorkspace ws =
          PrepareMulti(dataset.graph, sources, targets, options);

      for (MultiMethod method : methods) {
        WallTimer timer;
        std::vector<Edge> sub_edges;
        if (method == MultiMethod::kBe) {
          auto solution = MaximizeMultiReliability(
              dataset.graph, sources, targets, agg, options);
          RELMAX_CHECK(solution.ok());
          // BE already returns original-coordinate edges.
          const double after = AggregateMatrix(
              PairwiseReliability(
                  AugmentGraph(dataset.graph, solution->added_edges), sources,
                  targets, config.gain_samples, config.seed ^ 0xb4),
              agg);
          table.AddRow({Fmt(size) + ":" + Fmt(size), Label(method),
                        Fmt(after - before), Fmt(timer.ElapsedSeconds(), 2)});
          std::fflush(stdout);
          continue;
        }
        switch (method) {
          case MultiMethod::kHc: {
            auto r = SelectHillClimbingMulti(ws.sub, ws.sub_sources,
                                             ws.sub_targets, agg,
                                             ws.sub_candidates, options);
            RELMAX_CHECK(r.ok());
            sub_edges = *std::move(r);
            break;
          }
          case MultiMethod::kEo:
            sub_edges = SelectByEigenScore(ws.sub, ws.sub_candidates,
                                           options.budget_k, options.zeta);
            break;
          case MultiMethod::kEsssp: {
            auto r = SelectEsssp(ws.sub, ws.sub_sources, ws.sub_targets,
                                 ws.sub_candidates, options);
            RELMAX_CHECK(r.ok());
            sub_edges = *std::move(r);
            break;
          }
          case MultiMethod::kIma: {
            auto r = SelectIma(ws.sub, ws.sub_sources, ws.sub_targets,
                               ws.sub_candidates, options);
            RELMAX_CHECK(r.ok());
            sub_edges = *std::move(r);
            break;
          }
          case MultiMethod::kBe:
            break;  // handled above
        }
        std::vector<Edge> edges;
        for (const Edge& e : sub_edges) {
          edges.push_back({ws.nodes[e.src], ws.nodes[e.dst], e.prob});
        }
        const double seconds =
            timer.ElapsedSeconds() + ws.elimination_seconds;
        const double after = AggregateMatrix(
            PairwiseReliability(AugmentGraph(dataset.graph, edges), sources,
                                targets, config.gain_samples,
                                config.seed ^ 0xb4),
            agg);
        table.AddRow({Fmt(size) + ":" + Fmt(size), Label(method),
                      Fmt(after - before), Fmt(seconds, 2)});
        std::fflush(stdout);
      }
    }
    table.Print();
  }
  std::printf(
      "paper Tables 23-25 shape: BE leads on all three aggregates; EO lags\n"
      "most on Min/Max (its global objective ignores the extreme pair);\n"
      "IMA approaches BE only under the Avg aggregate.\n");
}

}  // namespace
}  // namespace bench
}  // namespace relmax

int main(int argc, char** argv) {
  relmax::Flags flags = relmax::Flags::Parse(argc, argv);
  relmax::bench::BenchConfig config =
      relmax::bench::BenchConfig::FromFlags(flags);
  if (!flags.Has("k")) config.k = 6;
  if (!flags.Has("scale")) config.scale = 0.03;
  if (!flags.Has("r")) config.r = 20;  // HC/ESSSP/IMA are O(|E+|) per round
  if (!flags.Has("h")) config.h = 4;   // sparse stand-in needs the reach
  relmax::bench::PrintHeader(
      "Tables 23-25: multiple-source-target aggregates (twitter-like)",
      config);
  relmax::bench::Run(config);
  return 0;
}
