// Ablations of the solver's design choices (README "Paper-to-code mapping"):
//   A. estimator inside BE: MC vs RSS
//   B. selection: IP vs BE (same candidates/paths)
//   C. hill climbing: faithful per-candidate re-estimation vs the
//      single-edge delta-gain ensemble (quality should match, time should
//      not)
#include <cstdio>

#include "bench_util.h"
#include "common/timer.h"
#include "core/solver.h"

namespace relmax {
namespace bench {
namespace {

void Run(const BenchConfig& config) {
  Dataset dataset = LoadDataset("lastfm", config);
  const auto queries = MakeQueries(dataset.graph, config);

  // --- A + B: solver pipeline variants ------------------------------------
  struct PipelineVariant {
    const char* label;
    Estimator estimator;
    CoreMethod method;
  };
  const PipelineVariant variants[] = {
      {"BE / MC / paths-on-subgraph", Estimator::kMonteCarlo,
       CoreMethod::kBatchEdges},
      {"BE / RSS / paths-on-subgraph", Estimator::kRss,
       CoreMethod::kBatchEdges},
      {"IP / MC / paths-on-subgraph", Estimator::kMonteCarlo,
       CoreMethod::kIndividualPaths},
  };
  TablePrinter pipeline({"Variant", "Gain", "Time (sec)"});
  for (const PipelineVariant& variant : variants) {
    double gain = 0.0;
    double secs = 0.0;
    for (const auto& [s, t] : queries) {
      SolverOptions options = config.ToSolverOptions();
      options.estimator = variant.estimator;
      WallTimer timer;
      auto solution =
          MaximizeReliability(dataset.graph, s, t, options, variant.method);
      RELMAX_CHECK(solution.ok());
      secs += timer.ElapsedSeconds();
      gain += MeasureGain(dataset.graph, s, t, solution->added_edges,
                          config.gain_samples, config.seed ^ 0xab1);
    }
    pipeline.AddRow({variant.label, Fmt(gain / queries.size()),
                     Fmt(secs / queries.size(), 2)});
    std::fflush(stdout);
  }
  pipeline.Print();

  // --- C: faithful vs delta-gain hill climbing ----------------------------
  TablePrinter hc({"Hill climbing", "Gain", "Time (sec)"});
  const Method hc_methods[] = {Method::kHillClimbing,
                               Method::kHillClimbingFast,
                               Method::kIndividualTopK,
                               Method::kIndividualTopKFast};
  const SolverOptions options = config.ToSolverOptions();
  for (Method method : hc_methods) {
    double gain = 0.0;
    double secs = 0.0;
    for (const auto& [s, t] : queries) {
      const EliminatedQuery eq = Eliminate(dataset.graph, s, t, options);
      const MethodResult result =
          RunMethodEliminated(dataset.graph, s, t, eq, method, config);
      gain += result.gain;
      secs += result.seconds;
    }
    hc.AddRow({MethodLabel(method), Fmt(gain / queries.size()),
               Fmt(secs / queries.size(), 2)});
    std::fflush(stdout);
  }
  hc.Print();
  std::printf(
      "expected: RSS matches MC's gain with less time; delta-gain variants\n"
      "match their faithful counterparts' gain at a fraction of the time.\n");
}

}  // namespace
}  // namespace bench
}  // namespace relmax

int main(int argc, char** argv) {
  relmax::Flags flags = relmax::Flags::Parse(argc, argv);
  relmax::bench::BenchConfig config =
      relmax::bench::BenchConfig::FromFlags(flags);
  if (!flags.Has("queries")) config.queries = 2;
  relmax::bench::PrintHeader("Ablations: estimator / selection / hill climbing",
                             config);
  relmax::bench::Run(config);
  return 0;
}
