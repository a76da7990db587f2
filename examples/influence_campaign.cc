// Targeted influence maximization by link recommendation (paper §8.4.2):
// on a DBLP-like collaboration network, recommend k new collaborations so a
// group of senior researchers influences as many junior researchers as
// possible under the independent-cascade model.
//
//   $ ./build/examples/influence_campaign [--k 8] [--scale 0.05]
#include <cstdio>

#include "apps/influence.h"
#include "common/flags.h"
#include "core/evaluate.h"
#include "gen/datasets.h"

using namespace relmax;

int main(int argc, char** argv) {
  Flags flags = Flags::Parse(argc, argv);
  const int k = flags.GetInt32("k", 8);
  const double scale = flags.GetDouble("scale", 0.05);

  auto dblp = MakeDataset("dblp", scale, /*seed=*/11);
  RELMAX_CHECK(dblp.ok());
  std::printf("DBLP-like network: %u authors, %zu collaborations\n",
              dblp->graph.num_nodes(), dblp->graph.num_edges());

  auto scenario = MakeCollaborationScenario(dblp->graph, /*num_seniors=*/8,
                                            /*num_juniors=*/120, /*seed=*/5);
  RELMAX_CHECK(scenario.ok());
  std::printf("campaign: %zu seniors -> %zu juniors\n",
              scenario->seniors.size(), scenario->juniors.size());

  SolverOptions options;
  options.budget_k = k;
  options.top_r = 60;
  options.top_l = 15;
  options.num_samples = 400;
  options.elimination_samples = 400;
  auto result = MaximizeInfluenceSpread(dblp->graph, scenario->seniors,
                                        scenario->juniors, options,
                                        /*pair_cap=*/32);
  RELMAX_CHECK(result.ok());

  std::printf("\nexpected influenced juniors: %.1f -> %.1f (+%.1f)\n",
              result->spread_before, result->spread_after,
              result->spread_after - result->spread_before);
  std::printf("recommended collaborations (%zu):\n",
              result->recommended_edges.size());
  for (const Edge& e : result->recommended_edges) {
    std::printf("  author %u <-> author %u (adoption prob %.2f)\n", e.src,
                e.dst, e.prob);
  }
  std::printf(
      "\nunder the IC model an activation is a possible-world path, so the\n"
      "recommendation problem is multi-source-target reliability\n"
      "maximization with the average/spread objective.\n");
  return 0;
}
