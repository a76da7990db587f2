// Sensor-network reliability maximization (the paper's §8.4.1 case study):
// given the Intel-Lab-style 54-sensor network, add 3 short-range links to
// maximize packet-delivery reliability between two far-apart sensors.
//
//   $ ./build/examples/sensor_network [--budget 3] [--max-dist 15]
#include <cstdio>

#include "apps/sensor.h"
#include "common/flags.h"
#include "gen/datasets.h"

using namespace relmax;

int main(int argc, char** argv) {
  Flags flags = Flags::Parse(argc, argv);
  const int budget = flags.GetInt32("budget", 3);
  const double max_dist = flags.GetDouble("max-dist", 15.0);

  auto lab = MakeDataset("intel_lab");
  RELMAX_CHECK(lab.ok());
  std::printf("Intel-Lab-style network: %u sensors, %zu directed links\n",
              lab->graph.num_nodes(), lab->graph.num_edges());

  // Pick the pair with the greatest physical separation.
  NodeId a = 0;
  NodeId b = 0;
  double best = -1.0;
  for (NodeId u = 0; u < lab->graph.num_nodes(); ++u) {
    for (NodeId v = 0; v < lab->graph.num_nodes(); ++v) {
      const double d = DistanceMeters(*lab, u, v);
      if (d > best) {
        best = d;
        a = u;
        b = v;
      }
    }
  }
  std::printf("improving delivery from sensor %u to sensor %u (%.1f m apart)\n",
              a, b, best);

  SolverOptions options;
  options.top_r = 54;
  options.num_samples = 2000;
  options.elimination_samples = 2000;
  auto result = ImproveSensorPair(*lab, a, b, budget, /*link_prob=*/0.33,
                                  max_dist, options);
  RELMAX_CHECK(result.ok());

  std::printf("\nreliability %.3f -> %.3f with %zu new links:\n",
              result->reliability_before, result->reliability_after,
              result->new_links.size());
  for (const Edge& e : result->new_links) {
    std::printf("  sensor %2u -> %2u: %.1f m, p = %.2f\n", e.src, e.dst,
                DistanceMeters(*lab, e.src, e.dst), e.prob);
  }
  std::printf(
      "\nonly links under %.0f m are buildable; the solver bridges the\n"
      "sparse region toward the dense cluster rather than attempting one\n"
      "long (impossible) hop.\n",
      max_dist);
  return 0;
}
