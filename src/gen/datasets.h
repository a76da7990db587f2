#ifndef RELMAX_GEN_DATASETS_H_
#define RELMAX_GEN_DATASETS_H_

#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "graph/uncertain_graph.h"

namespace relmax {

/// A named benchmark dataset: the uncertain graph plus optional 2-D node
/// positions (sensor networks).
struct Dataset {
  std::string name;
  UncertainGraph graph = UncertainGraph::Undirected(0);
  /// Node coordinates in meters; empty unless the dataset is spatial.
  std::vector<std::pair<double, double>> positions;
};

/// Names understood by MakeDataset — the paper's 5 real datasets (generated
/// stand-ins that mimic each one's directedness, degree shape and
/// probability model; the real graphs are not bundled) and 8 synthetic ones
/// (Table 8):
///   intel_lab, lastfm, as_topology, dblp, twitter,
///   random1, random2, regular1, regular2,
///   smallworld1, smallworld2, scalefree1, scalefree2
std::vector<std::string> DatasetNames();

/// Builds the named dataset. `scale` multiplies the laptop-default node
/// count (1.0 ≈ minutes-scale benches on one core; the paper-scale sizes are
/// 10-100x larger — see Table 8). intel_lab is fixed at 54 sensors and
/// ignores `scale`. Deterministic for a fixed seed.
StatusOr<Dataset> MakeDataset(const std::string& name, double scale = 1.0,
                              uint64_t seed = 42);

/// Euclidean distance in meters between two dataset positions.
double DistanceMeters(const Dataset& dataset, NodeId a, NodeId b);

}  // namespace relmax

#endif  // RELMAX_GEN_DATASETS_H_
