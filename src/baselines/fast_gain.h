#ifndef RELMAX_BASELINES_FAST_GAIN_H_
#define RELMAX_BASELINES_FAST_GAIN_H_

#include <vector>

#include "common/status.h"
#include "core/types.h"
#include "graph/uncertain_graph.h"

namespace relmax {

/// Optimized single-edge marginal-gain machinery (an ablation, run by
/// bench_ablation_design). For one added edge (u, v) with probability ζ the
/// exact marginal reliability gain is
///
///   ΔR = ζ · Pr[ s→u ∧ v→t ∧ ¬(s→t) ]
///
/// because the new edge completes an s-t connection exactly in the worlds
/// where u is reachable from s, t is reachable from v, and t was not already
/// reachable. One ensemble of Z sampled worlds therefore scores *every*
/// candidate at once (forward reach set + reverse reach set + s-t indicator
/// per world), replacing |E+| independent full estimations. The paper's
/// baselines deliberately do not use this — we provide it to quantify the
/// headroom.
class WorldEnsemble {
 public:
  /// Samples `num_samples` worlds of g and records per-world reachability
  /// from s and to t.
  WorldEnsemble(const UncertainGraph& g, NodeId s, NodeId t, int num_samples,
                uint64_t seed);

  /// Exact-in-expectation marginal gain of adding directed arc (u, v) with
  /// probability zeta, estimated over the ensemble.
  double DeltaGain(NodeId u, NodeId v, double zeta) const;

  /// Marginal gain of an *undirected* edge {u, v}: it completes the worlds
  /// where either orientation closes the s-t gap (union, not max).
  double DeltaGainUndirected(NodeId u, NodeId v, double zeta) const;

  /// Fraction of worlds where t is reachable from s (the base reliability).
  double BaseReliability() const;

  int num_samples() const { return num_samples_; }

 private:
  const NodeId num_nodes_;
  const int num_samples_;
  // Bit-packed per-world membership, world-major.
  std::vector<char> from_s_;  // [w * n + v]: v reachable from s in world w
  std::vector<char> to_t_;    // [w * n + v]: t reachable from v in world w
  std::vector<char> st_connected_;
};

/// Individual Top-k re-implemented on one world ensemble: identical ranking
/// semantics to SelectIndividualTopK at a fraction of the cost.
StatusOr<std::vector<Edge>> SelectIndividualTopKFast(
    const UncertainGraph& g, NodeId s, NodeId t,
    const std::vector<Edge>& candidates, const SolverOptions& options);

/// Hill climbing where each round scores all remaining candidates on a fresh
/// ensemble of the current augmented graph.
StatusOr<std::vector<Edge>> SelectHillClimbingFast(
    const UncertainGraph& g, NodeId s, NodeId t,
    const std::vector<Edge>& candidates, const SolverOptions& options);

}  // namespace relmax

#endif  // RELMAX_BASELINES_FAST_GAIN_H_
