#ifndef RELMAX_SAMPLING_WORLD_VIEW_H_
#define RELMAX_SAMPLING_WORLD_VIEW_H_

#include <memory>

#include "graph/uncertain_graph.h"
#include "sampling/world_bank.h"

namespace relmax {

// Older names for WorldBank, kept because out-of-tree callers (the perfbench
// probes) still spell them; in-repo code names WorldBank directly.
using WorldView = WorldBank;
using WorldViewOptions = WorldBank::Options;

inline std::unique_ptr<WorldBank> MakeWorldView(
    const UncertainGraph& universe, const WorldBank::Options& options) {
  return std::make_unique<WorldBank>(universe, options);
}

}  // namespace relmax

#endif  // RELMAX_SAMPLING_WORLD_VIEW_H_
