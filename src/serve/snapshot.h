#ifndef RELMAX_SERVE_SNAPSHOT_H_
#define RELMAX_SERVE_SNAPSHOT_H_

#include <cstdint>
#include <utility>

#include "graph/uncertain_graph.h"
#include "query/query_engine.h"

namespace relmax {
namespace serve {

/// One immutable published epoch: a private copy of the uncertain graph
/// frozen at publish time, tagged with the serving epoch and the graph's own
/// version() counter, plus the WorldState (bank, index, index-file mapping)
/// every lane answers this epoch's queries from. The writer builds it in
/// full before publishing; readers pin it by holding its shared_ptr and keep
/// answering on it while newer epochs are published. An old epoch dies when
/// its last reader drops it.
///
/// Never moved or copied (it is always held through a shared_ptr), so the
/// graph sits at a stable address, and graph_ is declared before state_, so
/// the graph is in place before the state that references it is built.
class GraphSnapshot {
 public:
  /// Epoch 0: the boot graph with a freshly built world state.
  GraphSnapshot(UncertainGraph graph, const QueryEngineOptions& options,
                IndexIoStats* io)
      : epoch_(0),
        graph_(std::move(graph)),
        version_(graph_.version()),
        state_(graph_, options, io) {}

  /// Epoch prev + 1: `graph` is prev's graph with one mutation applied; the
  /// world state is derived from prev's (incrementally when indexed).
  GraphSnapshot(const GraphSnapshot& prev, UncertainGraph graph,
                const QueryEngineOptions& options, IndexIoStats* io)
      : epoch_(prev.epoch_ + 1),
        graph_(std::move(graph)),
        version_(graph_.version()),
        state_(prev.state_, graph_, options, io) {}

  GraphSnapshot(const GraphSnapshot&) = delete;
  GraphSnapshot& operator=(const GraphSnapshot&) = delete;

  /// Serving epoch: 0 for the boot graph, +1 per published mutation.
  uint64_t epoch() const { return epoch_; }
  /// The frozen graph's UncertainGraph::version(). A copy preserves the
  /// source's version and each mutation bumps it, so a batch engine that
  /// applies the same mutations lands on this exact value.
  uint64_t version() const { return version_; }
  const UncertainGraph& graph() const { return graph_; }
  /// The answering state for this epoch; read-only, shared by every lane.
  const WorldState& state() const { return state_; }

 private:
  uint64_t epoch_;
  UncertainGraph graph_;
  uint64_t version_;
  WorldState state_;
};

}  // namespace serve
}  // namespace relmax

#endif  // RELMAX_SERVE_SNAPSHOT_H_
