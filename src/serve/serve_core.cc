#include "serve/serve_core.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>

#include "common/logging.h"

namespace relmax {
namespace serve {

ServeCore::ServeCore(UncertainGraph initial, const ServeOptions& options)
    : options_(options), num_nodes_(initial.num_nodes()) {
  RELMAX_CHECK(options_.lanes >= 1);
  RELMAX_CHECK(options_.window_us >= 0);
  RELMAX_CHECK(options_.max_batch >= 1);
  // Epoch 0's state is built before any lane starts, so no query ever waits
  // on a cold bank or index.
  current_ = std::make_shared<const GraphSnapshot>(std::move(initial),
                                                   options_.engine, &index_io_);
  stats_.epoch = current_->epoch();
  stats_.graph_version = current_->version();
  threads_.reserve(static_cast<size_t>(options_.lanes));
  for (int i = 0; i < options_.lanes; ++i) {
    threads_.emplace_back([this] { LaneLoop(); });
  }
}

ServeCore::~ServeCore() { Shutdown(); }

void ServeCore::Submit(NodeId s, NodeId t, QueryCallback done) {
  // The protocol cannot grow the node set, so validation needs no snapshot.
  if (s >= num_nodes_ || t >= num_nodes_) {
    uint64_t epoch;
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.rejected;
      epoch = stats_.epoch;
    }
    done(Status::InvalidArgument(
             "query node out of range: (" + std::to_string(s) + ", " +
             std::to_string(t) + ") with " + std::to_string(num_nodes_) +
             " nodes"),
         epoch);
    return;
  }
  uint64_t epoch;
  Status shed = Status::Ok();
  {
    std::lock_guard<std::mutex> lock(mu_);
    epoch = stats_.epoch;
    if (stopping_) {
      ++stats_.shed;
      shed = Status::Unavailable("shed: daemon is shutting down");
    } else if (queue_.size() >= options_.max_queue) {
      ++stats_.shed;
      shed = Status::Unavailable(
          "shed: admission queue full (" + std::to_string(queue_.size()) +
          " pending, cap " + std::to_string(options_.max_queue) + ")");
    } else {
      ++stats_.submitted;
      queue_.push_back(Pending{StQuery{s, t}, current_, std::move(done)});
    }
  }
  if (!shed.ok()) {
    done(shed, epoch);
    return;
  }
  work_cv_.notify_one();
}

StatusOr<uint64_t> ServeCore::Publish(const Edge& edge, bool add) {
  // Copy-mutate-build-publish, serialized across writers. Readers never
  // wait: queries pinned to the previous epoch keep answering from its
  // state while the next one is built.
  std::lock_guard<std::mutex> write_lock(write_mu_);
  const std::shared_ptr<const GraphSnapshot> prev = CurrentSnapshot();
  UncertainGraph next = prev->graph();
  const Status applied =
      add ? next.AddEdge(edge.src, edge.dst, edge.prob)
          : next.UpdateEdgeProb(edge.src, edge.dst, edge.prob);
  if (!applied.ok()) return applied;
  auto snapshot = std::make_shared<const GraphSnapshot>(
      *prev, std::move(next), options_.engine, &index_io_);
  std::lock_guard<std::mutex> lock(mu_);
  current_ = snapshot;
  ++stats_.updates;
  stats_.epoch = snapshot->epoch();
  stats_.graph_version = snapshot->version();
  return snapshot->epoch();
}

StatusOr<uint64_t> ServeCore::UpdateEdgeProb(NodeId u, NodeId v, double p) {
  return Publish(Edge{u, v, p}, /*add=*/false);
}

StatusOr<uint64_t> ServeCore::AddEdge(NodeId u, NodeId v, double p) {
  return Publish(Edge{u, v, p}, /*add=*/true);
}

void ServeCore::LaneLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
    if (queue_.empty()) {
      if (stopping_) return;
      continue;
    }
    // Bounded-delay micro-batch: wait up to window_us for more arrivals so
    // one shared flood can serve them all; a full window or shutdown cuts
    // the wait short. Skipped while draining a shutdown backlog.
    if (options_.window_us > 0 && !stopping_ &&
        queue_.size() < options_.max_batch) {
      const auto deadline = std::chrono::steady_clock::now() +
                            std::chrono::microseconds(options_.window_us);
      while (!stopping_ && queue_.size() < options_.max_batch) {
        if (work_cv_.wait_until(lock, deadline) ==
            std::cv_status::timeout) {
          break;
        }
      }
      if (queue_.empty()) continue;  // another lane drained it
    }
    // Take the longest same-snapshot prefix (up to max_batch): one window is
    // answered from one epoch's state.
    std::shared_ptr<const GraphSnapshot> snapshot = queue_.front().snapshot;
    std::vector<Pending> window;
    while (!queue_.empty() && window.size() < options_.max_batch &&
           queue_.front().snapshot == snapshot) {
      window.push_back(std::move(queue_.front()));
      queue_.pop_front();
    }
    ++active_lanes_;
    lock.unlock();

    // Submit validated every node, so the window is a valid batch.
    QuerySet set;
    for (const Pending& p : window) set.AddSt(p.query.s, p.query.t);
    const BatchResult result = snapshot->state().Answer(set, nullptr);
    const uint64_t epoch = snapshot->epoch();
    for (size_t i = 0; i < window.size(); ++i) {
      window[i].done(result.st_values[i], epoch);
    }
    // Drop the pins outside the lock: the last reader of a retired epoch
    // frees its bank and index here.
    const size_t answered = window.size();
    window.clear();
    snapshot.reset();

    lock.lock();
    ++stats_.batches;
    stats_.max_window = std::max(stats_.max_window, answered);
    stats_.answered += answered;
    stats_.floods += result.stats.floods;
    stats_.index_answers += result.stats.index_answers;
    stats_.fallback_estimates += result.stats.fallback_estimates;
    --active_lanes_;
    drain_cv_.notify_all();
  }
}

ServeStats ServeCore::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void ServeCore::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  drain_cv_.wait(lock,
                 [this] { return queue_.empty() && active_lanes_ == 0; });
}

void ServeCore::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (joined_) return;
    joined_ = true;  // claimed: this caller runs the join below
    stopping_ = true;
  }
  work_cv_.notify_all();
  Drain();
  work_cv_.notify_all();  // wake lanes to observe stopping_ with empty queue
  for (std::thread& t : threads_) t.join();
}

}  // namespace serve
}  // namespace relmax
