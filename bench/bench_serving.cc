// Serving latency under synthetic open-loop traffic: a Zipf-skewed query
// stream with Poisson arrivals driven into ServeCore at its scheduled rate
// (arrivals do not wait for completions — queueing delay shows up in the
// measured latency instead of silently throttling the load). Three configs:
//
//   flood    — every window answered by shared word-parallel floods
//   indexed  — answers served from the offline reliability index
//   overload — burst arrivals against a tiny admission queue, so admission
//              control must shed (typed Unavailable), not melt
//
// Latency is completion time minus *scheduled* arrival time (the open-loop
// convention: a query that waited in the queue is charged its wait). The
// harness re-verifies the serving determinism contract on every config:
// each answered value must be bit-identical to a fresh QueryEngine batch
// over the same pairs — the same (version, estimator, seed, Z, query) tuple
// `relmax batch` answers from. A non-empty --json PATH writes the canonical
// BENCH_*.json shape for tools/check_bench_json.py (label "serving").
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "query/query_engine.h"
#include "query/query_set.h"
#include "serve/serve_core.h"

namespace relmax {
namespace bench {
namespace {

using Clock = std::chrono::steady_clock;

struct Arrival {
  double at_seconds = 0.0;  // offset from stream start
  NodeId s = 0;
  NodeId t = 0;
};

/// Zipf-skewed sources (weight (rank+1)^-theta), uniform targets, Poisson
/// arrivals at `qps`. Fully determined by (graph size, count, qps, theta,
/// seed) so runs are comparable across configs and machines.
std::vector<Arrival> MakeTraffic(NodeId num_nodes, int count, double qps,
                                 double theta, uint64_t seed) {
  std::vector<double> cdf(num_nodes);
  double total = 0.0;
  for (NodeId r = 0; r < num_nodes; ++r) {
    total += std::pow(static_cast<double>(r) + 1.0, -theta);
    cdf[r] = total;
  }
  for (double& c : cdf) c /= total;
  Rng rng(seed);
  std::vector<Arrival> traffic;
  traffic.reserve(static_cast<size_t>(count));
  double now = 0.0;
  for (int i = 0; i < count; ++i) {
    // Exponential inter-arrival gap: open-loop Poisson process at `qps`.
    now += -std::log(1.0 - rng.NextDouble()) / qps;
    Arrival a;
    a.at_seconds = now;
    const double u = rng.NextDouble();
    a.s = static_cast<NodeId>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    if (a.s >= num_nodes) a.s = num_nodes - 1;
    do {
      a.t = static_cast<NodeId>(rng.NextUint64(num_nodes));
    } while (a.t == a.s);
    traffic.push_back(a);
  }
  return traffic;
}

// Nearest-rank percentile over an ascending latency vector.
double PercentileMs(const std::vector<double>& sorted_ms, double p) {
  if (sorted_ms.empty()) return 0.0;
  const double rank = std::ceil(p * static_cast<double>(sorted_ms.size()));
  const size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return sorted_ms[std::min(idx, sorted_ms.size() - 1)];
}

struct ConfigResult {
  std::string name;
  int queries = 0;
  double offered_qps = 0.0;
  double achieved_qps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double p999_ms = 0.0;
  uint64_t shed = 0;
  int window_us = 0;
  bool identical = false;
};

/// One completed query's record, written once by whichever thread answers
/// it; ServeCore::Drain() orders every write before the main thread reads.
struct Slot {
  bool answered = false;
  double value = 0.0;
  Clock::time_point done_at;
};

ConfigResult RunConfig(const std::string& name, const UncertainGraph& g,
                       const std::vector<Arrival>& traffic, double offered_qps,
                       const serve::ServeOptions& options) {
  ConfigResult r;
  r.name = name;
  r.queries = static_cast<int>(traffic.size());
  r.offered_qps = offered_qps;
  r.window_us = options.window_us;

  std::vector<Slot> slots(traffic.size());
  Clock::time_point last_done;
  {
    serve::ServeCore core(g, options);
    const Clock::time_point start = Clock::now();
    for (size_t i = 0; i < traffic.size(); ++i) {
      const Clock::time_point due =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(traffic[i].at_seconds));
      std::this_thread::sleep_until(due);
      core.Submit(traffic[i].s, traffic[i].t,
                  [slot = &slots[i]](const StatusOr<double>& result,
                                     uint64_t /*epoch*/) {
                    if (result.ok()) {
                      slot->answered = true;
                      slot->value = *result;
                    }
                    slot->done_at = Clock::now();
                  });
    }
    core.Drain();
    r.shed = core.Stats().shed;
    last_done = Clock::now();

    // Latency per answered query, against its *scheduled* arrival.
    std::vector<double> latencies_ms;
    latencies_ms.reserve(slots.size());
    for (size_t i = 0; i < slots.size(); ++i) {
      if (!slots[i].answered) continue;
      const Clock::time_point due =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(traffic[i].at_seconds));
      latencies_ms.push_back(
          std::chrono::duration<double, std::milli>(slots[i].done_at - due)
              .count());
    }
    std::sort(latencies_ms.begin(), latencies_ms.end());
    r.p50_ms = PercentileMs(latencies_ms, 0.50);
    r.p99_ms = PercentileMs(latencies_ms, 0.99);
    r.p999_ms = PercentileMs(latencies_ms, 0.999);
    const double elapsed =
        std::chrono::duration<double>(last_done - start).count();
    r.achieved_qps =
        elapsed > 0.0 ? static_cast<double>(latencies_ms.size()) / elapsed
                      : 0.0;
  }

  // The serving determinism pin: every answered value must match a fresh
  // batch engine over the same pairs — the exact tuple `relmax batch`
  // answers from. Micro-batch windowing, lane count, and shedding must not
  // be observable in the values.
  QuerySet set;
  std::vector<size_t> answered_idx;
  for (size_t i = 0; i < slots.size(); ++i) {
    if (!slots[i].answered) continue;
    set.AddSt(traffic[i].s, traffic[i].t);
    answered_idx.push_back(i);
  }
  r.identical = true;
  if (!answered_idx.empty()) {
    QueryEngine reference(g, options.engine);
    const auto batch = reference.Answer(set);
    if (!batch.ok()) {
      r.identical = false;
    } else {
      for (size_t j = 0; j < answered_idx.size(); ++j) {
        if (slots[answered_idx[j]].value != batch->st_values[j]) {
          r.identical = false;
          break;
        }
      }
    }
  }
  return r;
}

void Run(const Flags& flags) {
  const std::string dataset_name = flags.GetString("dataset", "as_topology");
  const double scale = flags.GetDouble("scale", 0.1);
  const int num_samples = flags.GetInt32("samples", 2000);
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 7));
  const int num_queries = flags.GetInt32("queries", 2000);
  const double qps = flags.GetDouble("qps", 2000.0);
  const double theta = flags.GetDouble("theta", 0.8);
  const int window_us = flags.GetInt32("window-us", 2000);
  const int lanes = flags.GetInt32("lanes", 1);
  const std::string json_path = flags.GetString("json", "");

  auto dataset = MakeDataset(dataset_name, scale, seed);
  if (!dataset.ok()) {
    std::fprintf(stderr, "dataset failed: %s\n",
                 dataset.status().ToString().c_str());
    std::exit(1);
  }
  const UncertainGraph& g = dataset->graph;
  std::printf("=== Serving latency: open-loop Zipf/Poisson traffic vs "
              "micro-batched epoch-snapshot daemon ===\n");
  std::printf(
      "%s scale %.2f: %u nodes, %zu edges; Z = %d, seed = %llu, "
      "%d queries at %.0f qps (theta %.2f), window %d us, %d lane(s)\n\n",
      dataset_name.c_str(), scale, g.num_nodes(), g.num_edges(), num_samples,
      static_cast<unsigned long long>(seed), num_queries, qps, theta,
      window_us, lanes);

  serve::ServeOptions base;
  base.engine.num_samples = num_samples;
  base.engine.seed = seed;
  base.window_us = window_us;
  base.lanes = lanes;

  const std::vector<Arrival> traffic =
      MakeTraffic(g.num_nodes(), num_queries, qps, theta, seed);

  std::vector<ConfigResult> results;
  {
    serve::ServeOptions options = base;
    options.engine.use_index = false;
    results.push_back(RunConfig("flood", g, traffic, qps, options));
  }
  {
    serve::ServeOptions options = base;
    options.engine.use_index = true;
    results.push_back(RunConfig("indexed", g, traffic, qps, options));
  }
  {
    // Overload: the same query mix arrives as a hard burst against a tiny
    // admission queue. The daemon must shed (typed) rather than queue
    // without bound; the queries it does answer stay bit-identical.
    serve::ServeOptions options = base;
    options.engine.use_index = false;
    options.max_queue = 8;
    const double burst_qps = 1e6;
    std::vector<Arrival> burst =
        MakeTraffic(g.num_nodes(), num_queries, burst_qps, theta, seed);
    results.push_back(RunConfig("overload", g, burst, burst_qps, options));
  }

  TablePrinter table({"Config", "Queries", "Offered q/s", "Answered q/s",
                      "p50 ms", "p99 ms", "p999 ms", "Shed", "Identical"});
  bool all_identical = true;
  for (const ConfigResult& r : results) {
    all_identical = all_identical && r.identical;
    table.AddRow({r.name, Fmt(r.queries), Fmt(r.offered_qps, 0),
                  Fmt(r.achieved_qps, 1), Fmt(r.p50_ms, 3), Fmt(r.p99_ms, 3),
                  Fmt(r.p999_ms, 3), Fmt(static_cast<int>(r.shed)),
                  r.identical ? "yes" : "NO"});
  }
  table.Print();
  std::printf(
      "\nmicro-batching amortizes one shared flood across every query in a\n"
      "bounded-delay window, so p50 tracks the window while throughput\n"
      "tracks the flood rate; the indexed config answers from label-plane\n"
      "popcounts instead; overload answers what fits its queue and sheds\n"
      "the rest with a typed Unavailable status.\n");

  const auto enforce_identical = [&all_identical] {
    if (all_identical) return;
    std::fprintf(stderr,
                 "FAIL: served answers were not bit-identical to the batch "
                 "engine for the same (version, estimator, seed, Z, query) "
                 "tuple\n");
    std::exit(1);
  };
  if (json_path.empty()) {
    enforce_identical();
    return;
  }
  std::string json = "{\n  \"label\": \"serving\",\n";
  json += "  \"command\": \"bench_serving --dataset " + dataset_name +
          " --scale " + Fmt(scale, 2) + " --samples " +
          std::to_string(num_samples) + " --seed " + std::to_string(seed) +
          " --queries " + std::to_string(num_queries) + " --qps " +
          Fmt(qps, 0) + "\",\n";
  json += "  \"environment\": " +
          EnvironmentJson("WallTimer harness",
                          "open-loop arrivals: latency = completion minus "
                          "scheduled arrival, queueing delay included; "
                          "answers pinned bit-identical to a fresh "
                          "QueryEngine batch per config") +
          ",\n  \"benchmarks\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const ConfigResult& r = results[i];
    json += "    {\"name\": \"ServingTraffic/" + r.name + "\", \"queries\": " +
            std::to_string(r.queries) + ", \"offered_qps\": " +
            Fmt(r.offered_qps, 0) + ", \"qps\": " + Fmt(r.achieved_qps, 1) +
            ", \"p50_ms\": " + Fmt(r.p50_ms, 4) + ", \"p99_ms\": " +
            Fmt(r.p99_ms, 4) + ", \"p999_ms\": " + Fmt(r.p999_ms, 4) +
            ", \"shed\": " + std::to_string(r.shed) + ", \"window_us\": " +
            std::to_string(r.window_us) + ", \"bit_identical\": " +
            (r.identical ? "true" : "false") + "}" +
            (i + 1 < results.size() ? "," : "") + "\n";
  }
  json += "  ]\n}\n";
  FILE* f = std::fopen(json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    std::exit(1);
  }
  std::fputs(json.c_str(), f);
  std::fclose(f);
  std::printf("wrote %s\n", json_path.c_str());
  enforce_identical();
}

}  // namespace
}  // namespace bench
}  // namespace relmax

int main(int argc, char** argv) {
  relmax::bench::Run(relmax::Flags::Parse(argc, argv));
  return 0;
}
