// The three workloads. Each reads its graph from a file (the timed set-up),
// warms what the workload needs, runs its measured loop, then checks every
// answer against references computed outside the measured region.
#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>

#include "common/logging.h"
#include "core/candidates.h"
#include "core/evaluate.h"
#include "core/solver.h"
#include "gen/queries.h"
#include "graph/graph_io.h"
#include "query/query_engine.h"
#include "sampling/reliability.h"
#include "serve/serve_core.h"

namespace perfbench {
namespace {

using relmax::QueryEngine;
using relmax::QueryEngineOptions;
using relmax::QuerySet;
using relmax::StQuery;
using relmax::UncertainGraph;

// Agreement bound for every comparison of two independent Monte Carlo
// estimates (see AgreeWithin).
constexpr double kSigmas = 5.0;
// Reference estimates use this many times the worlds of the answer they
// check, drawn from an unrelated seed, on all cores.
constexpr int kReferenceFactor = 2;
constexpr uint64_t kReferenceSalt = 0x5eedf00dULL;
// Probability change of every edit (a "nudge") the workloads apply.
constexpr double kNudge = 0.05;

std::string Fmt(const char* format, double a, double b = 0.0,
                double c = 0.0, double d = 0.0) {
  char line[256];
  std::snprintf(line, sizeof(line), format, a, b, c, d);
  return line;
}

UncertainGraph ReadGraph(const std::string& path) {
  auto g = relmax::ReadEdgeList(path);
  RELMAX_CHECK(g.ok());
  return std::move(*g);
}

// Median and tail of a latency sample in ms; the tail's percentile and
// sample count go to an info line.
void ReportLatency(const std::vector<double>& ms, Report* report) {
  const Tail tail = TailOf(ms);
  report->Metric("latency_p50_ms", Median(ms), "ms");
  report->Metric("latency_tail_ms", tail.value, "ms");
  report->Info(Fmt("latency tail: p%.2f over %.0f samples, %.0f beyond it",
                   tail.percentile, static_cast<double>(tail.samples),
                   static_cast<double>(tail.beyond)));
  if (tail.samples < 40) {
    report->Info("warning: fewer than 40 latency samples; the tail is thin");
  }
}

// Tracing overhead: traced operations (odd-numbered) against untraced ones.
void PutOverhead(const std::vector<double>& ms, LayerMap* layers) {
  std::vector<double> traced, untraced;
  for (size_t i = 0; i < ms.size(); ++i) {
    (i % 2 == 1 ? traced : untraced).push_back(ms[i]);
  }
  (*layers)["trace.overhead_pct"] = {
      100.0 * (Median(traced) / Median(untraced) - 1.0), "%"};
}

void AddReadMetric(const std::vector<double>& read_s, LayerMap* layers) {
  (*layers)["graph.read_s"] = {Median(read_s), "s"};
}

}  // namespace

// ---- solve -------------------------------------------------------------------
//
// Closed loop, one caller: edit one edge, then MaximizeReliability (BE,
// k=10, ζ=0.5, r=100, l=30, h=3, Z=500, one thread) on the next paper-style
// 3–5-hop pair of directed as_topology at scale 1.0. The solver keeps no
// state between calls, so every solve is also an edit-visibility sample.

void RunSolve(const Args& args, Tracer* tracer, Report* report,
              LayerMap* layers) {
  const std::string path = EnsureGraphFile(args.data_dir, "as_topology", 1.0);

  // Set-up is the graph read: once before the loop, and eight more times
  // spread over it, so the median spans the run.
  std::vector<double> read_s;
  auto read = [&] {
    const Clock::time_point t0 = Clock::now();
    UncertainGraph g = ReadGraph(path);
    read_s.push_back(SecondsSince(t0));
    return g;
  };
  UncertainGraph g = read();
  const UncertainGraph initial = g;

  relmax::QueryGenOptions gen;
  gen.seed = args.seed;
  auto generated = relmax::GenerateQueries(g, 600, gen);
  RELMAX_CHECK(generated.ok());
  std::vector<StQuery> pairs;
  for (const auto& [s, t] : *generated) pairs.push_back({s, t});
  const std::vector<StQuery> warm(pairs.end() - 2, pairs.end());
  pairs.resize(pairs.size() - 2);

  relmax::SolverOptions options;  // k=10, ζ=0.5, r=100, l=30, h=3, Z=500
  options.seed = args.seed;
  options.num_threads = 1;
  for (const StQuery& q : warm) {
    RELMAX_CHECK(relmax::MaximizeReliability(g, q.s, q.t, options).ok());
  }

  struct Record {
    StQuery pair;
    Nudge nudge;
    std::optional<relmax::Solution> solution;  // empty when the solve failed
  };
  std::vector<Record> records;
  std::vector<double> solve_ms, visible_ms;
  relmax::Rng edit_rng(args.seed ^ 0xed17);
  double timed = 0.0;
  for (size_t i = 0; timed < args.seconds; ++i) {
    if (read_s.size() < 9 && timed >= read_s.size() * args.seconds / 9) {
      read();
    }
    const StQuery q = pairs[i % pairs.size()];
    const Nudge nudge = MakeNudge(g, kNudge, edit_rng);
    const bool traced = i % 2 == 1;
    const Clock::time_point t0 = Clock::now();
    {
      auto span = tracer->Open("graph.update", traced);
      ApplyNudge(&g, nudge);
    }
    const Clock::time_point t1 = Clock::now();
    auto solution = [&] {
      auto span = tracer->Open("core.solve", traced);
      return relmax::MaximizeReliability(g, q.s, q.t, options);
    }();
    const Clock::time_point t2 = Clock::now();
    ++report->attempted;
    timed += SecondsBetween(t0, t2);
    if (!solution.ok()) {
      ++report->failed;
      records.push_back({q, nudge, std::nullopt});
      continue;
    }
    solve_ms.push_back(1e3 * SecondsBetween(t1, t2));
    visible_ms.push_back(1e3 * SecondsBetween(t0, t2));
    records.push_back({q, nudge, std::move(*solution)});
  }
  const double peak_rss = PeakRssMb();
  report->Metric("setup_s", Median(read_s), "s");

  // Checks, on a replica replaying the same edits.
  UncertainGraph replica = initial;
  relmax::SampleOptions reference;
  reference.num_samples = kReferenceFactor * options.num_samples;
  reference.seed = args.seed ^ kReferenceSalt;
  reference.num_threads = 0;
  std::vector<double> abs_err, gains;
  constexpr size_t kCandidateChecks = 16;
  // A fixed subset, so abs_err_mean repeats exactly for a fixed seed.
  constexpr size_t kReferenceChecks = 300;
  for (size_t i = 0; i < records.size(); ++i) {
    const Record& r = records[i];
    ApplyNudge(&replica, r.nudge);
    if (!r.solution) continue;
    const relmax::Solution& sol = *r.solution;
    if (sol.added_edges.size() > static_cast<size_t>(options.budget_k)) {
      report->Fail("solve added more than k edges");
    }
    std::unique_ptr<relmax::CandidateSet> candidates;
    if (i < kCandidateChecks) {
      auto made = relmax::SelectCandidates(replica, r.pair.s, r.pair.t,
                                           options);
      RELMAX_CHECK(made.ok());
      candidates = std::make_unique<relmax::CandidateSet>(std::move(*made));
    }
    for (const relmax::Edge& e : sol.added_edges) {
      if (replica.HasEdge(e.src, e.dst)) {
        report->Fail("solve added an edge the graph already has");
      }
      if (e.prob != options.zeta) report->Fail("added edge probability != ζ");
      if (!WithinHops(replica, e.src, e.dst, options.hop_h)) {
        report->Fail("added edge joins nodes more than h hops apart");
      }
      if (candidates != nullptr &&
          (std::find(candidates->from_source.begin(),
                     candidates->from_source.end(),
                     e.src) == candidates->from_source.end() ||
           std::find(candidates->to_target.begin(),
                     candidates->to_target.end(),
                     e.dst) == candidates->to_target.end())) {
        report->Fail("added edge does not join C(s) to C(t)");
      }
    }
    if (i >= kReferenceChecks) continue;
    const double before =
        relmax::EstimateReliability(replica, r.pair.s, r.pair.t, reference);
    const double after = relmax::EstimateReliability(
        relmax::AugmentGraph(replica, sol.added_edges), r.pair.s, r.pair.t,
        reference);
    if (after < before &&
        !AgreeWithin(after, reference.num_samples, before,
                     reference.num_samples, kSigmas)) {
      report->Fail("re-estimated reliability fell after adding edges");
    }
    abs_err.push_back(std::fabs(sol.reliability_before - before));
    abs_err.push_back(std::fabs(sol.reliability_after - after));
    gains.push_back(after - before);
  }

  report->Metric("throughput", static_cast<double>(solve_ms.size()) / timed,
                 "ops/s");
  ReportLatency(solve_ms, report);
  report->Metric("update_visible_ms", Median(visible_ms), "ms");
  report->Metric("peak_rss_mb", peak_rss, "MiB");
  report->Metric("abs_err_mean", Mean(abs_err), "prob");
  if (records.size() < kReferenceChecks) {
    report->Info("warning: fewer solves than the reference subset");
  }
  report->Info(Fmt("solves %.0f; re-estimated gain mean %.4f over %.0f",
                   static_cast<double>(solve_ms.size()), Mean(gains),
                   static_cast<double>(gains.size())));
  if (!tracer->enabled()) return;

  ProbeInputs probe;
  probe.graph = &initial;
  probe.pairs = pairs;
  probe.solve_pairs.assign(pairs.begin(), pairs.begin() + 4);
  probe.num_samples = options.num_samples;
  probe.seed = args.seed;
  ProbeLayers(probe, tracer, layers);
  // Measured on the solve loop itself.
  std::vector<double> elimination_ms, candidate_edges, paths_considered;
  for (const Record& r : records) {
    if (!r.solution) continue;
    const relmax::SolutionStats& stats = r.solution->stats;
    elimination_ms.push_back(1e3 * stats.elimination_seconds);
    candidate_edges.push_back(static_cast<double>(stats.candidate_edges));
    paths_considered.push_back(static_cast<double>(stats.paths_considered));
  }
  (*layers)["core.candidates_ms"] = {Median(elimination_ms), "ms"};
  (*layers)["core.candidate_edges"] = {Mean(candidate_edges), "count"};
  (*layers)["core.paths_considered"] = {Mean(paths_considered), "count"};
  (*layers)["core.gain_mean"] = {Mean(gains), "prob"};
  AddReadMetric(read_s, layers);
  PutOverhead(solve_ms, layers);
}

// ---- batch -------------------------------------------------------------------
//
// Closed loop, one caller: successive batches of 16 s-t pairs through
// QueryEngine::Answer on the default flood path (Z=2000, no index, one
// thread) over directed as_topology at scale 0.5. Sources are Zipf (θ 0.8),
// targets uniform.

void RunBatch(const Args& args, Tracer* tracer, Report* report,
              LayerMap* layers) {
  constexpr size_t kBatch = 16;
  const std::string path = EnsureGraphFile(args.data_dir, "as_topology", 0.5);
  QueryEngineOptions options;
  options.seed = args.seed;
  options.num_threads = 1;

  // Set-up: graph read plus the first bank fill (one warm query), five
  // times; the last one serves the loop.
  std::vector<double> setup_s, read_s;
  auto set_up = [&](std::unique_ptr<UncertainGraph>* g,
                    std::unique_ptr<QueryEngine>* engine) {
    const Clock::time_point t0 = Clock::now();
    *g = std::make_unique<UncertainGraph>(ReadGraph(path));
    read_s.push_back(SecondsSince(t0));
    *engine = std::make_unique<QueryEngine>(**g, options);
    RELMAX_CHECK((*engine)->EstimateSt(0, (*g)->num_nodes() - 1).ok());
    setup_s.push_back(SecondsSince(t0));
  };
  std::unique_ptr<UncertainGraph> g;
  std::unique_ptr<QueryEngine> engine;
  for (int rep = 0; rep < 5; ++rep) {
    engine.reset();
    set_up(&g, &engine);
  }

  ZipfSources zipf(g->num_nodes(), 0.8);
  relmax::Rng rng(args.seed);
  auto next_pair = [&] {
    const NodeId s = zipf.Next(rng);
    return StQuery{s, UniformTarget(g->num_nodes(), s, rng)};
  };

  // Edit visibility, sampled after every second batch once the checked
  // pairs are answered: edit one edge, then answer one new pair from the
  // hottest source (node 0, so every sample floods the same source), which
  // pays the bank refill the edit forces. Its time stays out of the loop's
  // numbers.
  const UncertainGraph initial = *g;
  constexpr size_t kChecked = 512;
  relmax::Rng edit_rng(args.seed ^ 0xed17);
  std::vector<double> visible_ms;
  auto edit_and_answer = [&] {
    const Nudge nudge = MakeNudge(*g, kNudge, edit_rng);
    const NodeId t = UniformTarget(g->num_nodes(), 0, edit_rng);
    const Clock::time_point t0 = Clock::now();
    ApplyNudge(g.get(), nudge);
    auto value = engine->EstimateSt(0, t);
    visible_ms.push_back(1e3 * SecondsSince(t0));
    ++report->attempted;
    if (!value.ok()) {
      ++report->failed;
    } else if (!(*value >= 0.0 && *value <= 1.0)) {
      report->Fail("batch answer outside [0, 1] after an edit");
    }
  };

  std::vector<StQuery> asked;
  std::vector<double> values, batch_ms;
  double timed = 0.0, floods = 0.0, hits = 0.0;
  for (size_t i = 0; timed < args.seconds; ++i) {
    if (asked.size() >= kChecked && i % 2 == 1) edit_and_answer();
    QuerySet set;
    for (size_t j = 0; j < kBatch; ++j) {
      const StQuery q = next_pair();
      set.AddSt(q.s, q.t);
      asked.push_back(q);
    }
    const Clock::time_point t0 = Clock::now();
    auto result = [&] {
      auto span = tracer->Open("query.answer", i % 2 == 1);
      return engine->Answer(set);
    }();
    const double seconds = SecondsSince(t0);
    report->attempted += kBatch;
    if (!result.ok()) {
      report->failed += kBatch;
      asked.resize(asked.size() - kBatch);
      continue;
    }
    timed += seconds;
    batch_ms.push_back(1e3 * seconds);
    values.insert(values.end(), result->st_values.begin(),
                  result->st_values.end());
    floods += static_cast<double>(result->stats.floods);
    hits += static_cast<double>(result->stats.cache_hits);
  }
  report->Metric("setup_s", Median(setup_s), "s");
  const double peak_rss = PeakRssMb();

  // Checks: range, exact zeros off the support graph (edits keep every
  // probability inside (0, 1), so the support never changes), and agreement
  // with independent estimates on the pairs answered before any edit.
  std::unordered_map<NodeId, std::vector<bool>> reach;
  for (size_t i = 0; i < asked.size(); ++i) {
    const double v = values[i];
    if (!(v >= 0.0 && v <= 1.0)) report->Fail("batch answer outside [0, 1]");
    auto it = reach.find(asked[i].s);
    if (it == reach.end()) {
      it = reach.emplace(asked[i].s, SupportReach(initial, asked[i].s)).first;
    }
    if (!it->second[asked[i].t] && v != 0.0) {
      report->Fail("batch answered nonzero for a pair with no path");
    }
  }
  const int z_ref = kReferenceFactor * options.num_samples;
  const size_t checked = std::min(kChecked, asked.size());
  QueryEngineOptions reference_options = options;
  reference_options.num_samples = z_ref;
  reference_options.seed = args.seed ^ kReferenceSalt;
  reference_options.num_threads = 0;
  reference_options.cache_results = false;
  QueryEngine reference(initial, reference_options);
  QuerySet subset;
  for (size_t i = 0; i < checked; ++i) subset.AddSt(asked[i].s, asked[i].t);
  auto ref = reference.Answer(subset);
  RELMAX_CHECK(ref.ok());
  std::vector<double> abs_err;
  for (size_t i = 0; i < checked; ++i) {
    const double r = ref->st_values[i];
    abs_err.push_back(std::fabs(values[i] - r));
    if (!AgreeWithin(values[i], options.num_samples, r, z_ref, kSigmas)) {
      report->Fail("batch answer disagrees with the reference engine");
    }
  }
  relmax::SampleOptions estimate;
  estimate.num_samples = z_ref;
  estimate.seed = args.seed ^ kReferenceSalt;
  estimate.num_threads = 0;
  for (size_t i = 0; i < std::min<size_t>(32, asked.size()); ++i) {
    const double r =
        relmax::EstimateReliability(initial, asked[i].s, asked[i].t, estimate);
    if (!AgreeWithin(values[i], options.num_samples, r, z_ref, kSigmas)) {
      report->Fail("batch answer disagrees with EstimateReliability");
    }
  }

  const double answered = static_cast<double>(values.size());
  report->Metric("throughput", answered / timed, "ops/s");
  ReportLatency(batch_ms, report);
  report->Metric("update_visible_ms", Median(visible_ms), "ms");
  report->Metric("peak_rss_mb", peak_rss, "MiB");
  report->Metric("abs_err_mean", Mean(abs_err), "prob");
  report->Info(Fmt("batches %.0f of %.0f pairs; floods per query %.3f",
                   static_cast<double>(batch_ms.size()),
                   static_cast<double>(kBatch), floods / answered));
  if (!tracer->enabled()) return;

  ProbeInputs probe;
  probe.graph = &initial;
  probe.pairs = asked;
  auto solve_pairs = relmax::GenerateQueries(initial, 4, {});
  RELMAX_CHECK(solve_pairs.ok());
  for (const auto& [s, t] : *solve_pairs) probe.solve_pairs.push_back({s, t});
  probe.num_samples = options.num_samples;
  probe.seed = args.seed;
  ProbeLayers(probe, tracer, layers);
  std::vector<double> per_query_ms;
  for (double d : tracer->Durations("query.answer")) {
    per_query_ms.push_back(1e3 * d / kBatch);
  }
  (*layers)["query.answer_ms"] = {Median(per_query_ms), "ms"};
  (*layers)["query.floods_per_query"] = {floods / answered, "ratio"};
  (*layers)["query.cache_hit_ratio"] = {hits / answered, "ratio"};
  AddReadMetric(read_s, layers);
  PutOverhead(batch_ms, layers);
}

// ---- serve -------------------------------------------------------------------
//
// Open loop from one generator thread into ServeCore (index on, two lanes,
// engine at one thread, default window and queue) over undirected lastfm
// at scale 1.0: Poisson reads with Zipf sources and short-walk targets, plus
// one edge edit per second, each followed at once by one read.

namespace {

// One read's outcome, written once by the thread that answers it and read
// by the generator after ServeCore::Drain().
struct Slot {
  StQuery pair;
  bool ok = false;
  double value = 0.0;
  uint64_t epoch = 0;
  Clock::time_point due;
  Clock::time_point done;
};

// Counts answered reads, so the generator can wait for a window's worth.
class Completions {
 public:
  void Add() {
    bool wake;
    {
      std::lock_guard<std::mutex> lock(mu_);
      wake = ++done_ == target_;
    }
    if (wake) cv_.notify_one();
  }
  void WaitForAtLeast(uint64_t n) {
    std::unique_lock<std::mutex> lock(mu_);
    target_ = n;
    cv_.wait(lock, [&] { return done_ >= n; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  uint64_t done_ = 0;
  uint64_t target_ = 0;  // the count a waiter needs; only it is signalled
};

}  // namespace

void RunServe(const Args& args, Tracer* tracer, Report* report,
              LayerMap* layers) {
  constexpr double kReadsPerSecond = 200.0;
  constexpr double kWriteEverySeconds = 1.0;
  // Throughput counts the reads answered within this long of their
  // scheduled time: the offered rate less the reads edit stalls hold up.
  constexpr double kGoodLatencyMs = 20.0;
  constexpr size_t kCheckPairs = 2000;
  const std::string path = EnsureGraphFile(args.data_dir, "lastfm", 1.0);
  relmax::serve::ServeOptions options;
  options.engine.use_index = true;
  options.engine.num_threads = 1;
  options.engine.seed = args.seed;
  options.lanes = 2;

  const UncertainGraph initial = ReadGraph(path);
  ZipfSources zipf(initial.num_nodes(), 0.8);
  relmax::Rng rng(args.seed);
  auto next_pair = [&] {
    const NodeId s = zipf.Next(rng);
    return StQuery{s, WalkTarget(initial, s, 3, rng)};
  };

  // The schedule: reads and writes in due order.
  struct Op {
    double at = 0.0;
    bool write = false;
    StQuery pair;  // the read (a write's follow-up read)
  };
  std::vector<Op> schedule;
  {
    double now = 0.0;
    double next_write = 0.5 * kWriteEverySeconds;
    for (;;) {
      now += -std::log(1.0 - rng.NextDouble()) / kReadsPerSecond;
      while (next_write < std::min(now, args.seconds)) {
        schedule.push_back({next_write, true, next_pair()});
        next_write += kWriteEverySeconds;
      }
      if (now >= args.seconds) break;
      schedule.push_back({now, false, next_pair()});
    }
  }
  std::vector<StQuery> check_pairs(kCheckPairs);
  for (StQuery& q : check_pairs) q = next_pair();

  std::vector<Slot> slots(kCheckPairs + schedule.size());
  Completions completions;
  auto submit = [&](relmax::serve::ServeCore& core, size_t i) {
    Slot* slot = &slots[i];
    core.Submit(slot->pair.s, slot->pair.t,
                [slot, &completions](const relmax::StatusOr<double>& result,
                                     uint64_t epoch) {
                  slot->ok = result.ok();
                  if (result.ok()) slot->value = *result;
                  slot->epoch = epoch;
                  slot->done = Clock::now();
                  completions.Add();
                });
  };

  // Set-up: graph read, core start, and both lanes warm (bank and index
  // built). The first read keeps one lane busy building while the second,
  // sent 20 ms later, lands on the other lane. The first set-up serves the
  // run; two more run after the open loop has been measured.
  std::vector<double> setup_s, read_s;
  auto set_up = [&] {
    const Clock::time_point t0 = Clock::now();
    UncertainGraph g = ReadGraph(path);
    read_s.push_back(SecondsSince(t0));
    auto core =
        std::make_unique<relmax::serve::ServeCore>(std::move(g), options);
    auto ignore = [](const relmax::StatusOr<double>&, uint64_t) {};
    core->Submit(0, 1, ignore);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    core->Submit(1, 0, ignore);
    core->Drain();
    setup_s.push_back(SecondsSince(t0));
    return core;
  };
  std::unique_ptr<relmax::serve::ServeCore> core = set_up();
  report->Info(Fmt("peak RSS after set-up: %.1f MiB", PeakRssMb()));
  {
    // Both lanes must answer fast now; a slow second round means a lane was
    // still cold and the measured loop would pay for it.
    const Clock::time_point t0 = Clock::now();
    auto ignore = [](const relmax::StatusOr<double>&, uint64_t) {};
    core->Submit(2, 3, ignore);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    core->Submit(3, 2, ignore);
    core->Drain();
    const double second_round = SecondsSince(t0);
    report->Info(Fmt("warm check round: %.1f ms", 1e3 * second_round));
    if (second_round > 0.5) report->Info("warning: a lane was still cold");
  }

  // Epoch-0 check subset, answered by the warm lanes before the clock, one
  // window at a time (the admission queue would shed a single burst).
  for (size_t i = 0; i < kCheckPairs; ++i) {
    slots[i].pair = check_pairs[i];
    submit(*core, i);
    if ((i + 1) % options.max_batch == 0) completions.WaitForAtLeast(i + 1);
  }
  core->Drain();

  // The open loop.
  const relmax::serve::ServeStats before = core->Stats();
  std::vector<Nudge> nudges;
  std::vector<double> lag_ms;
  std::vector<std::pair<Clock::time_point, size_t>> writes;  // start, slot
  UncertainGraph shadow = initial;  // the generator's view, for edits
  const Clock::time_point start = Clock::now();
  for (size_t k = 0; k < schedule.size(); ++k) {
    const Op& op = schedule[k];
    const size_t i = kCheckPairs + k;
    slots[i].pair = op.pair;
    slots[i].due = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(op.at));
    std::this_thread::sleep_until(slots[i].due);
    const Clock::time_point sent = Clock::now();
    lag_ms.push_back(1e3 * SecondsBetween(slots[i].due, sent));
    if (op.write) {
      const Nudge nudge = MakeNudge(shadow, kNudge, rng);
      ApplyNudge(&shadow, nudge);
      nudges.push_back(nudge);
      {
        auto span = tracer->Open("serve.publish");
        auto epoch = core->UpdateEdgeProb(nudge.u, nudge.v, nudge.p);
        RELMAX_CHECK(epoch.ok() && *epoch == nudges.size());
      }
      writes.push_back({sent, i});
      ++report->attempted;
    }
    auto span = tracer->Open("serve.submit", k % 2 == 1);
    submit(*core, i);
  }
  core->Drain();
  const double open_seconds = SecondsSince(start);
  const relmax::serve::ServeStats stats = core->Stats();
  const double peak_rss = PeakRssMb();
  core.reset();
  for (int rep = 0; rep < 2; ++rep) set_up();
  report->Metric("setup_s", Median(setup_s), "s");
  report->attempted += slots.size();
  for (const Slot& slot : slots) {
    if (!slot.ok) ++report->failed;
  }

  // Serve == a fresh batch engine at each read's epoch (flood path, so the
  // index is checked against floods), and epoch-0 answers against
  // independent Monte Carlo estimates.
  UncertainGraph replica = initial;
  for (size_t epoch = 0; epoch <= nudges.size(); ++epoch) {
    if (epoch > 0) ApplyNudge(&replica, nudges[epoch - 1]);
    QueryEngineOptions fresh_options = options.engine;
    fresh_options.use_index = false;
    fresh_options.num_threads = 0;
    QueryEngine fresh(replica, fresh_options);
    QuerySet set;
    std::vector<const Slot*> pinned;
    for (const Slot& slot : slots) {
      if (slot.ok && slot.epoch == epoch) {
        set.AddSt(slot.pair.s, slot.pair.t);
        pinned.push_back(&slot);
      }
    }
    if (pinned.empty()) continue;
    auto expect = fresh.Answer(set);
    RELMAX_CHECK(expect.ok());
    for (size_t j = 0; j < pinned.size(); ++j) {
      if (pinned[j]->value != expect->st_values[j]) {
        report->Fail("serve answer differs from a fresh batch at its epoch");
      }
    }
  }
  const int z = options.engine.num_samples;
  relmax::SampleOptions reference;
  reference.num_samples = kReferenceFactor * z;
  reference.seed = args.seed ^ kReferenceSalt;
  reference.num_threads = 0;
  std::unordered_map<NodeId, std::vector<double>> from_source;
  std::vector<double> abs_err;
  for (size_t i = 0; i < kCheckPairs; ++i) {
    const Slot& slot = slots[i];
    if (!slot.ok || slot.epoch != 0) {
      report->Fail("check read not answered at epoch 0");
      continue;
    }
    auto it = from_source.find(slot.pair.s);
    if (it == from_source.end()) {
      it = from_source
               .emplace(slot.pair.s, relmax::ReliabilityFromSource(
                                         initial, slot.pair.s, reference))
               .first;
    }
    const double r = it->second[slot.pair.t];
    abs_err.push_back(std::fabs(slot.value - r));
    if (!AgreeWithin(slot.value, z, r, reference.num_samples, kSigmas)) {
      report->Fail("serve answer disagrees with the Monte Carlo reference");
    }
  }

  std::vector<double> latency_ms, visible_ms;
  size_t good = 0;
  for (size_t i = kCheckPairs; i < slots.size(); ++i) {
    latency_ms.push_back(1e3 * SecondsBetween(slots[i].due, slots[i].done));
    if (slots[i].ok && latency_ms.back() <= kGoodLatencyMs) ++good;
  }
  for (size_t w = 0; w < writes.size(); ++w) {
    const Slot& slot = slots[writes[w].second];
    if (slot.epoch != w + 1) report->Fail("read after a write saw an old epoch");
    visible_ms.push_back(1e3 * SecondsBetween(writes[w].first, slot.done));
  }
  report->Metric("throughput", static_cast<double>(good) / args.seconds,
                 "ops/s");
  ReportLatency(latency_ms, report);
  report->Metric("update_visible_ms", Median(visible_ms), "ms");
  report->Metric("peak_rss_mb", peak_rss, "MiB");
  report->Metric("abs_err_mean", Mean(abs_err), "prob");
  report->Info(Fmt("open loop: %.0f reads, %.0f writes in %.2f s; "
                   "generator lag p50 %.3f ms",
                   static_cast<double>(latency_ms.size()),
                   static_cast<double>(writes.size()), open_seconds,
                   Median(lag_ms)));
  if (!tracer->enabled()) return;

  ProbeInputs probe;
  probe.graph = &initial;
  probe.pairs = check_pairs;
  auto solve_pairs = relmax::GenerateQueries(initial, 4, {});
  RELMAX_CHECK(solve_pairs.ok());
  for (const auto& [s, t] : *solve_pairs) probe.solve_pairs.push_back({s, t});
  probe.num_samples = z;
  probe.seed = args.seed;
  ProbeLayers(probe, tracer, layers);
  const double answered = static_cast<double>(stats.answered - before.answered);
  (*layers)["query.cache_hit_ratio"] = {
      static_cast<double>(stats.cache_hits - before.cache_hits) / answered,
      "ratio"};
  (*layers)["query.floods_per_query"] = {
      static_cast<double>(stats.floods - before.floods) / answered, "ratio"};
  (*layers)["serve.submit_us"] = {
      1e6 * Median(tracer->Durations("serve.submit")), "us"};
  (*layers)["serve.window_size_mean"] = {
      answered / static_cast<double>(stats.batches - before.batches),
      "count"};
  (*layers)["serve.publish_ms"] = {
      1e3 * Median(tracer->Durations("serve.publish")), "ms"};
  (*layers)["serve.generator_lag_ms"] = {Median(lag_ms), "ms"};
  AddReadMetric(read_s, layers);
  PutOverhead(latency_ms, layers);
}

}  // namespace perfbench
