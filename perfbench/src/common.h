// Shared pieces of the relmax benchmark: run arguments, the result report,
// statistics, the span tracer, and the seeded input generators.
#ifndef RELMAX_PERFBENCH_COMMON_H_
#define RELMAX_PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "graph/uncertain_graph.h"

namespace perfbench {

using relmax::NodeId;
using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double SecondsSince(Clock::time_point a) {
  return SecondsBetween(a, Clock::now());
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  /// Directory for generated graph files and span dumps.
  std::string data_dir;
};

/// Everything one run reports. Checks that fail clear `correct` and say why
/// on stderr; the run then exits non-zero after printing its result.
class Report {
 public:
  void Fail(const std::string& why);
  /// A human-readable line on stdout, before the result line.
  void Info(const std::string& line) const;
  void Metric(const std::string& name, double value, const std::string& unit);
  /// Prints the one-line JSON result (the last line of stdout).
  void Print() const;

  /// Moves the metrics recorded so far to info lines (a traced run reports
  /// its end-to-end numbers for reference, not as its result).
  void MetricsToInfo();

  bool correct() const { return correct_; }
  uint64_t attempted = 0;
  uint64_t failed = 0;

 private:
  bool correct_ = true;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
};

// ---- statistics over samples -------------------------------------------

double Mean(const std::vector<double>& v);
double Median(std::vector<double> v);

/// The highest percentile with at least ten samples beyond it: the 11th
/// largest sample. `percentile` and `beyond` describe it.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  size_t samples = 0;
  size_t beyond = 0;
};
Tail TailOf(std::vector<double> v);

/// Peak resident set of this process so far, MiB.
double PeakRssMb();

// ---- tracing -------------------------------------------------------------

/// In-memory spans recorded around the benchmark's own calls into each
/// layer. Disabled tracers record nothing and never read the clock.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  class Span {
   public:
    Span(Tracer* tracer, const char* name, bool on);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* tracer_;  // null when not recording
    size_t index_;
  };

  /// Opens a span that closes when the returned object is destroyed; with
  /// `on` false the span is a no-op (used to interleave untraced operations
  /// with traced ones and measure what the spans cost).
  Span Open(const char* name, bool on = true) { return Span(this, name, on); }
  bool enabled() const { return enabled_; }
  /// Durations of every closed span called `name`, seconds.
  std::vector<double> Durations(const std::string& name) const;
  /// One JSON object per span: name, start and end (ns from the first
  /// span), parent index (-1 for a root).
  void Write(const std::string& path) const;

 private:
  struct Record {
    const char* name;
    Clock::time_point start;
    Clock::time_point end;
    long parent;
  };
  bool enabled_;
  std::vector<Record> records_;
  long open_ = -1;  // innermost open span
};

// ---- inputs ----------------------------------------------------------------

/// Writes the named dataset (fixed dataset seed) under `dir` once and
/// returns its path; later runs reuse the file.
std::string EnsureGraphFile(const std::string& dir, const std::string& dataset,
                            double scale);

/// Zipf-skewed sources: node id r has weight (r + 1)^-theta. Draws are
/// stratified in blocks of 64 (one uniform per 1/64 slice of [0, 1),
/// shuffled), so every block holds nearly the same mix of hot and cold
/// sources and the work per run varies less from seed to seed; the
/// marginal distribution is still exactly Zipf.
class ZipfSources {
 public:
  ZipfSources(NodeId num_nodes, double theta);
  NodeId Next(relmax::Rng& rng);

 private:
  std::vector<double> cdf_;
  std::vector<NodeId> block_;  // drawn, not yet returned (back first)
};

/// Nearly-uniform node other than `s`.
NodeId UniformTarget(NodeId num_nodes, NodeId s, relmax::Rng& rng);

/// End of a random walk of 1..max_hops steps from `s` along out-arcs (the
/// walk stops early at a node with none); falls back to a uniform target
/// when the walk ends on `s`.
NodeId WalkTarget(const relmax::UncertainGraph& g, NodeId s, int max_hops,
                  relmax::Rng& rng);

/// A small probability edit on a uniformly chosen existing edge: ±delta,
/// clamped to [0.01, 0.99].
struct Nudge {
  NodeId u = 0;
  NodeId v = 0;
  double p = 0.0;
};
Nudge MakeNudge(const relmax::UncertainGraph& g, double delta,
                relmax::Rng& rng);
void ApplyNudge(relmax::UncertainGraph* g, const Nudge& nudge);

/// Nodes reachable from `s` over edges of nonzero probability (following
/// edge direction on directed graphs).
std::vector<bool> SupportReach(const relmax::UncertainGraph& g, NodeId s);

/// True when `v` is within `max_hops` hops of `u`, ignoring edge direction.
bool WithinHops(const relmax::UncertainGraph& g, NodeId u, NodeId v,
                int max_hops);

/// k·σ agreement between two independent Monte Carlo estimates at `z_a` and
/// `z_b` worlds: σ² = v·(1/z_a + 1/z_b) with v = max(p̄(1-p̄), 5/min(z)) for
/// the pooled p̄, so rare events (a handful of hits) keep some slack where
/// the normal approximation is poor.
bool AgreeWithin(double a, int z_a, double b, int z_b, double k);

}  // namespace perfbench

#endif  // RELMAX_PERFBENCH_COMMON_H_
