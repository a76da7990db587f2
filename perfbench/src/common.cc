#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>

#include "common/logging.h"
#include "gen/datasets.h"
#include "graph/graph_io.h"

namespace perfbench {

// ---- Report ------------------------------------------------------------------

void Report::Fail(const std::string& why) {
  if (correct_) std::fprintf(stderr, "CHECK FAILED: %s\n", why.c_str());
  correct_ = false;
}

void Report::Info(const std::string& line) const {
  std::printf("# %s\n", line.c_str());
  std::fflush(stdout);
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, {value, unit}});
}

void Report::MetricsToInfo() {
  for (const auto& [name, value] : metrics_) {
    char line[160];
    std::snprintf(line, sizeof(line), "%s = %.6g %s", name.c_str(),
                  value.first, value.second.c_str());
    Info(line);
  }
  metrics_.clear();
}

void Report::Print() const {
  std::string out = "{\"correct\": ";
  out += correct_ ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    char value[64];
    // Non-finite values are not JSON; they only arise from a broken run.
    const double v = metrics_[i].second.first;
    std::snprintf(value, sizeof(value), "%.17g", std::isfinite(v) ? v : -1.0);
    if (i > 0) out += ", ";
    out += "\"" + metrics_[i].first + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics_[i].second.second + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

// ---- statistics ----------------------------------------------------------------

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Tail TailOf(std::vector<double> v) {
  Tail tail;
  tail.samples = v.size();
  if (v.empty()) return tail;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  const size_t index = n > 10 ? n - 11 : 0;
  tail.value = v[index];
  tail.beyond = n - 1 - index;
  tail.percentile = 100.0 * static_cast<double>(index + 1) /
                    static_cast<double>(n);
  return tail;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---- Tracer ----------------------------------------------------------------------

Tracer::Span::Span(Tracer* tracer, const char* name, bool on)
    : tracer_(tracer->enabled_ && on ? tracer : nullptr), index_(0) {
  if (tracer_ == nullptr) return;
  index_ = tracer_->records_.size();
  tracer_->records_.push_back({name, Clock::now(), {}, tracer_->open_});
  tracer_->open_ = static_cast<long>(index_);
}

Tracer::Span::~Span() {
  if (tracer_ == nullptr) return;
  Record& record = tracer_->records_[index_];
  record.end = Clock::now();
  tracer_->open_ = record.parent;
}

std::vector<double> Tracer::Durations(const std::string& name) const {
  std::vector<double> out;
  for (const Record& r : records_) {
    if (name == r.name) out.push_back(SecondsBetween(r.start, r.end));
  }
  return out;
}

void Tracer::Write(const std::string& path) const {
  if (records_.empty()) return;
  std::ofstream out(path);
  const Clock::time_point origin = records_.front().start;
  auto ns = [origin](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin)
        .count();
  };
  for (const Record& r : records_) {
    out << "{\"name\": \"" << r.name << "\", \"start_ns\": " << ns(r.start)
        << ", \"end_ns\": " << ns(r.end) << ", \"parent\": " << r.parent
        << "}\n";
  }
}

// ---- inputs ----------------------------------------------------------------------

std::string EnsureGraphFile(const std::string& dir, const std::string& dataset,
                            double scale) {
  // The graph stands for a fixed dataset: its generator seed never changes,
  // so every run of a workload reads the same graph; the workload seed only
  // drives the traffic, edits and sampling seeds.
  constexpr uint64_t kDatasetSeed = 42;
  char name[128];
  std::snprintf(name, sizeof(name), "%s-%.2f.txt", dataset.c_str(), scale);
  const std::string path = dir + "/" + name;
  if (std::filesystem::exists(path)) return path;
  std::filesystem::create_directories(dir);
  auto made = relmax::MakeDataset(dataset, scale, kDatasetSeed);
  RELMAX_CHECK(made.ok());
  const std::string tmp = path + ".tmp";
  RELMAX_CHECK(relmax::WriteEdgeList(made->graph, tmp).ok());
  std::filesystem::rename(tmp, path);
  return path;
}

ZipfSources::ZipfSources(NodeId num_nodes, double theta) : cdf_(num_nodes) {
  double total = 0.0;
  for (NodeId r = 0; r < num_nodes; ++r) {
    total += std::pow(static_cast<double>(r) + 1.0, -theta);
    cdf_[r] = total;
  }
  for (double& c : cdf_) c /= total;
}

NodeId ZipfSources::Next(relmax::Rng& rng) {
  constexpr int kBlock = 64;
  if (block_.empty()) {
    for (int j = 0; j < kBlock; ++j) {
      const double u = (j + rng.NextDouble()) / kBlock;
      const size_t r = static_cast<size_t>(
          std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
      block_.push_back(static_cast<NodeId>(std::min(r, cdf_.size() - 1)));
    }
    for (int j = kBlock - 1; j > 0; --j) {  // Fisher–Yates
      std::swap(block_[j], block_[rng.NextUint64(j + 1)]);
    }
  }
  const NodeId s = block_.back();
  block_.pop_back();
  return s;
}

NodeId UniformTarget(NodeId num_nodes, NodeId s, relmax::Rng& rng) {
  NodeId t;
  do {
    t = static_cast<NodeId>(rng.NextUint64(num_nodes));
  } while (t == s);
  return t;
}

NodeId WalkTarget(const relmax::UncertainGraph& g, NodeId s, int max_hops,
                  relmax::Rng& rng) {
  const int hops = 1 + static_cast<int>(rng.NextUint64(max_hops));
  NodeId at = s;
  for (int i = 0; i < hops; ++i) {
    const relmax::ArcSpan arcs = g.OutArcs(at);
    if (arcs.empty()) break;
    at = arcs[rng.NextUint64(arcs.size())].to;
  }
  return at == s ? UniformTarget(g.num_nodes(), s, rng) : at;
}

Nudge MakeNudge(const relmax::UncertainGraph& g, double delta,
                relmax::Rng& rng) {
  const relmax::Edge& e = g.EdgeById(
      static_cast<relmax::EdgeId>(rng.NextUint64(g.num_edges())));
  const double signed_delta = (rng.Next() & 1) ? delta : -delta;
  return {e.src, e.dst, std::clamp(e.prob + signed_delta, 0.01, 0.99)};
}

void ApplyNudge(relmax::UncertainGraph* g, const Nudge& nudge) {
  RELMAX_CHECK(g->UpdateEdgeProb(nudge.u, nudge.v, nudge.p).ok());
}

std::vector<bool> SupportReach(const relmax::UncertainGraph& g, NodeId s) {
  std::vector<bool> seen(g.num_nodes(), false);
  std::vector<NodeId> stack = {s};
  seen[s] = true;
  while (!stack.empty()) {
    const NodeId u = stack.back();
    stack.pop_back();
    for (const relmax::Arc& a : g.OutArcs(u)) {
      if (a.prob > 0.0 && !seen[a.to]) {
        seen[a.to] = true;
        stack.push_back(a.to);
      }
    }
  }
  return seen;
}

bool WithinHops(const relmax::UncertainGraph& g, NodeId u, NodeId v,
                int max_hops) {
  if (u == v) return true;
  std::vector<int> depth(g.num_nodes(), -1);
  std::deque<NodeId> frontier = {u};
  depth[u] = 0;
  while (!frontier.empty()) {
    const NodeId x = frontier.front();
    frontier.pop_front();
    if (depth[x] == max_hops) continue;
    auto visit = [&](NodeId y) {
      if (depth[y] >= 0) return false;
      depth[y] = depth[x] + 1;
      frontier.push_back(y);
      return y == v;
    };
    for (const relmax::Arc& a : g.OutArcs(x)) {
      if (visit(a.to)) return true;
    }
    if (g.directed()) {
      for (const relmax::Arc& a : g.InArcs(x)) {
        if (visit(a.to)) return true;
      }
    }
  }
  return false;
}

bool AgreeWithin(double a, int z_a, double b, int z_b, double k) {
  const double p = 0.5 * (a + b);
  const double v = std::max(p * (1.0 - p), 5.0 / std::min(z_a, z_b));
  return std::fabs(a - b) <= k * std::sqrt(v * (1.0 / z_a + 1.0 / z_b));
}

}  // namespace perfbench
