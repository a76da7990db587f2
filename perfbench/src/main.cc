// relbench: runs one workload of the relmax benchmark and prints its result
// as the last line of stdout.
//
//   relbench --workload solve|batch|serve --seed N --seconds S --trace 0|1
//            --data-dir DIR
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1 it
// holds the per-layer metrics (the end-to-end numbers of the traced run are
// printed as info lines). The exit code is non-zero when any answer check
// fails.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/logging.h"
#include "workloads.h"

namespace {

// Every per-layer metric, in output order, with its unit.
constexpr struct {
  const char* name;
  const char* unit;
} kLayerMetrics[] = {
    {"graph.read_s", "s"},
    {"sampling.bank_fill_s", "s"},
    {"sampling.flood_ms", "ms"},
    {"sampling.flood_blocks", "count"},
    {"sampling.estimate_ms", "ms"},
    {"query.answer_ms", "ms"},
    {"query.floods_per_query", "ratio"},
    {"query.cache_hit_ratio", "ratio"},
    {"index.build_s", "s"},
    {"index.query_us", "us"},
    {"index.update_ms", "ms"},
    {"index.update_worlds", "count"},
    {"serve.submit_us", "us"},
    {"serve.window_size_mean", "count"},
    {"serve.publish_ms", "ms"},
    {"serve.generator_lag_ms", "ms"},
    {"core.candidates_ms", "ms"},
    {"core.candidate_edges", "count"},
    {"paths.top_l_ms", "ms"},
    {"core.selection_ms", "ms"},
    {"core.paths_considered", "count"},
    {"core.gain_mean", "prob"},
    {"trace.overhead_pct", "%"},
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "relbench: %s\nusage: relbench --workload solve|batch|serve "
               "--seed N --seconds S --trace 0|1 --data-dir DIR\n",
               why);
  std::exit(2);
}

perfbench::Args Parse(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') Usage("--seed takes an unsigned integer");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args.seconds > 0.0)) {
        Usage("--seconds takes a positive number");
      }
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        Usage("--trace takes 0 or 1");
      }
      args.trace = value[0] == '1';
    } else if (flag == "--data-dir") {
      args.data_dir = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.data_dir.empty()) Usage("--data-dir is required");
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Args args = Parse(argc, argv);
  perfbench::Tracer tracer(args.trace);
  perfbench::Report report;
  perfbench::LayerMap layers;
  if (args.workload == "solve") {
    perfbench::RunSolve(args, &tracer, &report, &layers);
  } else if (args.workload == "batch") {
    perfbench::RunBatch(args, &tracer, &report, &layers);
  } else if (args.workload == "serve") {
    perfbench::RunServe(args, &tracer, &report, &layers);
  } else {
    Usage("unknown workload");
  }
  if (args.trace) {
    report.MetricsToInfo();
    for (const auto& metric : kLayerMetrics) {
      const auto it = layers.find(metric.name);
      RELMAX_CHECK(it != layers.end() && it->second.second == metric.unit);
      report.Metric(metric.name, it->second.first, metric.unit);
    }
    tracer.Write(args.data_dir + "/spans-" + args.workload + "-" +
                 std::to_string(args.seed) + ".jsonl");
  }
  report.Print();
  return report.correct() ? 0 : 1;
}
