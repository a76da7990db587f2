#!/usr/bin/env python3
"""Schema check for the bench JSON artifacts.

Validates three shapes, auto-detected from the top-level keys:

  repo    -- the checked-in BENCH_*.json perf-trajectory files:
             {description, entries: [entry, ...]}
  entry   -- a single run entry, as written by `bench_index_io --json`:
             {label, command, environment, benchmarks}
  gbench  -- google-benchmark --benchmark_out output:
             {context: {...}, benchmarks: [{name, ...}, ...]}

Every `environment` block must have the canonical bench::EnvironmentJson
shape ({cpus_available, compiler, benchmark_library, note}) so the schema
cannot drift between files again. Every benchmark row of an entry must
record `repeats` >= 3 and, for each timed field (a key ending in `_seconds`
or `_ms`), its quartiles `<key>_q1` <= `<key>` <= `<key>_q3`: a single
sample cannot say whether a later run reproduces it. Used by the
bench-smoke CI job and runnable locally:

  python3 tools/check_bench_json.py BENCH_*.json /tmp/index_io.json
"""
import json
import sys

ENVIRONMENT_KEYS = {
    "cpus_available": int,
    "compiler": str,
    "benchmark_library": str,
    "note": str,
}

# Per-label benchmark keys that must be present (and numeric) in every
# benchmark row of an entry with that label, so a bench harness cannot
# silently drop the columns the trajectory analysis reads.
LABEL_REQUIRED_KEYS = {
    "index_io": ("build_seconds", "save_seconds", "load_seconds",
                 "speedup_load_vs_build", "file_bytes", "bit_identical"),
    "sampling_kernels": ("cpu_time_ms", "worlds_per_second"),
}

MIN_REPEATS = 3
TIMED_SUFFIXES = ("_seconds", "_ms")

# Every google-benchmark name the micro-kernel suite may emit (the part
# before the first '/'). A rename or typo in bench_micro_kernels.cc would
# otherwise sail through CI and silently orphan the checked-in trajectory
# rows that track it.
KNOWN_MICRO_BENCHMARKS = frozenset({
    "BM_MonteCarloReliability",
    "BM_MonteCarloReliabilityParallel",
    "BM_RssReliability",
    "BM_RssReliabilityParallel",
    "BM_ReliabilityFromSourceToAll",
    "BM_MostReliablePath",
    "BM_YenTopL",
    "BM_SearchSpaceElimination",
    "BM_ReachabilityFixpoint",
    "BM_WorldBankFill",
    "BM_WorldEnsembleBuild",
})


class SchemaError(Exception):
    pass


def require(condition, message):
    if not condition:
        raise SchemaError(message)


def is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def check_environment(env, where):
    require(isinstance(env, dict), f"{where}: environment must be an object")
    require(
        set(env) == set(ENVIRONMENT_KEYS),
        f"{where}: environment keys {sorted(env)} != canonical "
        f"{sorted(ENVIRONMENT_KEYS)}",
    )
    for key, expected_type in ENVIRONMENT_KEYS.items():
        require(
            isinstance(env[key], expected_type),
            f"{where}: environment.{key} must be {expected_type.__name__}",
        )


def check_spread(bench, where):
    repeats = bench.get("repeats")
    require(is_number(repeats) and repeats >= MIN_REPEATS,
            f"{where}: needs 'repeats' >= {MIN_REPEATS}")
    timed = [key for key in bench if key.endswith(TIMED_SUFFIXES)]
    require(timed, f"{where}: has no timed field")
    for key in timed:
        q1 = bench.get(key + "_q1")
        q3 = bench.get(key + "_q3")
        require(is_number(bench[key]) and is_number(q1) and is_number(q3),
                f"{where}: timed field '{key}' needs numeric '{key}_q1' and "
                f"'{key}_q3'")
        require(q1 <= bench[key] <= q3,
                f"{where}: '{key}' {bench[key]} is outside its quartiles "
                f"[{q1}, {q3}]")


def check_benchmarks(benchmarks, where, label=None):
    require(isinstance(benchmarks, list) and benchmarks,
            f"{where}: benchmarks must be a non-empty array")
    required = LABEL_REQUIRED_KEYS.get(label, ())
    for i, bench in enumerate(benchmarks):
        require(isinstance(bench, dict), f"{where}: benchmarks[{i}] not an object")
        require(isinstance(bench.get("name"), str) and bench["name"],
                f"{where}: benchmarks[{i}] needs a non-empty string name")
        if bench["name"].startswith("BM_"):
            base = bench["name"].split("/", 1)[0]
            require(
                base in KNOWN_MICRO_BENCHMARKS,
                f"{where}: benchmarks[{i}] name '{base}' is not a known "
                f"micro-kernel benchmark (update KNOWN_MICRO_BENCHMARKS "
                f"when adding one)",
            )
        for key, value in bench.items():
            require(
                isinstance(value, (str, int, float, bool)),
                f"{where}: benchmarks[{i}].{key} must be a scalar",
            )
        for key in required:
            require(
                key in bench,
                f"{where}: benchmarks[{i}] (label '{label}') missing '{key}'",
            )


def check_entry(entry, where):
    require(isinstance(entry, dict), f"{where}: entry must be an object")
    for key in ("label", "command"):
        require(isinstance(entry.get(key), str) and entry[key],
                f"{where}: needs a non-empty string '{key}'")
    check_environment(entry.get("environment"), where)
    check_benchmarks(entry.get("benchmarks"), where, entry["label"])
    for i, bench in enumerate(entry["benchmarks"]):
        check_spread(bench, f"{where}: benchmarks[{i}]")


def check_file(path):
    with open(path, "rb") as f:
        data = json.load(f)
    require(isinstance(data, dict), "top level must be an object")
    if "context" in data:  # google-benchmark output
        require(isinstance(data["context"], dict), "context must be an object")
        check_benchmarks(data.get("benchmarks"), "gbench")
        return "gbench"
    if "entries" in data:  # checked-in BENCH_*.json trajectory
        require(isinstance(data.get("description"), str) and data["description"],
                "repo file needs a non-empty description")
        require(isinstance(data["entries"], list) and data["entries"],
                "entries must be a non-empty array")
        for i, entry in enumerate(data["entries"]):
            check_entry(entry, f"entries[{i}]")
        return "repo"
    check_entry(data, "entry")  # bare single-run entry
    return "entry"


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    failed = False
    for path in argv[1:]:
        try:
            kind = check_file(path)
            print(f"{path}: OK ({kind} schema)")
        except (SchemaError, json.JSONDecodeError, OSError) as error:
            print(f"{path}: FAIL: {error}", file=sys.stderr)
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
