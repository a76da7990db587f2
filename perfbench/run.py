#!/usr/bin/env python3
"""Builds the relmax benchmark driver and runs one workload.

Run from the root of a relmax checkout:

    python3 perfbench/run.py --workload solve|batch|serve --seed N \
        --seconds S --trace 0|1

The driver (perfbench/src) is a CMake project of its own that compiles the
repository's library targets from source; it is built under the directory
named by CARGO_TARGET_DIR (default .bench_build). Build output goes to
stderr, so the last line of stdout is the driver's JSON result. The exit
code is the driver's: non-zero when an answer check fails.
"""
import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["solve", "batch", "serve"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        print("run.py: no relmax sources next to the benchmark "
              f"(looked in {ROOT})", file=sys.stderr)
        return 1

    build_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = build_root / "perfbench"
    if not (build_dir / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(build_dir), "--target", "relbench",
                    "-j", "3"], stdout=sys.stderr, check=True)

    driver = subprocess.run([
        str(build_dir / "relbench"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--data-dir", str(build_root / "perfbench-data")])
    return driver.returncode


if __name__ == "__main__":
    try:
        sys.exit(main())
    except subprocess.CalledProcessError as error:
        print(f"run.py: build failed: {error}", file=sys.stderr)
        sys.exit(1)
