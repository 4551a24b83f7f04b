#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Configures and builds perfbench/ (the fth library from this checkout plus
the benchmark driver) into .bench_build/perfbench, then runs the driver.
Build output goes to stderr; the driver's stdout is passed through, so the
last line of stdout is the result JSON. Exits non-zero, without a result,
when the checkout has no library sources, the build fails, or the driver
refuses to measure. `--workload all` runs every workload of BENCHMARK.json
in turn (for reading, not for the result line); `--selftest` runs the
benchmark's output-check self-test instead of a workload.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "perfbench")


def build():
    if not (os.path.isfile("CMakeLists.txt") and os.path.isdir("src")):
        sys.exit("perfbench: run from the root of a checkout (no CMakeLists.txt or src/ here)")
    generator = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")) and shutil.which("ninja"):
        generator = ["-G", "Ninja"]
    subprocess.run(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                    "-DCMAKE_BUILD_TYPE=Release", *generator],
                   stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", str(os.cpu_count() or 1)],
                   stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed")
    parser.add_argument("--seconds")
    parser.add_argument("--trace", choices=["0", "1"])
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        sys.exit(f"perfbench: build failed: {err}")
    sys.stdout.flush()
    if args.selftest:
        return subprocess.run([os.path.join(BUILD_DIR, "fth_perfbench_selftest")]).returncode
    workloads = [args.workload]
    if args.workload == "all":
        with open("BENCHMARK.json") as f:
            workloads = [w["name"] for w in json.load(f)["workloads"]]
    status = 0
    for workload in workloads:
        cmd = [os.path.join(BUILD_DIR, "fth_perfbench"), "--workload", workload,
               "--seed", args.seed, "--seconds", args.seconds, "--trace", args.trace]
        status = status or subprocess.run(cmd).returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
