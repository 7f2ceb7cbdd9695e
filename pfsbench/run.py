#!/usr/bin/env python3
"""Builds pfsbench from source and runs one workload of it.

    python3 pfsbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. It builds the framework and the benchmark
with CMake into $CARGO_TARGET_DIR (default .bench_build), which also holds the
run's disk images and, for --trace 1, the Chrome trace. It relays the
benchmark's report and ends its standard output with one JSON object:
{"correct", "attempted", "failed", "metrics"}, where "metrics" holds exactly
the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1) that
BENCHMARK.json lists. It exits non-zero, without that line, when the build or
the benchmark itself fails, and with 1 when a correctness check failed.
"""
import argparse
import glob
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
WORKLOADS = ("hot-read", "sharded-front", "cold-mix", "sprite-replay")
# A run is one benchmark process; it must end well inside the 180 s limit.
RUN_TIMEOUT_S = 170


def fail(message):
    print("pfsbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    cmake_dir = os.path.join(build_dir, "cmake")
    try:
        if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", cmake_dir,
                            "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                           stdout=sys.stderr, check=True)
        subprocess.run(["cmake", "--build", cmake_dir, "-j", "4"],
                       stdout=sys.stderr, check=True)
    except (OSError, subprocess.CalledProcessError) as err:
        fail("build failed: %s" % err)
    return os.path.join(cmake_dir, "pfsbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")
    try:
        with open(SPEC) as f:
            spec = json.load(f)
    except (OSError, ValueError) as err:
        fail("cannot read %s: %s" % (SPEC, err))
    listed = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_dir)
    # Images a killed run left behind.
    for stale in glob.glob(os.path.join(build_dir, "pfsbench-*.img*")):
        os.remove(stale)

    result_path = os.path.join(build_dir, "result-%d.json" % os.getpid())
    if os.path.exists(result_path):
        os.remove(result_path)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--json", result_path,
               "--work-dir", build_dir]
    if args.trace:
        command.append("--traced")
    env = dict(os.environ)
    env.pop("PFS_AFFINITY_CHECK", None)  # keep every run on the same code path
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, env=env,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail("the benchmark ran past %d s" % RUN_TIMEOUT_S)
    sys.stdout.write(proc.stdout.decode(errors="replace"))
    try:
        with open(result_path) as f:
            result = json.load(f)
        os.remove(result_path)
    except (OSError, ValueError):
        fail("the benchmark exited with %d and wrote no result" % proc.returncode)

    # A failed run may stop before every metric exists; a correct one may not.
    missing = [name for name in listed if name not in result["metrics"]]
    if missing and result["correct"]:
        fail("the benchmark did not report %s" % ", ".join(missing))
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: result["metrics"][name] for name in listed if name not in missing},
    }))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
