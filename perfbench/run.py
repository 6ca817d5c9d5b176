#!/usr/bin/env python3
"""Builds and runs the papyrusd benchmark.

    python3 perfbench/run.py [--workload deep_history|warm_rerun] \
        [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --self-test

Builds libpapyrus and the benchmark program in Release under
.bench_build/perfbench (configured once, then incremental), runs the
checks' negative self-tests, then one benchmark process per workload:
the one named, or every workload of BENCHMARK.json. --seconds defaults
to BENCHMARK.json's run_seconds. With --workload the last stdout line is
the program's JSON result; without it, one line per workload and then a
JSON object of the results by workload. Exits non-zero, without a
result, if the build, a self-test or a run fails.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
# Seconds of idle before each benchmark process. On the development
# host's ext4 (mounted with discard), creating files costs several times
# more for some seconds after a burst of writes and deletes, such as the
# previous run's; the pause lets the cold set-up start on a settled disk.
SETTLE_SECONDS = 10


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j4", "--target",
                    "papyrus_perfbench", "perfbench_selftest"],
                   stdout=sys.stderr, check=True)


def run(workload, args, env):
    """One benchmark process; returns its output lines, or None."""
    time.sleep(SETTLE_SECONDS)
    # A relative root, so that no count depends on where the checkout is.
    result = subprocess.run(
        [os.path.join(BUILD, "papyrus_perfbench"),
         "--workload", workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--work", os.path.join(".bench_build", "work")],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    lines = result.stdout.strip().splitlines()
    if result.returncode != 0 or not lines:
        print(f"{workload}: benchmark exited {result.returncode}",
              file=sys.stderr)
        return None
    json.loads(lines[-1])
    return lines


def main():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
    except (OSError, ValueError) as error:
        print(f"BENCHMARK.json: {error}", file=sys.stderr)
        return 1
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"build failed: {error}", file=sys.stderr)
        return 1
    env = dict(os.environ)
    env.pop("PAPYRUS_TEST_WORKERS", None)
    selftest = subprocess.run([os.path.join(BUILD, "perfbench_selftest")],
                              env=env)
    if selftest.returncode != 0 or args.self_test:
        return selftest.returncode

    if args.workload is not None:
        lines = run(args.workload, args, env)
        if lines is None:
            return 1
        print("\n".join(lines))
        return 0
    results = {}
    for workload in (w["name"] for w in bench["workloads"]):
        lines = run(workload, args, env)
        if lines is None:
            return 1
        print(f"{workload}: {lines[-1]}", flush=True)
        results[workload] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
