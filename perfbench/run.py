#!/usr/bin/env python3
"""Builds and runs the tuning-pipeline benchmark (pipeline_bench.cpp).

Usage, from the root of a checkout:

  python3 perfbench/run.py --workload NAME --seed S --seconds T --trace 0|1
  python3 perfbench/run.py --workload NAME --seed S --seconds T --repeat N

The first form runs one measurement and passes the binary's output through;
its last stdout line is the JSON result. The second runs the workload N
times with seeds S..S+N-1 and prints, for every metric, the median, the
quartiles, the spread (q3 - q1) / median and the max/min ratio: the
evidence for the bounds in BENCHMARK.json.

The binary is built from this checkout's sources with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench). Temporary
state (queues, journals, cache dirs, native workdirs) lives under that
build directory's tmp/ and is removed by the benchmark on exit.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["dgemm_fig7", "polybench_discover", "dgemm_serve"]
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def build(bdir, env):
    """Configures on first use, then builds; compiler output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                      bdir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", bdir, "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            sys.stderr.write("error: %s failed\n" % " ".join(cmd))
            return False
    return True


def run_once(binary, env, args, seed, trace, trace_file):
    cmd = [binary, "--workload", args.workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", str(trace)]
    if trace_file:
        cmd += ["--trace-file", trace_file]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("error: benchmark run exceeded %d s\n" %
                         RUN_TIMEOUT_S)
        return None, None
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout)
        sys.stderr.write("error: benchmark exited with %d\n" % done.returncode)
        return None, None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(done.stdout)
        sys.stderr.write("error: last output line is not a JSON result\n")
        return None, None
    return done.stdout, result


def report_steadiness(results):
    """Per-metric median, quartiles, spread and max/min over the runs."""
    names = list(results[0]["metrics"])
    print("%-30s %14s %14s %14s %8s %8s" %
          ("metric", "median", "q1", "q3", "spread", "max/min"))
    summary = {}
    for name in names:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        lo, hi = min(values), max(values)
        spread = (q3 - q1) / med if med else 0.0
        ratio = hi / lo if lo > 0 else float("inf")
        unit = results[0]["metrics"][name]["unit"]
        print("%-30s %14.6g %14.6g %14.6g %8.4f %8.4f %s" %
              (name, med, q1, q3, spread, ratio, unit))
        summary[name] = {"median": med, "q1": q1, "q3": q3,
                         "spread": spread, "max_over_min": ratio,
                         "unit": unit}
    correct = all(r["correct"] for r in results)
    print("runs %d, all correct: %s" % (len(results), correct))
    print(json.dumps({"runs": len(results), "correct": correct,
                      "metrics": summary}))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--repeat", type=int, default=0,
                    help="steadiness mode: N runs with consecutive seeds")
    args = ap.parse_args()
    if args.repeat == 1:
        ap.error("--repeat needs at least 2 runs for quartiles")

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("error: no Locus sources (src/CMakeLists.txt) next "
                         "to perfbench/; run from a full checkout\n")
        return 2

    bdir = build_dir()
    tmp = os.path.join(bdir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not build(bdir, env):
        return 1
    binary = os.path.join(bdir, "pipeline_bench")

    if args.repeat > 0:
        results = []
        for i in range(args.repeat):
            out, result = run_once(binary, env, args, args.seed + i,
                                   args.trace, None)
            if result is None:
                return 1
            if i == 0:
                print(out.splitlines()[0])  # the host stamp
            results.append(result)
        report_steadiness(results)
        return 0

    trace_file = None
    if args.trace:
        traces = os.path.join(bdir, "traces")
        os.makedirs(traces, exist_ok=True)
        trace_file = os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))
    out, result = run_once(binary, env, args, args.seed, args.trace,
                           trace_file)
    if result is None:
        return 1
    sys.stdout.write(out)
    if trace_file:
        sys.stderr.write("chrome trace: %s\n" % trace_file)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
