#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the repository root. The first call configures and builds the
`pp` library and the benchmark under .bench_build/ (Release); later calls
rebuild incrementally. Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result. Durable state and span dumps go to
.bench_build/work/. Exits non-zero, without a result, when the library
sources are missing or the build fails.

--self-test builds, runs the benchmark's own unit checks, then runs every
workload in its tiny mode, untraced and traced, and checks each result.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_build", "work")
WORKLOADS = ("serve_f32_hot", "ingest_int8_1m", "learn_durable")
RUN_TIMEOUT_S = 175


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        sys.exit("run.py: no library sources next to perfbench/; nothing to build")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(
        ["cmake", "--build", BUILD, "--target", "perfbench", "perfbench_selftest",
         "-j", jobs]
    )
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("run.py: build failed: " + " ".join(cmd))


def run_workload(args, capture=False):
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir", WORK]
    if args.tiny:
        cmd.append("--tiny")
    out = subprocess.PIPE if capture else None
    try:
        return subprocess.run(cmd, stdout=out, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("run.py: %s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S))


def declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ({m["name"] for m in spec["end_to_end"]},
            {m["name"] for m in spec["per_layer"]})


def self_test():
    if subprocess.run([os.path.join(BUILD, "perfbench_selftest")]).returncode != 0:
        return 1
    end_to_end, per_layer = declared_metrics()
    failures = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            args = argparse.Namespace(workload=workload, seed=7, seconds=1,
                                      trace=trace, tiny=True)
            proc = run_workload(args, capture=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            want = per_layer if trace else end_to_end
            ok = (proc.returncode == 0 and result.get("correct") is True
                  and set(result.get("metrics", {})) == want)
            print("%-16s trace=%d %s" % (workload, trace, "ok" if ok else "FAILED"))
            if not ok:
                print(proc.stdout)
                failures += 1
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--tiny", action="store_true",
                        help="scaled-down inputs (seconds per workload)")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and None in (args.workload, args.seed, args.seconds,
                                       args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    build()
    if args.self_test:
        return self_test()
    return run_workload(args).returncode


if __name__ == "__main__":
    sys.exit(main())
