#!/usr/bin/env python3
"""Gate perfbench's timing-free work counters exactly.

    python3 ci/perfbench_counters.py

Runs every perfbench workload once, tiny and traced at seed 1, and
requires a correct run with no failed operation and each counter below
equal to ci/perfbench_counters.json. None of them depends on timing, so
any difference is a change in the work done per decision: MACs, KV
traffic, wire and segment-log bytes, training rounds, or heap
allocations. On a mismatch it prints each differing counter, then every
observed counter in the file's own layout, and exits 1; an intended
change is accepted by copying that block over the file. Allocation
counts depend on the compiler and its C++ library: the file is from
GCC 12 with libstdc++.
"""
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXPECTED = os.path.join(ROOT, "ci", "perfbench_counters.json")
SERVING = ("serving.policy.macs_per_decision",
           "serving.kv.lookups_per_decision",
           "serving.kv.bytes_read_per_decision",
           "serving.kv.bytes_written_per_decision")
# Allocations are gated only where one thread serves: on ingest_int8_1m
# they move with thread timing.
COUNTERS = {
    "serve_f32_hot": SERVING + ("process.allocs_per_decision",),
    "ingest_int8_1m": SERVING + ("ingest.wire_bytes_per_event",),
    "learn_durable": SERVING + ("storage.appended_bytes_per_session",
                                "storage.recovered_records",
                                "storage.journal_replayed",
                                "online.round_train_sessions",
                                "online.publishes",
                                "process.allocs_per_decision"),
}


def observe(workload):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", "1", "--seconds", "1",
           "--trace", "1", "--tiny"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {}
    ok = (proc.returncode == 0 and result.get("correct") is True
          and result.get("failed") == 0)
    if not ok:
        print(proc.stdout)
        sys.exit("perfbench_counters: %s did not run correctly" % workload)
    values = {}
    for name in COUNTERS[workload]:
        value = result["metrics"][name]["value"]
        values[name] = int(value) if float(value).is_integer() else value
    return values


def main():
    with open(EXPECTED) as f:
        expected = json.load(f)
    observed = {workload: observe(workload) for workload in COUNTERS}
    for workload in sorted(set(expected) | set(observed)):
        want, got = expected.get(workload, {}), observed.get(workload, {})
        for name in sorted(set(want) | set(got)):
            if want.get(name) != got.get(name):
                print("MISMATCH %s %s: expected %s, observed %s"
                      % (workload, name, want.get(name, "absent"),
                         got.get(name, "absent")))
    if expected == observed:
        print("perfbench counters: all %d equal to ci/perfbench_counters.json"
              % sum(len(v) for v in observed.values()))
        return 0
    print("observed counters (copy over ci/perfbench_counters.json to accept):")
    print(json.dumps(observed, indent=2))
    return 1


if __name__ == "__main__":
    sys.exit(main())
