#!/usr/bin/env python3
"""Self-test of the repository benchmark.  Run from the repository root:

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json, plus the workloads kept out of
the regression set (EXTRA), in smoke mode (a 2-second window, one
set-up) with --trace 0 and --trace 1, and checks that

  * the last stdout line is one JSON object with exactly the keys
    correct / attempted / failed / metrics, correct is true and nothing
    failed;
  * every end-to-end metric (--trace 0) or per-layer metric (--trace 1)
    named in BENCHMARK.json is emitted, with a finite value and the unit
    BENCHMARK.json gives it, and nothing else is;
  * the human-readable report prints failed_frac = 0;

then checks that the benchmark refuses to run, without a JSON line, in a
directory holding only BENCHMARK.json and the benchmark's own files.
Exits non-zero on the first failure.
"""

import json
import math
import os
import shutil
import subprocess
import sys

SMOKE = ["--seed", "1", "--seconds", "2", "--smoke"]

# Runnable by hand but not in BENCHMARK.json (see README.md, "Workloads").
EXTRA = ["mm16_burst"]


def fail(msg):
    print("selftest: FAIL: " + msg)
    sys.exit(1)


def run(bench, args, cwd):
    return subprocess.run(bench["command"] + args, cwd=cwd, capture_output=True,
                          text=True, timeout=600)


def check_run(bench, workload, trace):
    proc = run(bench, ["--workload", workload, "--trace", str(trace)] + SMOKE, ".")
    where = "%s --trace %d" % (workload, trace)
    if proc.returncode != 0:
        fail("%s exited %d: %s" % (where, proc.returncode, proc.stderr[-2000:]))
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("%s: result keys %s" % (where, sorted(result)))
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        fail("%s: correct=%s attempted=%s failed=%s" % (
            where, result["correct"], result["attempted"], result["failed"]))
    declared = bench["per_layer"] if trace else bench["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(result["metrics"]) != set(units):
        fail("%s: metrics %s, declared %s" % (where, sorted(result["metrics"]), sorted(units)))
    for name, m in result["metrics"].items():
        if set(m) != {"value", "unit"} or m["unit"] != units[name]:
            fail("%s: metric %s is %s, declared unit %s" % (where, name, m, units[name]))
        if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            fail("%s: metric %s has value %r" % (where, name, m["value"]))
    failed_frac = [l.split() for l in lines if l.split()[:1] == ["failed_frac"]]
    if not failed_frac or float(failed_frac[0][1]) != 0.0:
        fail("%s: failed_frac not reported as 0" % where)
    print("selftest: ok  %-16s --trace %d  (%d metrics, %d ops)" % (
        workload, trace, len(result["metrics"]), result["attempted"]))


def check_bare(bench):
    """Only BENCHMARK.json and the benchmark's paths: must fail cleanly."""
    bare = os.path.join(".perfbench_tmp", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy("BENCHMARK.json", bare)
        for p in bench["paths"]:
            shutil.copytree(p, os.path.join(bare, p))
        proc = run(bench, ["--workload", bench["workloads"][0]["name"],
                           "--trace", "0"] + SMOKE, bare)
        if proc.returncode == 0 or proc.stdout.strip().startswith("{"):
            fail("benchmark ran in a directory without the program")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            os.rmdir(".perfbench_tmp")
        except OSError:
            pass
    print("selftest: ok  refuses to run without the program")


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    for w in [w["name"] for w in bench["workloads"]] + EXTRA:
        for trace in (0, 1):
            check_run(bench, w, trace)
    check_bare(bench)
    print("selftest: all checks passed")


if __name__ == "__main__":
    main()
