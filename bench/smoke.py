"""Smoke test of the benchmark itself.

    python3 bench/smoke.py

Runs every workload for one second, untraced and traced, and checks that
each run completes, reports every metric BENCHMARK.json names with its unit,
finds its outputs correct, and fails only the sweep's literal-power points:
exactly one operation in each sweep round of twenty, none elsewhere. Then
checks that the command fails in a directory holding only BENCHMARK.json
and bench/, where there is no package to measure. Exits 0 when all hold.
"""
from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys

from steady import HERE, ROOT, load_spec, run_once

import workloads

SUMMARY = re.compile(r"(\d+) failed \((\d+) expected literal-power failures, (\d+) unexpected\)")


def check_run(workload, trace, spec):
    result, stdout, stderr = run_once(workload, seed=1, seconds=1, trace=trace)
    problems = []
    kind = "per_layer" if trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in spec[kind]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        problems.append(f"metrics {sorted(set(got) ^ set(want))} differ from BENCHMARK.json")
    if not result["correct"]:
        problems.append("outputs failed their checks:\n" + stderr)
    failed, expected, unexpected = map(int, SUMMARY.search(stdout).groups())
    per_round = workloads.SWEEP_ROUND if workload == "sweep" else None
    want_failed = result["attempted"] // per_round if per_round else 0
    if unexpected or failed != expected or result["failed"] != want_failed:
        problems.append(f"{result['failed']} failed, {unexpected} unexpected; "
                        f"want {want_failed}, all of them literal-power points:\n" + stderr)
    return problems


def check_bare():
    bare = os.path.join(ROOT, ".bench_tmp", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        child = subprocess.run([sys.executable, "bench/run.py", "--workload", "sweep",
                                "--seed", "1", "--seconds", "1", "--trace", "0"],
                               capture_output=True, text=True, timeout=180, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if child.returncode == 0:
        return ["run.py exits 0 without a package to measure"]
    return []


def main():
    spec = load_spec()
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            found = check_run(workload, trace, spec)
            print(f"{workload} trace={trace}: {'ok' if not found else 'FAIL'}", flush=True)
            problems += [f"{workload} trace={trace}: {p}" for p in found]
    found = check_bare()
    print(f"bare directory: {'ok' if not found else 'FAIL'}")
    problems += found
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
