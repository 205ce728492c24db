"""Steadiness of the benchmark: run each workload several times, one seed
per run, and compare each end-to-end metric's spread with its bound.

    python3 bench/steady.py --runs 10                 # every workload
    python3 bench/steady.py --runs 5 --workloads cli --seconds 10

The spread is the distance between the first and third quartile of the runs
(``statistics.quantiles(values, n=4)``) as a share of their median. A metric
is steady when its spread is below a third of its bound, and marginal when it
is below the bound; ``setup_s`` is exempt. A workload with a metric at or
past its bound, a wrong output or a failed share that differs between runs
cannot be kept steady and is listed as one to drop. With ``--runs 1`` this
is also the command that runs every workload once and prints all its
metrics.

Runs go one after another, never in parallel: the machine has two cores.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def run_once(workload, seed, seconds, trace=0):
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    child = subprocess.run(argv, capture_output=True, text=True, timeout=900, cwd=ROOT)
    if child.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {child.returncode}:\n{child.stderr}")
    return json.loads(child.stdout.strip().splitlines()[-1]), child.stdout, child.stderr


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--workloads", default=",".join(names))
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    unsteady = []
    for workload in args.workloads.split(","):
        results = []
        for k in range(args.runs):
            seed = args.first_seed + k
            result, stdout, _ = run_once(workload, seed, args.seconds)
            results.append(result)
            shown = "  ".join(f"{name}={m['value']:.4g} {m['unit']}"
                              for name, m in result["metrics"].items())
            print(f"{workload} seed={seed} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}  {shown}",
                  flush=True)
            # the unscaled throughput and the machine's speed, for the record
            print("  " + next(line for line in stdout.splitlines()
                              if line.startswith("bench: measured")), flush=True)
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"{workload}: failed share {sorted(shares)}"
              + ("" if len(shares) == 1 else "  <- differs between runs"))
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            s = spread(values)
            if name == "setup_s" or s < bound / 3.0:
                verdict = "ok"
            elif s < bound:
                verdict = "marginal"
            else:
                verdict = "UNSTEADY"
                unsteady.append(workload)
            print(f"  {name:14s} median {statistics.median(values):10.4g} {units[name]:5s} "
                  f"spread {s:6.3f}  bound {bound:.3f}  {verdict}")
        if not all(r["correct"] for r in results) or len(shares) != 1:
            unsteady.append(workload)
        unsteady = list(dict.fromkeys(unsteady))
    print("drop:", ", ".join(unsteady) if unsteady else "none")
    return 1 if unsteady else 0


if __name__ == "__main__":
    sys.exit(main())
