"""Benchmark of the emden package: one workload, one run.

    python3 bench/run.py --workload sweep --seed 1 --seconds 35 --trace 0

Run from the root of a checkout. The package is imported from ``src/`` of
that checkout; without it the command fails. The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``. End-to-end operation times are scaled
to a reference speed of the machine (bench/speed.py). See bench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 5


def _import_package():
    if not os.path.isfile(os.path.join(SRC, "emden", "__init__.py")):
        raise SystemExit(f"bench: no package at {SRC}/emden; run from a checkout root")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import emden
    import emden.cli  # noqa: F401  (the CLI is driven in process)
    return emden


def _scratch(kind):
    path = os.path.join(ROOT, ".bench_tmp", f"{kind}-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    return path


def probe(emden, workload, seed):
    """Child side of setup_s: run the first operation after the import and
    print the monotonic clock, less the time spent preparing the inputs.
    The parent started the clock before exec."""
    import workloads

    tmp = _scratch("probe")
    try:
        # the benchmark's own preparation of the inputs is not set-up time
        prepared = time.monotonic()
        wl = workloads.make(workload, emden, seed, tmp)
        op = next(wl.rounds())[0]
        start = time.monotonic()
        wl.run(op)
        done = time.monotonic() - (start - prepared)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(repr(done))


def setup_seconds(workload, seed):
    """Median over fresh interpreters of the time from exec to the end of
    the first operation. Not scaled to the reference speed: set-up time does
    not follow the speed gauge's block (see bench/README.md)."""
    times = []
    for k in range(SETUP_REPEATS):
        argv = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                "--seed", str(seed + k), "--probe-setup"]
        start = time.monotonic()
        child = subprocess.run(argv, capture_output=True, text=True, timeout=120, cwd=ROOT)
        if child.returncode != 0:
            raise SystemExit(f"bench: setup probe failed:\n{child.stderr}")
        times.append(float(child.stdout.strip().splitlines()[-1]) - start)
    return statistics.median(times)


class Tally:
    """Wall and CPU time of each operation of one kind (traced or not), and
    the stretch of the speed gauge it ran in."""

    def __init__(self):
        self.wall = []
        self.cpu = []
        self.stretch = []

    def add(self, wall, cpu, stretch=0):
        self.wall.append(wall)
        self.cpu.append(cpu)
        self.stretch.append(stretch)

    def ops_per_s(self):
        return len(self.wall) / sum(self.wall)

    def scaled(self, factors):
        """Wall and CPU times scaled to the reference speed."""
        f = [factors[k] for k in self.stretch]
        return ([w * x for w, x in zip(self.wall, f)],
                [c * x for c, x in zip(self.cpu, f)])


def _quantile(values, q):
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def measure(emden, workload, seed, seconds, trace):
    import workloads
    from checks import CheckFailed
    from speed import Gauge
    from tracing import Tracer, layer_metrics

    tmp = _scratch(workload)
    wl = workloads.make(workload, emden, seed, tmp)
    tracer = Tracer(emden) if trace else None
    plain, traced = Tally(), Tally()
    attempted = failed = 0
    unexpected, wrong = [], []
    output_bytes = 0
    rounds = wl.rounds()
    gauge = None if trace else Gauge()
    try:
        r = 0
        while sum(plain.wall) + sum(traced.wall) < seconds or (trace and not traced.wall):
            tracing = trace and r % 2 == 1  # traced and untraced rounds alternate
            r += 1
            for op in next(rounds):
                if tracing:
                    tracer.install()
                error = None
                c0 = time.process_time()
                t0 = time.perf_counter()
                try:
                    result = wl.run(op)
                except Exception as exc:  # a failed operation, counted below
                    error = exc
                t1 = time.perf_counter()
                c1 = time.process_time()
                if tracing:
                    tracer.uninstall()
                    tracer.fold()
                    output_bytes += wl.output_bytes(op, result) if error is None else 0
                if tracing:
                    traced.add(t1 - t0, c1 - c0)
                else:
                    plain.add(t1 - t0, c1 - c0, gauge.after(t1 - t0) if gauge else 0)
                attempted += 1
                if error is not None or wl.failed(op, result):
                    failed += 1
                    if not op.expected_failure:
                        unexpected.append(f"{op.kind}{op.args}: {error or 'failed'}")
                    continue
                try:
                    wl.check(op, result)
                except CheckFailed as exc:
                    wrong.append(f"{op.kind}{op.args} [{op.fmt}]: {exc}")
        if gauge:
            gauge.close()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    for line in (unexpected + wrong)[:20]:
        print("bench:", line, file=sys.stderr)
    print(f"bench: {workload} seed={seed}: {attempted} operations, {failed} failed "
          f"({failed - len(unexpected)} expected literal-power failures, "
          f"{len(unexpected)} unexpected), {len(wrong)} check failures")

    if trace:
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.write(os.path.join(out_dir, f"spans-{workload}-seed{seed}.jsonl"))
        extra = {"output_bytes": output_bytes,
                 "overhead": traced.ops_per_s() / plain.ops_per_s()}
        layers = layer_metrics(tracer.totals, len(traced.wall), extra)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    else:
        walls, cpus = plain.scaled(gauge.factors())
        print(f"bench: measured {plain.ops_per_s():.4g} op/s, at the reference speed "
              f"{len(walls) / sum(walls):.4g} op/s (machine at {sum(walls) / sum(plain.wall):.3f} "
              f"of it, {len(gauge.blocks)} speed blocks)")
        metrics = {
            "ops_per_s": {"value": len(walls) / sum(walls), "unit": "op/s"},
            "op_p50_ms": {"value": _quantile(walls, 0.5) * 1e3, "unit": "ms"},
            "op_p90_ms": {"value": _quantile(walls, 0.9) * 1e3, "unit": "ms"},
            "cpu_ms_per_op": {"value": sum(cpus) / len(walls) * 1e3, "unit": "ms"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
        }
    # an operation that fails outside the kept literal-power points is as
    # wrong as one whose output fails its checks
    return {"correct": not (wrong or unexpected), "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    emden = _import_package()
    if args.probe_setup:
        probe(emden, args.workload, args.seed)
        return 0
    setup = None if args.trace else setup_seconds(args.workload, args.seed)
    result = measure(emden, args.workload, args.seed, args.seconds, bool(args.trace))
    if setup is not None:
        result["metrics"]["setup_s"] = {"value": setup, "unit": "s"}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
