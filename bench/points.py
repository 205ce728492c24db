"""Seeded inputs of the workloads, and the command that vets them.

Each workload draws its operations from a fixed candidate list. The list is
made by a fixed generator, so it costs nothing to store; ``points.json`` keeps
only which candidates were left out and why (each list of indices stored as
the gaps between them), plus a digest of the list, so a generator that
drifts is caught instead of silently changing the inputs.
A run's ``--seed`` picks an order of the kept candidates.

Regenerate ``points.json`` (about fifteen minutes on two cores)::

    python3 bench/points.py

It solves every candidate and leaves out those on which the program cannot
give a checkable answer for reasons of the method (Newton does not converge,
or converges only on the round-off floor). It also lists the ``sweep``
points that fail only because ``pow_signed`` takes the literal power y**m for
even integer m: they fail under the program's rule and converge under the
odd extension sign(y)|y|^m. Those points are kept as expected failures.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import os
import sys
import warnings

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
POINTS_FILE = os.path.join(HERE, "points.json")

# Candidate list sizes: large enough that a run repeats no input even when
# the program is five times faster than today (at most about 600 sweep
# operations and 8 cli operations a second here).
SWEEP_CANDIDATES = 160000
SCAN_CANDIDATES = 2000
PROFILE_CANDIDATES = 3000
_POOL_SEED = {"sweep": 20100813, "scan": 20100814, "profile": 20100815}

# The literal-power grid: m in {2, 4}, alpha = 1, and these n and L.
FAULT_M = (2.0, 4.0)
FAULT_N = (6, 7, 9, 12, 16, 22, 30)
FAULT_L = tuple(float(v) for v in np.geomspace(0.05, 4.0, 12))

# Fixed profile setups with known references, one per round: published zeros
# (m = 2, 3, 4), closed forms (m = 0, 1, 5), and two m = 3 setups where the
# method reaches 1e-4 against an independent integration.
PROFILE_ANCHORS = (
    (3.0, 20, 0.5),
    (2.0, 12, 0.25),
    (0.0, 12, 0.3),
    (3.0, 24, 0.4),
    (4.0, 12, 0.5),
    (1.0, 12, 0.3),
    (5.0, 12, 0.5),
)
ACCURATE_ANCHORS = {(3.0, 20, 0.5), (3.0, 24, 0.4)}

SCAN_COUNT = 15


def sweep_candidates():
    """(m, n, alpha, L) rows: continuous m, alpha and L, so no two share (n, alpha)."""
    rng = np.random.default_rng(_POOL_SEED["sweep"])
    k = SWEEP_CANDIDATES
    m = rng.uniform(0.0, 5.0, k)
    n = rng.integers(6, 31, k)
    alpha = rng.uniform(0.0, 3.0, k)
    L = np.exp(rng.uniform(np.log(0.05), np.log(4.0), k))
    return [(float(a), int(b), float(c), float(d)) for a, b, c, d in zip(m, n, alpha, L)]


def fault_points():
    """(m, n, alpha, L) rows of the literal-power grid, in a fixed order."""
    return [(m, n, 1.0, L) for m in FAULT_M for n in FAULT_N for L in FAULT_L]


def scan_candidates():
    """(m, n, lo, hi) rows for ``scan-L --L-grid lo:hi:15``."""
    rng = np.random.default_rng(_POOL_SEED["scan"])
    k = SCAN_CANDIDATES
    m = rng.uniform(0.5, 5.5, k)
    n = rng.integers(6, 17, k)
    lo = rng.uniform(0.3, 0.7, k)
    hi = rng.uniform(3.0, 5.0, k)
    # CLI arguments travel as text; rounding here makes the text exact
    return [(round(float(a), 4), int(b), round(float(c), 4), round(float(d), 4))
            for a, b, c, d in zip(m, n, lo, hi)]


def profile_candidates():
    """(m, n, L) rows: m in [0.5, 4] or [5, 5.5], so a first zero is either
    inside the scanned range or absent. L >= 0.25 keeps the zero scan's
    ceiling at x = 50 (see the FOUND note on first_zero in CHANGES.md)."""
    rng = np.random.default_rng(_POOL_SEED["profile"])
    k = PROFILE_CANDIDATES
    u = rng.uniform(0.5, 4.5, k)
    m = np.where(u <= 4.0, u, u + 1.0)
    n = rng.integers(10, 25, k)
    L = np.exp(rng.uniform(np.log(0.25), np.log(2.0), k))
    return [(round(float(a), 4), int(b), round(float(c), 4)) for a, b, c in zip(m, n, L)]


CANDIDATES = {
    "sweep": sweep_candidates,
    "scan": scan_candidates,
    "profile": profile_candidates,
    "fault": fault_points,
}


def digest(rows) -> str:
    h = hashlib.sha256()
    for row in rows:  # row by row: the list's repr would double the peak memory
        h.update(repr(row).encode())
    return h.hexdigest()[:16]


def _pack(ids):
    """Sorted indices as the gaps between them, which store in fewer digits."""
    return [b - a for a, b in zip([-1] + ids, ids)]


def _unpack(gaps):
    return list(itertools.accumulate(gaps, initial=-1))[1:]


def load(names):
    """Kept rows of each named list, after checking it against its digest."""
    with open(POINTS_FILE) as handle:
        stored = json.load(handle)
    kept = {}
    for name in names:
        rows = CANDIDATES[name]()
        entry = stored[name]
        if digest(rows) != entry["digest"]:
            raise RuntimeError(
                f"{name} candidates differ from the vetted list; rerun bench/points.py")
        if name == "fault":
            kept[name] = [rows[i] for i in entry["kept"]]
        else:
            dropped = {i for gaps in entry["dropped"].values() for i in _unpack(gaps)}
            kept[name] = [row for i, row in enumerate(rows) if i not in dropped]
    return kept


# --- vetting ---------------------------------------------------------------

def _solve(emden, m, n, alpha, L, tol=1e-12, odd=False):
    """Converged flag of one Newton solve; None when the solve raised."""
    if odd:
        problem = emden.LaneEmdenProblem(
            m,
            _g=lambda y: np.sign(y) * np.abs(y) ** m,
            _g_prime=lambda y: m * np.abs(y) ** (m - 1.0),
        )
    else:
        problem = emden.LaneEmdenProblem(m)
    config = emden.SolverConfig(n=n, alpha=alpha, L=L, newton_tol=tol)
    try:
        return emden.newton_solve(problem, config).converged
    except emden.EmdenError:
        return None


def _robust(emden, m, n, alpha, L, odd=False):
    # a point that converges at 1e-12 but not at 1e-13 sits on its round-off
    # floor, where a different BLAS could flip it; such points are left out
    return bool(_solve(emden, m, n, alpha, L, odd=odd)) and bool(
        _solve(emden, m, n, alpha, L, 1e-13, odd=odd))


def _vet_sweep(emden):
    dropped = {"not_converged": [], "roundoff_floor": []}
    for i, (m, n, alpha, L) in enumerate(sweep_candidates()):
        if not _solve(emden, m, n, alpha, L):
            dropped["not_converged"].append(i)
        elif not _solve(emden, m, n, alpha, L, 1e-13):
            dropped["roundoff_floor"].append(i)
    return dropped


def _vet_fault(emden):
    doc = {"kept": [], "fail_both_rules": [], "near_tolerance": [], "converge_literal": []}
    for i, (m, n, alpha, L) in enumerate(fault_points()):
        if _solve(emden, m, n, alpha, L):
            doc["converge_literal"].append(i)
        elif _solve(emden, m, n, alpha, L, 1e-11):
            doc["near_tolerance"].append(i)  # fails by less than 10x: could flip
        elif _robust(emden, m, n, alpha, L, odd=True):
            doc["kept"].append(i)
        else:
            doc["fail_both_rules"].append(i)  # a limit of the basis, not the fault
    return doc


def _cli_status(emden, argv, out):
    return emden.cli.main(list(argv) + ["--out", out])


def _vet_scan(emden, out):
    dropped = {"no_converged_L": []}
    for i, (m, n, lo, hi) in enumerate(scan_candidates()):
        argv = ["scan-L", "--m", str(m), "--n", str(n), "--L-grid", f"{lo}:{hi}:{SCAN_COUNT}"]
        if _cli_status(emden, argv, out) != 0:
            dropped["no_converged_L"].append(i)
    return dropped


def _vet_profile(emden, out):
    dropped = {"not_converged": [], "zero_out_of_reach": []}
    for i, (m, n, L) in enumerate(profile_candidates()):
        if not _robust(emden, m, n, 1.0, L):
            dropped["not_converged"].append(i)
            continue
        argv = ["first-zero", "--m", str(m), "--n", str(n), "--L", str(L)]
        status = _cli_status(emden, argv, out)
        if (status == 3) != (m >= 5.0):
            # for m < 5 the zero lies past the scan or past the last node
            dropped["zero_out_of_reach"].append(i)
    for m, n, L in PROFILE_ANCHORS:
        argv = ["first-zero", "--m", str(m), "--n", str(n), "--L", str(L)]
        if not _robust(emden, m, n, 1.0, L) or (_cli_status(emden, argv, out) == 3) != (m >= 5.0):
            raise RuntimeError(f"profile anchor {(m, n, L)} no longer converges or finds its zero")
    return dropped


def regenerate():
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    import emden
    import emden.cli

    warnings.simplefilter("ignore")
    out = os.path.join(os.path.dirname(HERE), ".bench_tmp", "vet.out")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    doc = {
        "sweep": {"dropped": _vet_sweep(emden)},
        "fault": _vet_fault(emden),
        "scan": {"dropped": _vet_scan(emden, out)},
        "profile": {"dropped": _vet_profile(emden, out)},
    }
    counts = {name: {k: len(v) for k, v in doc[name]["dropped"].items()}
              for name in ("sweep", "scan", "profile")}
    for name in counts:
        doc[name]["dropped"] = {k: _pack(v) for k, v in doc[name]["dropped"].items()}
    os.remove(out)
    for name, make in CANDIDATES.items():
        doc[name]["digest"] = digest(make())
        doc[name]["candidates"] = len(make())
    with open(POINTS_FILE, "w") as handle:
        json.dump(doc, handle, sort_keys=True)
        handle.write("\n")
    for name in ("sweep", "scan", "profile"):
        print(name, doc[name]["candidates"], "candidates, dropped", counts[name])
    fault = doc["fault"]
    print("fault", {k: len(v) for k, v in fault.items() if isinstance(v, list)})


if __name__ == "__main__":
    regenerate()
