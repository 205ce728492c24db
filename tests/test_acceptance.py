"""End-to-end acceptance checks, one per published claim about the method.

Each test asserts the claim at its stated tolerance against this
implementation, timed where a runtime bound is part of the claim. The summary
hook in conftest prints one PASS/FAIL line per criterion at the end of a run.
Several criteria are not attainable with a faithful implementation of the
published construction; those tests fail and are expected to fail, with the
analysis recorded outside the package. They must not be weakened to pass.
"""
import json
import time

import numpy as np
import pytest

from emden.cli import (
    EXIT_MISMATCH,
    EXIT_NO_ZERO,
    EXIT_NOT_CONVERGED,
    EXIT_OK,
    EXIT_USAGE,
    RunConfig,
    main,
    run_solve,
)
from emden.laguerre import BasisParams
from emden.operators import build_operators, eval_hat_interpolant
from emden.reference import (
    closed_form,
    first_zero,
    first_zero_reference,
    horedt_reference,
    method_reference_profile,
    shooting_oracle,
)
from emden.solver import (
    LaneEmdenProblem,
    SolverConfig,
    assemble_jacobian,
    assemble_residual,
    newton_solve,
)

# converged setups used wherever a criterion needs one per polytropic index
CONVERGED_SETUPS = {
    0.0: (7, 1.0),
    1.0: (7, 1.0),
    2.0: (6, 0.5),
    3.0: (7, 1.0),
    4.0: (6, 2.0),
    5.0: (12, 0.9),
}


def spectral(m, n, L, **kw):
    sol = newton_solve(LaneEmdenProblem(m), SolverConfig(n=n, L=L, **kw))
    return sol, sol.operators


def scanned_zero_deltas(m, n, grid):
    """Best |x_star - reference| over the converged grid points."""
    exact = first_zero_reference(m)
    deltas = []
    for L in grid:
        sol, ops = spectral(m, n, float(L))
        if not sol.converged:
            continue
        try:
            deltas.append(abs(first_zero(sol, ops).x_star - exact))
        except Exception:
            continue
    return deltas


@pytest.mark.acceptance("1: profile values m=3, n=7, L=1 vs published columns")
def test_criterion_1_profile_table():
    start = time.perf_counter()
    sol, ops = spectral(3.0, 7, 1.0)
    assert sol.converged
    xs = horedt_reference(3.0).xs
    present = eval_hat_interpolant(ops, sol.b, xs)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    method = method_reference_profile(3.0).ys
    horedt = horedt_reference(3.0).ys
    np.testing.assert_allclose(present[:7], method[:7], atol=5e-5)
    np.testing.assert_allclose(present[:7], horedt[:7], atol=1e-4)
    assert abs(present[7] - method[7]) <= 5e-5


@pytest.mark.acceptance("2a: first zero m=3, n=7, L=1 within 1e-4")
def test_criterion_2a_first_zero_m3():
    sol, ops = spectral(3.0, 7, 1.0)
    result = first_zero(sol, ops)
    assert abs(result.x_star - 6.89684862) <= 1e-4


@pytest.mark.acceptance("2b: first zero m=2, n=6, scanned L within 1e-3")
def test_criterion_2b_first_zero_m2_scan():
    start = time.perf_counter()
    deltas = scanned_zero_deltas(2.0, 6, np.linspace(0.5, 4.0, 15))
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    assert deltas, "no grid point converged to a profile with a zero"
    assert min(deltas) <= 1e-3


@pytest.mark.acceptance("2c: first zero m=4, n=6, scanned L within 1e-3")
def test_criterion_2c_first_zero_m4_scan():
    start = time.perf_counter()
    deltas = scanned_zero_deltas(4.0, 6, np.linspace(0.5, 4.0, 15))
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    assert deltas, "no grid point converged to a profile with a zero"
    assert min(deltas) <= 1e-3


@pytest.mark.parametrize("m,L,hi,tol", [
    pytest.param(0.0, 0.06, 2.2, 1e-3, id="m=0",
                 marks=pytest.mark.acceptance("3: closed-form match m=0, n=12, tuned L within 1e-3")),
    pytest.param(1.0, 0.15, 3.0, 1e-4, id="m=1",
                 marks=pytest.mark.acceptance("3: closed-form match m=1, n=12, tuned L within 1e-4")),
    pytest.param(5.0, 0.90, 5.0, 1e-4, id="m=5",
                 marks=pytest.mark.acceptance("3: closed-form match m=5, n=12, tuned L within 1e-4")),
])
def test_criterion_3_closed_form_match(m, L, hi, tol):
    sol, ops = spectral(m, 12, L)
    assert sol.converged
    xs = np.linspace(0.0, hi, 45)
    dev = np.max(np.abs(eval_hat_interpolant(ops, sol.b, xs) - closed_form(m, xs)))
    assert dev <= tol


@pytest.mark.acceptance("4a: shooting first zeros m=2,3,4 within 5e-6")
def test_criterion_4a_shooting_zeros():
    for m in (2.0, 3.0, 4.0):
        exact = first_zero_reference(m)
        prof = shooting_oracle(m, exact + 0.5)
        assert abs(prof.first_zero() - exact) <= 5e-6, f"m={m:g}"


@pytest.mark.parametrize("m,n,L", [
    pytest.param(2.0, 16, 0.1, id="m=2",
                 marks=pytest.mark.acceptance("4b: spectral vs shooting m=2 within 1e-4")),
    pytest.param(3.0, 20, 0.5, id="m=3",
                 marks=pytest.mark.acceptance("4b: spectral vs shooting m=3 within 1e-4")),
    pytest.param(4.0, 30, 0.5, id="m=4",
                 marks=pytest.mark.acceptance("4b: spectral vs shooting m=4 within 1e-4")),
])
def test_criterion_4b_spectral_vs_shooting(m, n, L):
    exact = first_zero_reference(m)
    prof = shooting_oracle(m, exact + 0.3, tol=1e-12)
    sol, ops = spectral(m, n, L)
    assert sol.converged
    interp = prof.interpolant()
    xs = np.linspace(0.0, exact - 0.1, 40)
    dev = max(abs(float(eval_hat_interpolant(ops, sol.b, x)) - float(interp(x)))
              for x in xs)
    assert dev <= 1e-4


@pytest.mark.acceptance("5a: polynomial derivative matrix exactness")
def test_criterion_5a_poly_exactness():
    # sampled polynomials of every admissible degree, error relative to the
    # size of the exact derivative on the grid
    rng = np.random.default_rng(42)
    for n in (4, 8, 12):
        ops = build_operators(BasisParams(n=n))
        eta = ops.nodes.eta
        powers = eta[:, None] ** np.arange(n + 1)
        for _ in range(20):
            c = rng.uniform(-1.0, 1.0, size=n + 1)
            p = powers @ c
            dp = powers[:, :-1] @ (c[1:] * np.arange(1, n + 1))
            scale = max(1.0, np.max(np.abs(dp)))
            assert np.max(np.abs(ops.D1_poly @ p - dp)) <= 1e-8 * scale


@pytest.mark.acceptance("5b: weighted matrix reproduces the pure decay mode")
def test_criterion_5b_decay_eigenfunction():
    for n in (3, 7, 10):
        ops = build_operators(BasisParams(n=n))
        f = np.exp(-ops.nodes.eta / 2.0)
        assert np.max(np.abs(ops.D1_mgl @ f + 0.5 * f)) <= 1e-9


@pytest.mark.acceptance("5c: second derivative matrix equals the square of the first")
def test_criterion_5c_operator_squaring():
    for n in (4, 7, 10):
        ops = build_operators(BasisParams(n=n))
        norm = np.max(np.abs(ops.D2_mgl))
        assert np.max(np.abs(ops.D1_mgl @ ops.D1_mgl - ops.D2_mgl)) <= 1e-7 * norm


@pytest.mark.acceptance("5d: hand-derived n=1 matrices")
def test_criterion_5d_hand_matrices():
    ops = build_operators(BasisParams(n=1))
    e = float(np.e)
    np.testing.assert_allclose(ops.D1_poly, [[-0.5, 0.5], [-0.5, 0.5]], atol=1e-12)
    np.testing.assert_allclose(ops.D2_poly, np.zeros((2, 2)), atol=1e-12)
    np.testing.assert_allclose(ops.D1_mgl, [[-1.0, 0.5 * e], [-0.5 / e, 0.0]], atol=1e-12)
    np.testing.assert_allclose(ops.D2_mgl, [[0.75, -0.5 * e], [0.5 / e, -0.25]], atol=1e-12)


@pytest.mark.acceptance("5e: analytic Jacobian vs finite differences, m=0..5")
def test_criterion_5e_jacobian_audit():
    h = 1e-7
    for m, (n, L) in CONVERGED_SETUPS.items():
        sol, ops = spectral(m, n, L)
        assert sol.converged, f"m={m:g}"
        problem = LaneEmdenProblem(m)
        jac = assemble_jacobian(problem, ops, sol.b)
        scale = np.max(np.abs(jac))
        for j in range(n + 1):
            bp, bm = sol.b.copy(), sol.b.copy()
            bp[j] += h
            bm[j] -= h
            col = (assemble_residual(problem, ops, bp)
                   - assemble_residual(problem, ops, bm)) / (2 * h)
            assert np.max(np.abs(jac[:, j] - col)) <= 1e-5 * scale, f"m={m:g} col={j}"


@pytest.mark.acceptance("6: plot profiles decrease from 1 and cross once near the references")
def test_criterion_6_profile_shape():
    for m, n, L in [(2.0, 6, 0.5), (3.0, 6, 1.0), (4.0, 6, 2.0)]:
        status, doc, _ = run_solve(RunConfig(command="solve", m=m, n=n, L=L))
        assert status == EXIT_OK, f"m={m:g}"
        pts = np.array(doc["evaluations"])
        xs, ys = pts[:, 0], pts[:, 1]
        assert ys[0] == 1.0
        crossings = np.nonzero((ys[:-1] > 0) & (ys[1:] <= 0))[0]
        assert len(crossings) == 1, f"m={m:g}: {len(crossings)} crossings"
        k = crossings[0]
        before = ys[: k + 1]
        assert np.all(np.diff(before) <= 1e-9), f"m={m:g} not decreasing"
        assert np.all(np.sign(ys[k + 1:]) <= 0), f"m={m:g} recrosses zero"
        exact = first_zero_reference(m)
        assert abs(xs[k] - exact) / exact <= 0.10, f"m={m:g} crossing far from reference"


@pytest.mark.acceptance("7: CLI exit codes, byte determinism, format equivalence")
def test_criterion_7_cli_contract(tmp_path, capsys):
    canonical = [
        ["--m", "2", "--n", "6", "--L", "0.5"],
        ["--m", "3", "--n", "7", "--L", "1"],
        ["--m", "4", "--n", "6", "--L", "2"],
    ]
    for extra in canonical:
        argv = ["solve"] + extra + ["--eval", "0,1.0,2.0"]
        # byte determinism, both formats
        for fmt in ("json", "csv"):
            a, b = tmp_path / "a.out", tmp_path / "b.out"
            assert main(argv + ["--format", fmt, "--out", str(a)]) == EXIT_OK
            assert main(argv + ["--format", fmt, "--out", str(b)]) == EXIT_OK
            assert a.read_bytes() == b.read_bytes()
        # numeric equivalence between formats
        assert main(argv) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert main(argv + ["--format", "csv"]) == EXIT_OK
        rows = capsys.readouterr().out.splitlines()[1:]
        for (jx, jy), row in zip(doc["evaluations"], rows):
            cx, cy = (float(tok) for tok in row.split(","))
            assert cx == jx and cy == jy
    # exit contract
    assert main(["solve", "--m", "3"]) == EXIT_USAGE
    capsys.readouterr()
    assert main(["solve", "--m", "2", "--n", "8", "--L", "2"]) == EXIT_NOT_CONVERGED
    capsys.readouterr()
    assert main(["first-zero", "--m", "5", "--n", "10"]) == EXIT_NO_ZERO
    capsys.readouterr()
    assert main(["reproduce-tables"]) in (EXIT_OK, EXIT_MISMATCH)
    capsys.readouterr()
