"""Golden CLI outputs: exact bytes and exit codes for fixed command lines.

Each case runs the in-process CLI with ``--format json`` and ``--format csv``
and compares the written file byte for byte with ``tests/golden/<case>.<fmt>``
and the exit code with ``tests/golden/exit_codes.json``. A golden file
changes only with a reason for that file in CHANGES.md; after such a change,
rewrite the files with ``PYTHONPATH=src python tests/test_golden.py``.
"""
import json
import random
from pathlib import Path

import pytest

from emden.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "solve_m3_n7_L1": ["solve", "--m", "3", "--n", "7", "--L", "1.0"],
    "solve_m2.5_n12_eval": ["solve", "--m", "2.5", "--n", "12", "--L", "0.5",
                            "--eval", "0,0.3,1,2.5,6"],
    "first-zero_m3_n7_L1": ["first-zero", "--m", "3", "--n", "7", "--L", "1.0"],
    "first-zero_m4_n9_L1.7": ["first-zero", "--m", "4", "--n", "9", "--L", "1.7"],
    "first-zero_m5_n12_L0.9": ["first-zero", "--m", "5", "--n", "12", "--L", "0.9"],
    "scan-L_m2_n6": ["scan-L", "--m", "2", "--n", "6", "--L-grid", "0.5:4.0:15"],
    "scan-L_m3.5_n16": ["scan-L", "--m", "3.5", "--n", "16", "--L-grid", "0.2:3:9"],
    "reproduce-tables": ["reproduce-tables"],
    "solve_m2_n8_L2": ["solve", "--m", "2", "--n", "8", "--L", "2"],
    "first-zero_m2_n8_L2": ["first-zero", "--m", "2", "--n", "8", "--L", "2"],
    "first-zero_m2.5_n8_L0.5": ["first-zero", "--m", "2.5", "--n", "8", "--L", "0.5"],
    "scan-L_m2_n8": ["scan-L", "--m", "2", "--n", "8", "--L-grid", "2.0:3.0:3"],
    "scan-L_m2.5_n9_alpha0.5": ["scan-L", "--m", "2.5", "--n", "9", "--alpha", "0.5",
                                "--tol", "1e-10", "--max-iter", "6",
                                "--L-grid", "0.3:3.5:11"],
    "solve_m3_n6_L4": ["solve", "--m", "3", "--n", "6", "--L", "4"],
    "first-zero_m3_n6_L4": ["first-zero", "--m", "3", "--n", "6", "--L", "4"],
    "scan-L_m3_n6_L4": ["scan-L", "--m", "3", "--n", "6", "--L-grid", "4:4:1"],
}
FORMATS = ("json", "csv")


def capture(case, fmt, directory):
    """Run one golden case; return (exit code, output bytes)."""
    path = Path(directory) / f"{case}.{fmt}"
    status = main(CASES[case] + ["--format", fmt, "--out", str(path)])
    return status, path.read_bytes()


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_golden(case, fmt, tmp_path):
    """A golden file changes only with a reason for that file in CHANGES.md."""
    status, output = capture(case, fmt, tmp_path)
    codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    assert status == codes[f"{case}.{fmt}"]
    assert output == (GOLDEN / f"{case}.{fmt}").read_bytes()


# argv that main rejects with exit code 1 before any solve: a missing
# required option, a bad choice, a malformed grid, an unknown subcommand
USAGE_ERRORS = (
    ["solve", "--m", "3"],
    ["first-zero", "--m", "3", "--n", "7", "--format", "xml"],
    ["scan-L", "--m", "2", "--n", "6", "--L-grid", "0.5:4.0"],
    ["tabulate"],
)


def test_one_process_repeats_every_case(tmp_path, capsys):
    """main keeps one parser for the process: every case, run twice in a
    shuffled order with a usage error before each run, keeps its bytes."""
    codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    runs = [(case, fmt) for case in sorted(CASES) for fmt in FORMATS] * 2
    random.Random(7).shuffle(runs)
    for i, (case, fmt) in enumerate(runs):
        assert main(USAGE_ERRORS[i % len(USAGE_ERRORS)]) == 1
        directory = tmp_path / str(i)
        directory.mkdir()
        status, output = capture(case, fmt, directory)
        assert status == codes[f"{case}.{fmt}"], (i, case, fmt)
        assert output == (GOLDEN / f"{case}.{fmt}").read_bytes(), (i, case, fmt)
    assert "error:" in capsys.readouterr().err


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for case in sorted(CASES):
        for fmt in FORMATS:
            codes[f"{case}.{fmt}"], _ = capture(case, fmt, GOLDEN)
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n")
