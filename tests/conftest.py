import pytest
from hypothesis import settings

import emden.solver

settings.register_profile("suite", deadline=None, max_examples=50)
settings.load_profile("suite")

# The one setup whose solve does not converge, shared by every test that needs
# a stall: at m=3, n=6, L=4 the damped line search stalls after 4 iterations
# at residual 0.157, with a non-increasing residual history.
STALLED = (3.0, 6, 4.0)
STALLED_ARGV = ["--m", "3", "--n", "6", "--L", "4"]

# Points that no evaluation entry point accepts: text, NaN, infinity, an
# array with a NaN, None, numeric text, booleans and a boolean among numbers
BAD_POINTS = ("abc", float("nan"), float("inf"), [0.5, float("nan")], None,
              "2.0", ["1.0", "2.0"], True, [True, False], [1.0, True])



@pytest.fixture(autouse=True)
def _no_kept_solves():
    """Each test starts with no kept solve, so its solve counts and warnings
    do not depend on the tests run before it."""
    emden.solver._kept_solve.cache_clear()


# Ordered record of acceptance-criterion outcomes, printed as a summary block
# so a full run ends with one PASS/FAIL line per criterion.
_acceptance_results = {}


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "acceptance(criterion): end-to-end acceptance check, reported in the summary block",
    )


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when != "call":
        return
    marker = item.get_closest_marker("acceptance")
    if marker is not None:
        _acceptance_results[marker.args[0]] = report.passed


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _acceptance_results:
        return
    terminalreporter.section("acceptance criteria")
    for criterion, passed in _acceptance_results.items():
        verdict = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"  {verdict}  {criterion}")
