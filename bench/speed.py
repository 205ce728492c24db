"""The machine's speed, read from a fixed block of work timed between
operations, and the factor that scales measured times to a reference speed.

The machine is shared and computes slower or faster for seconds to minutes
at a time; CPU time moves with wall time, so the process is not left
waiting, every instruction takes longer. A run times the same block of
work (small LAPACK solves, a tridiagonal eigensolve, elementwise numpy and
an interpreter loop, the mix the package spends its time on; nothing of the
package itself, so a faster program does not make the block faster) every
``INTERVAL`` seconds of operation time. An operation's times are scaled by
``REFERENCE_S / block``, the block's time near it: a time reads the same on
a machine half as fast, and a change to the program moves it as it would
the raw time.

    python3 bench/speed.py      # time the block 50 times: median and quartiles
"""
from __future__ import annotations

import statistics
import time

import numpy as np
from scipy.linalg import eigh_tridiagonal

# seconds of one block at the reference speed: the median of this machine
# (2 cores, 2026-10-18); only the scale of the reported times depends on it
REFERENCE_S = 0.0200
UNITS = 128         # units of work in one block
INTERVAL = 0.25     # seconds of operation time between blocks
NEIGHBOURS = 3      # blocks on each side whose median times a stretch

_rng = np.random.default_rng(20100813)
_A = _rng.standard_normal((24, 24)) + 24.0 * np.eye(24)
_B = _rng.standard_normal(24)
_D = _rng.uniform(1.0, 2.0, 20)
_E = _rng.uniform(0.0, 1.0, 19)
_X = np.linspace(0.0, 10.0, 200)


def _unit():
    x = np.linalg.solve(_A, _B)
    w, _ = eigh_tridiagonal(_D, _E)
    y = np.exp(-0.5 * _X) * np.polyval(x[:8], _X / 10.0)
    s = float(y.sum()) + float(w[0])
    for k in range(60):
        s += k * 0.5 - (k % 7)
    return s


def block():
    """Seconds taken by one block of work."""
    start = time.perf_counter()
    for _ in range(UNITS):
        _unit()
    return time.perf_counter() - start


class Gauge:
    """Blocks timed between operations. The operations between two blocks
    form a stretch; ``factors()`` gives each stretch its scale factor."""

    def __init__(self):
        self.blocks = [block()]
        self.since = 0.0

    def after(self, wall):
        """Record an operation of ``wall`` seconds; return its stretch."""
        stretch = len(self.blocks) - 1
        self.since += wall
        if self.since >= INTERVAL:
            self.blocks.append(block())
            self.since = 0.0
        return stretch

    def close(self):
        """Time the block that ends the last stretch."""
        if self.since > 0.0:
            self.blocks.append(block())
            self.since = 0.0

    def factors(self):
        """REFERENCE_S over the median of the blocks around each stretch."""
        b = self.blocks
        return [REFERENCE_S / statistics.median(b[max(0, k - NEIGHBOURS + 1):k + NEIGHBOURS + 1])
                for k in range(max(1, len(b) - 1))]


if __name__ == "__main__":
    for _ in range(5):
        block()
    times = sorted(block() for _ in range(50))
    q1, q2, q3 = statistics.quantiles(times, n=4)
    print(f"block {q2 * 1e3:.2f} ms (quartiles {q1 * 1e3:.2f} to {q3 * 1e3:.2f}), "
          f"reference {REFERENCE_S * 1e3:.2f} ms")
