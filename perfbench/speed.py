"""Host speed, read from a fixed slice of reference work.

The benchmark runs on a few cores of a shared host whose speed drifts by
up to 1.5x over seconds to minutes, as neighbours come and go. Timing
the program alone would measure that drift. So the benchmark also times
a fixed reference kernel, interleaved with the program's own units of
work throughout the run, and reports each time scaled to a host on
which that kernel takes REFERENCE_S:

    reported = measured * REFERENCE_S / median(kernel times in the same round)

The program's code never runs inside the kernel, so a change to the
program moves the reported times by its own effect; only the host's
drift, which slows kernel and program alike, divides out. The raw times
and the scale are printed in the report line.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# The kernel's time in the fast state of an Intel Xeon host at 2.0 GHz
# with 2 vCPUs and one BLAS thread (its slow state reads about 1.5x this);
# reported times are scaled to that speed.
REFERENCE_S = 1.6e-3

_A = np.random.default_rng(0).standard_normal((32, 64))
_B = np.random.default_rng(1).standard_normal((64, 64)) / 8.0


def kernel() -> float:
    """Interpreter-bound and small-numpy work, in the proportions of the tape."""
    acc = 0
    for i in range(6000):
        acc += i * i % 7
    x = _A
    for _ in range(80):
        x = np.tanh(x @ _B) * 0.5 + _A
    return acc + float(x[0, 0])


class Speed:
    """Reference-kernel times collected across one run."""

    def __init__(self):
        self.samples: list[float] = []

    def sample(self, n: int = 1) -> None:
        for _ in range(n):
            t0 = time.perf_counter()
            kernel()
            self.samples.append(time.perf_counter() - t0)

    @property
    def slowdown(self) -> float:
        """How much slower than the reference host the host was, over every reading."""
        return self.slowdown_since(0)

    def slowdown_since(self, first: int) -> float:
        """The same, over the readings from index first on."""
        return statistics.median(self.samples[first:]) / REFERENCE_S
