"""Host-speed reference for the end-to-end timings.

The benchmark's host is shared: the same prediction ran 150-330 ms, and
30-second medians of identical work differed by 17-28 % (IQR over median)
in slow phases that last tens of seconds.  A fixed numpy kernel that does
not touch the library is timed before every operation (and, inside
``evaluate``, before every prediction).  Each timing is scaled by
``NOMINAL_S`` over the mean of the samples just before and after it, which
tracks those phases.  Scaled timings read as times on a host where the
kernel takes ``NOMINAL_S``; the raw ones are reported too.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

NOMINAL_S = 0.005

_rng = np.random.default_rng(0)
_A = _rng.standard_normal((19, 40))
_W = _rng.standard_normal((40, 4))
_EYE = np.eye(4)


def _kernel() -> float:
    # Small-array linear algebra and Python overhead, like one EM iteration.
    x = 0.0
    for _ in range(30):
        m = _W.T @ _W + 0.1 * _EYE
        m_inv = np.linalg.inv(m)
        _, s, _ = np.linalg.svd(_A, full_matrices=False)
        b = (_A - _A.mean(axis=0)) @ _W @ m_inv
        x += float(np.linalg.solve(m, b[:4].T).sum()) + float(s[0])
    return x


class HostSpeed:
    """Reference samples of one run, in the order they were taken."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        _kernel()   # the first call pays numpy's lazy set-up

    def sample(self) -> int:
        """Time the kernel once; returns the sample's index."""
        t0 = perf_counter()
        _kernel()
        self.samples.append(perf_counter() - t0)
        return len(self.samples) - 1

    def around(self, index: int) -> float:
        """Mean of a sample and the next one, which bracket the work
        timed between them."""
        return statistics.fmean(self.samples[index:index + 2])


def scaled(seconds: float, reference_s: float) -> float:
    """A timing scaled to a host where the kernel takes NOMINAL_S."""
    return seconds * NOMINAL_S / reference_s
