"""A fixed reference kernel that reads the host's current speed.

On a shared machine the same code runs 15 to 25% faster or slower from one
half-minute to the next, and by more from one second to the next; CPU time
follows wall time, so the drift is the host's, not the process's.
``run.py`` times this kernel in the gaps before and after every cycle and
every set-up sample, multiplies each cycle's step rate by
``(kernel time / NOMINAL_S) ** ELASTICITY`` and divides each set-up time by
it: the results read as on a host that runs the kernel in ``NOMINAL_S``.  A
change to diskflow moves the step rate or the set-up time and leaves the
kernel alone, so it shows in full.

The kernel mixes three of the program's kinds of work, in about equal
time, with fixed inputs and none of diskflow's code: ``numpy.fft``
transforms along theta with radial differences on a 256x128 array, loops
of 65 small complex solves through one sparse LU factorization with their
residuals (the shape of a per-mode inversion), and formatting a 256x128
array as CSV text in memory.  Of the candidates tried, these followed the
workloads' step rates best over half-minute windows; sparse factorizations
and a pure-interpreter loop followed them worse.

``ELASTICITY``: over half-minute windows of back-to-back cycles, the log of
a workload's step rate moved less far than the log of this kernel's time:
least-squares slopes, fitted both ways, of 0.6 on ``radial_sweep``, 0.6 to
1.0 on ``perturbed_sweep`` and 0.9 to 1.1 on ``audit_io`` (2-core shared
Intel Xeon VM).  With an exponent of 1 the correction overshoots on the
sweeps when the host is fast or slow; 0.7 left spreads between windows of
2 to 3%, against 5 to 10% uncorrected, on all three workloads.  Set-up
times (``setup_child.py``, mostly imports) followed the kernel with slopes
of 0.7 to 1.1; with 0.7 the spread of medians of five samples fell from 19%
to 4%.
"""

from __future__ import annotations

import io
import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from stats import median

NOMINAL_S = 0.075   # a typical kernel time on the 2-core VM of README.md
ELASTICITY = 0.7

_N_R, _N_THETA = 256, 128
_N_LU = 2 * _N_R
_N_MODES = _N_THETA // 2 + 1


class HostReference:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._field = rng.standard_normal((_N_R, _N_THETA))
        self._decay = np.exp(-self._field * self._field)
        self._modes = (rng.standard_normal((_N_LU, _N_MODES))
                       + 1j * rng.standard_normal((_N_LU, _N_MODES)))
        n = _N_LU
        self._mat = sp.diags([np.full(n - 2, -0.3), np.full(n - 1, -1.0),
                              np.full(n, 2.5),
                              np.full(n - 1, -1.0), np.full(n - 2, -0.3)],
                             [-2, -1, 0, 1, 2], format="csc")
        self._lu = spla.splu(self._mat)

    def _transforms(self) -> None:
        x = self._field
        for _ in range(80):
            coeff = np.fft.rfft(x, axis=1)
            coeff[:, 1:] *= 0.5
            x = np.fft.irfft(coeff, n=_N_THETA, axis=1)
            d = np.empty_like(x)
            d[1:-1] = 0.5 * (x[2:] - x[:-2])
            d[0], d[-1] = d[1], d[-2]
            x = x + 1e-3 * d * self._decay

    def _mode_solves(self) -> None:
        for _ in range(8):
            for m in range(_N_MODES):
                rhs = self._modes[:, m]
                stacked = np.column_stack([rhs.real, rhs.imag])
                out = self._lu.solve(stacked)
                res = self._mat @ out - stacked
                float(np.sum(res * res))
                float(np.sum(stacked * stacked))

    def _csv(self) -> None:
        np.savetxt(io.StringIO(), self._field, fmt="%.17g", delimiter=",")

    def sample(self) -> float:
        """One run of the kernel, in s."""
        start = time.perf_counter()
        self._transforms()
        self._mode_solves()
        self._csv()
        return time.perf_counter() - start

    def block(self, runs: int) -> float:
        """Median time of ``runs`` kernel runs, in s."""
        return median([self.sample() for _ in range(runs)])
