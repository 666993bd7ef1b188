"""Machine-speed reference for timings on a shared host.

On a shared virtual machine other tenants can slow every instruction by up
to about 1.8x for tens of seconds at a time, which no amount of repetition
inside one run averages out.  A fixed reference kernel, timed next to each
operation, tracks that slowdown: a run reports times scaled to the speed at
which the kernel takes ``NOMINAL_S``.  The kernel does the pipeline's kinds
of work and touches no ddreg code, so a change to the program moves the
operation times and not the reference.

A cold set-up is about half interpreter start and imports, which slow less
than the kernel when the host is busy, so set-ups are scaled by the
geometric mean of the kernel's slowdown and that of a fresh interpreter
importing numpy and scipy.linalg.
"""

from __future__ import annotations

import math
import statistics
import subprocess
import sys
from time import perf_counter

import numpy as np
import scipy.linalg

# Reference kernel time on an unloaded 2.1 GHz Xeon vCPU.  It only sets the
# scale of the reported seconds; comparisons on one machine do not depend on it.
NOMINAL_S = 0.00175
# The import process's time at the same nominal speed.
IMPORT_NOMINAL_S = 0.33
KERNEL_SAMPLES = 5  # kernel samples per set-up reference


class Speedometer:
    def __init__(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((20, 20))
        self._chol = np.linalg.cholesky(m @ m.T + 20 * np.eye(20))[None, :, :]
        self._coeff = rng.standard_normal((30, 20, 20))
        h = rng.standard_normal((40, 40))
        self._hess = h @ h.T + 40 * np.eye(40)
        self._grad = rng.standard_normal(40)
        self._step = 0.9 * np.linalg.qr(rng.standard_normal((12, 12)))[0]
        self._input = rng.standard_normal((12, 2))

    def _kernel(self) -> float:
        """Batched triangular solves and a Gram product (the Newton system's
        assembly), a Cholesky solve, and a Python stepping loop."""
        start = perf_counter()
        for _ in range(2):
            half = np.linalg.solve(self._chol, self._coeff)
            sym = np.linalg.solve(self._chol, half.transpose(0, 2, 1))
            flat = sym.reshape(sym.shape[0], -1)
            flat @ flat.T
        scipy.linalg.cho_solve(scipy.linalg.cho_factor(self._hess), self._grad)
        x = np.ones(12)
        for k in range(60):
            x = self._step @ x + self._input @ np.array([np.sin(k), 0.0])
        return perf_counter() - start

    def slowdown(self) -> float:
        """How much slower than nominal the machine runs now (best of three,
        since interference only ever adds time)."""
        return min(self._kernel() for _ in range(3)) / NOMINAL_S

    def setup_slowdown(self) -> float:
        """Slowdown for a cold process: kernel and import process combined.

        The kernel's median over several samples is used, since one sample
        takes only a few milliseconds and now and then reads far off.
        """
        kernel = statistics.median(self.slowdown() for _ in range(KERNEL_SAMPLES))
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "import numpy, scipy.linalg"], check=True)
        imports = (perf_counter() - start) / IMPORT_NOMINAL_S
        return math.sqrt(kernel * imports)
