"""Calibration kernel: a fixed piece of numpy work that measures machine speed.

The benchmark host is shared: co-tenants on the same cores can slow every
process by up to 1.7x for minutes at a time, which swamps the changes the
benchmark exists to detect. The child times this kernel before and after
each pass, in the same process as the pass, and the harness reports times
scaled by ``CAL_REF_S / calibration time`` ("calibrated seconds": the time
the work would take on a machine where the kernel takes CAL_REF_S). On a
2-vCPU Xeon, over 44 s windows of back-to-back fig3a sweeps, this cut the
spread (IQR / median) of the window medians from 14 % to 2 %.

The kernel does the same kinds of operations as the sweeps (batched small
complex SVD, QR, matrix products, Gaussian draws, a log-sum-exp) but never
calls polair, so a change to polair cannot change it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy.special import logsumexp

CAL_REF_S = 0.05  # kernel time that defines one calibrated second
REPEATS = 5


class Calibration:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._Z = rng.standard_normal((2048, 2, 2)) + 1j * rng.standard_normal((2048, 2, 2))
        self._D = rng.standard_normal((2, 8)) + 1j * rng.standard_normal((2, 8))
        self._P = rng.standard_normal((256, 2)) + 1j * rng.standard_normal((256, 2))

    def _kernel(self) -> float:
        rng = np.random.default_rng(1)
        t0 = time.perf_counter()
        X = self._Z @ self._D + rng.standard_normal((2048, 2, 8))
        U, _, Vh = np.linalg.svd(X @ self._D.conj().T)
        np.linalg.qr(self._Z)
        W = U @ Vh
        metric = -np.abs(np.einsum("bij,mj->bmi", W[:512], self._P)).sum(-1)
        logsumexp(metric, axis=1)
        np.linalg.slogdet(np.eye(2) + W @ W.conj().swapaxes(-1, -2))
        return time.perf_counter() - t0

    def measure(self) -> float:
        """Median kernel time in seconds over REPEATS runs."""
        return statistics.median(self._kernel() for _ in range(REPEATS))
