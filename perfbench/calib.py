"""Calibration kernels: how fast this core runs right now.

On a shared box, other tenants slow a process by up to ~1.8x for
seconds at a time, so a raw wall time mixes the code's cost with the
neighbours' load. The benchmark times one of two small fixed kernels at
every round boundary and scales round times by the kernel's reference
time over its measured time. Each workload uses the kernel whose mix of
interpreter and BLAS work is closest to its own, because the two kinds
of work slow down by different factors. The kernels belong to the
benchmark: a change to the program never changes them.

This module imports nothing heavy, so ``child.py`` can calibrate before
it imports the program (``setup_s`` is calibrated too).
"""

from __future__ import annotations

import time

__all__ = ["KERNELS", "SETUP_CALIB_RUNS", "kernel_seconds", "median_seconds"]

#: interpreter-kernel runs timed at each end of set-up
SETUP_CALIB_RUNS = 15

_BLAS_OPERANDS: list = []


def _interp_kernel() -> None:
    # dict, tuple and method-call traffic like the per-message paths
    counts: dict = {}
    queue: list = []
    for i in range(400):
        key = (i & 31, i >> 5)
        counts[key] = counts.get(key, 0) + 1
        queue.append((i, key, counts))
    total = 0
    for item in queue:
        total += item[0]


def _blas_kernel() -> None:
    # im2col-sized GEMMs and elementwise passes like the fleet conv layers
    import numpy as np

    if not _BLAS_OPERANDS:
        _BLAS_OPERANDS.append(np.random.default_rng(0).random((1600, 54)))
        _BLAS_OPERANDS.append(np.random.default_rng(1).random((54, 16)))
    x, w = _BLAS_OPERANDS
    for _ in range(4):
        y = x @ w
        np.maximum(y, 0.0, out=y)
        y.sum(axis=0)


#: kernel -> (function, its seconds on a quiet core of the 2-core Xeon
#: box the benchmark was written on)
KERNELS = {
    "interp": (_interp_kernel, 150e-6),
    "blas": (_blas_kernel, 720e-6),
}


def kernel_seconds(kernel: str) -> float:
    """Wall seconds one run of a calibration kernel takes right now."""
    fn, _ = KERNELS[kernel]
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def median_seconds(kernel: str, runs: int) -> float:
    """Median of ``runs`` back-to-back kernel timings."""
    times = sorted(kernel_seconds(kernel) for _ in range(runs))
    return times[len(times) // 2]
