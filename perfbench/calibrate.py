"""Machine-speed calibration.

On a shared host the speed of a core drifts by tens of percent over seconds
to minutes, and a run of the benchmark sits inside one such period.  Each
timed invocation is therefore paired with a calibration kernel run right
before and right after it, in the same process, and reported in reference
seconds:

    reported = measured * REFERENCE_S / kernel time

The kernel uses only NumPy, LAPACK and the interpreter, never ``nestfactor``,
so a change to the package cannot move it.  Its mix (a LAPACK SVD, BLAS
products and an interpreted loop) mirrors what the workloads spend time on.
"""

from __future__ import annotations

import time

import numpy as np

# Nominal kernel time that defines a reference second; about what the kernel
# takes on a 2-core x86-64 host with OpenBLAS 0.3.31 on one thread.
REFERENCE_S = 0.2

_MATRIX = np.random.default_rng(0).standard_normal((128, 128))


def kernel_s() -> float:
    """Wall seconds of one run of the calibration kernel."""
    a = _MATRIX
    start = time.perf_counter()
    for _ in range(30):
        np.linalg.svd(a)
    for _ in range(120):
        a @ a
    x = 0
    for i in range(1_000_000):
        x += i
    return time.perf_counter() - start


def scale(measured_s: float, kernel: float) -> float:
    """A measured time in reference seconds."""
    return measured_s * REFERENCE_S / kernel
