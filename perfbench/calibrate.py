"""Machine-speed calibration for the timed loop.

On a shared machine the same work can run 10-25 % faster or slower from one
half-minute to the next.  A fixed reference kernel, timed between
operations every fifth of a second or so, measures that speed.  It mixes
what qcones spends its time on: interpreted loops, numpy calls on small
matrices, and boolean gathers over arrays of a few hundred kilobytes.  Dividing an
operation's time by the factor of the passes near it reports it in
reference-machine seconds.
"""

import time

import numpy as np

# Median kernel time on the machine the benchmark was tuned on (2 vCPUs,
# Python 3.11, numpy 2.4 with one OpenBLAS thread); factors are relative to it.
REF_SECONDS = 0.006

_rng = np.random.default_rng(0)
_MATRIX = _rng.random((24, 24))
_MATRIX += _MATRIX.T
_BITS = _rng.integers(0, 2, size=(100_000, 3)).astype(bool)
_INDEX = _rng.integers(0, 100_000, size=100_000)


def reference_factor() -> float:
    """Time of one pass of the reference kernel over ``REF_SECONDS``."""
    a = _MATRIX.copy()
    start = time.perf_counter()
    acc = 0
    for i in range(9000):
        acc += i * i
    for p in range(3 * 23):
        p %= 23
        col = a[:, p].copy()
        a[:, p] = 0.6 * col - 0.8 * a[:, p + 1]
        a[:, p + 1] = 0.8 * col + 0.6 * a[:, p + 1]
    for _ in range(45):
        np.linalg.eigvalsh(_MATRIX)
    for _ in range(2):
        int((_BITS[_INDEX, 0] & _BITS[_INDEX, 1] & _BITS[_INDEX, 2]).sum())
    return (time.perf_counter() - start) / REF_SECONDS
