"""A fixed reference loop that measures how fast the host runs right now.

The benchmark shares a few cores of a host with other tenants, and their load
makes the same Python code run up to about 1.6 times slower for seconds or
minutes at a time, with CPU time equal to wall time, so neither more passes
nor CPU time remove it.  The reference loop is run before and after every
command of a pass, and the pass time divided by the loop times around its
commands reads the same in a fast and a slow spell.  The loop imitates the
pipeline's instruction mix (Horner steps and list convolutions on Python
complex numbers, a small symmetric eigenproblem in numpy) and calls nothing
of secres, so a change to the program moves the numerator only.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

_COEFFS = [complex((k * 37) % 11 - 5, (k * 13) % 7 - 3) for k in range(41)]
_POINTS = [complex(0.01 * i, 0.3 - 0.002 * i) for i in range(300)]
_FACTORS = [[complex(i * j % 5 - 2, (i + j) % 3 - 1) for j in range(12)] for i in range(12)]
_MATRIX = np.add.outer(np.arange(6.0), np.arange(6.0)) % 5 + np.diag(np.arange(6.0))


def _convolve(a: list[complex], b: list[complex]) -> list[complex]:
    out = [0j] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _work() -> None:
    for z in _POINTS:
        p = dp = 0j
        for c in _COEFFS:
            dp = dp * z + p
            p = p * z + c
    product = [1 + 0j]
    for factor in _FACTORS:
        product = _convolve(product, factor)
        scale = abs(product[-1]) or 1.0
        product = [c / scale for c in product]
    for k in range(40):
        _convolve(_FACTORS[k % 12], _FACTORS[(k + 3) % 12])
        np.linalg.eigvalsh(_MATRIX)


def reference_seconds() -> float:
    """Wall time of one run of the reference loop, about 5 ms on a 2.1 GHz Xeon."""
    start = perf_counter()
    _work()
    return perf_counter() - start
