"""All complex roots of a univariate polynomial via simultaneous iteration.

Aberth-Ehrlich iteration on every root at once avoids deflation error and
needs no external eigensolver.  Starting points sit on a circle of radius
given by the Cauchy bound, rotated by an irrational angle so that no initial
guess lands on a symmetry axis of the root set.  Multiple roots come back as
near-coincident simple roots; clustering them is the caller's job.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

from .errors import ZeroPolynomial

DEFAULT_TOL = 1e-13
MAX_ITERATIONS = 500
# golden-section angle in radians; irrational fraction of a turn
_ANGLE_OFFSET = 0.38196601125010515


@dataclass(frozen=True)
class RootSet:
    """Roots with multiplicity plus a residual-based quality estimate.

    max_residual is the largest Newton-correction magnitude |p(z)/p'(z)|
    over the returned roots, which estimates the distance to the true root.
    """

    roots: tuple[complex, ...]
    max_residual: float
    converged: bool = True


def _strip_leading_zeros(coefficients: Sequence[complex]) -> list[complex]:
    coeffs = [complex(c) for c in coefficients]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _horner_pair(coeffs: list[complex], z: complex) -> tuple[complex, complex]:
    """Evaluate p(z) and p'(z) in one pass (coefficients ascending)."""
    p = 0.0 + 0.0j
    dp = 0.0 + 0.0j
    for c in reversed(coeffs):
        dp = dp * z + p
        p = p * z + c
    return p, dp


def all_roots(coefficients: Sequence[complex], tol: float = DEFAULT_TOL) -> RootSet:
    """Find all roots of sum c_k x^k (ascending coefficients).

    Iterates until the largest step is below tol*(1+|root|) or the iteration
    budget runs out; each root then gets three Newton polishing steps.  A
    non-converged iteration returns its best iterates with converged=False
    rather than raising; one that reaches a non-finite iterate stops there,
    with max_residual NaN.
    """
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    coeffs = _strip_leading_zeros(coefficients)
    if not coeffs:
        raise ZeroPolynomial("cannot find roots of the zero polynomial")
    degree = len(coeffs) - 1
    if degree == 0:
        return RootSet(roots=(), max_residual=0.0)

    lead = coeffs[-1]
    radius = 1.0 + max(abs(c / lead) for c in coeffs[:-1])
    roots = [
        radius * cmath.exp(2j * cmath.pi * (k / degree + _ANGLE_OFFSET))
        for k in range(degree)
    ]

    converged = False
    for _ in range(MAX_ITERATIONS):
        max_step = 0.0
        for k in range(degree):
            z = roots[k]
            p, dp = _horner_pair(coeffs, z)
            if p == 0:
                continue
            if dp == 0:
                # nudge off a critical point; keeps the iteration alive
                roots[k] = z + tol * (1.0 + abs(z))
                max_step = max(max_step, tol * (1.0 + abs(z)))
                continue
            newton = p / dp
            repulsion = sum(
                1.0 / (z - roots[j]) for j in range(degree) if j != k and roots[j] != z
            )
            denominator = 1.0 - newton * repulsion
            step = newton if denominator == 0 else newton / denominator
            roots[k] = z - step
            relative = abs(step) / (1.0 + abs(roots[k]))
            if relative > max_step:
                max_step = relative
            elif relative != relative:
                # NaN from a non-finite iterate, which max() would skip
                return RootSet(tuple(roots), math.nan, converged=False)
        if max_step < tol:
            converged = True
            break

    for k in range(degree):
        for _ in range(3):
            p, dp = _horner_pair(coeffs, roots[k])
            if dp == 0 or p == 0:
                break
            roots[k] = roots[k] - p / dp

    max_residual = 0.0
    for z in roots:
        p, dp = _horner_pair(coeffs, z)
        scale = abs(dp) if dp != 0 else abs(lead)
        max_residual = max(max_residual, abs(p) / scale if scale else abs(p))

    return RootSet(tuple(roots), max_residual, converged)


def sort_roots(roots: Sequence[complex]) -> list[complex]:
    """Canonical eigenvalue ordering: by real part, ties by imaginary part."""
    return sorted(roots, key=lambda z: (z.real, z.imag))
