"""All complex roots of polynomials via simultaneous iteration.

Aberth-Ehrlich iteration on every root at once avoids deflation error and
needs no external eigensolver.  Each step updates all roots from the
previous iterate (Aberth 1973; Bini 1996), so one numpy pass serves every
root of a whole batch of polynomials of one degree, stored as the columns
of a coefficient array.  The batch stays on the last, contiguous axis, from
(degree+1, M) coefficients to (degree, M) roots: numpy's inner loops run
fastest along the long axis, and a sweep solves 1001 polynomials of two or
three roots at once.  Starting points sit on a circle of radius given by
the Cauchy bound, rotated by an irrational angle so that no initial guess
lands on a symmetry axis of the root set.  Multiple roots come back as
near-coincident simple roots.  Clustering them and wording a failed solve
are the caller's job.

p and p' come from Horner's rule on a stack of planes [p', p, c_n, ..., c_0],
each shaped like the roots.  A window of two planes slides down the stack:
one multiply by [z, z] and one add into the next window give p'z + p and
pz + c_k together, so each coefficient costs two numpy calls, not four.
These are the operations of the textbook loop, in its order and from the
same two zero planes, so p and p' are bit-identical to that loop run over
two or more points.  Every shape, a single point included, goes through
numpy's vector loop, so a polynomial's roots are bit-identical whether it
is solved alone or as a column of a batch, at every degree and size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

DEFAULT_TOL = 1e-13
MAX_ITERATIONS = 500
# golden-section angle in radians; irrational fraction of a turn
_ANGLE_OFFSET = 0.38196601125010515


@dataclass(frozen=True)
class RootSet:
    """Roots with multiplicity plus a residual-based quality estimate.

    roots is (degree, M): column m holds the roots of polynomial m, and M is
    1 for one polynomial.  max_residual is the largest Newton-correction
    magnitude |p(z)/p'(z)| over the returned roots, which estimates the
    distance to the true root, and converged holds when every column
    converged.  column_converged and column_residual give each column's
    flag and largest residual, as arrays of length M.
    """

    roots: np.ndarray
    max_residual: float
    converged: bool
    column_converged: np.ndarray
    column_residual: np.ndarray


def _horner(coeffs: np.ndarray, shape: tuple[int, int]):
    """A function of z that returns p(z) and p'(z) for the columns of coeffs.

    coeffs is (degree+1, M) ascending, one polynomial per column, and z has
    the given (n, M) shape.  The workspace is built once; p and p' come back
    as views into it, valid until the next call.
    """
    planes = np.empty((coeffs.shape[0] + 2, *shape), dtype=complex)
    windows = [planes[k : k + 2] for k in range(len(planes) - 1)]
    steps = list(zip(windows, windows[1:]))
    descending = np.broadcast_to(coeffs[::-1, None, :], planes[2:].shape)
    zz = np.empty((2, *shape), dtype=complex)
    product = np.empty_like(zz)

    def evaluate(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        planes[:2] = 0.0
        planes[2:] = descending
        zz[:] = z
        for window, following in steps:
            np.multiply(window, zz, out=product)
            np.add(product, following, out=following)
        return planes[-1], planes[-2]

    return evaluate


def _aberth(coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Iterate every column until its largest relative step is below
    DEFAULT_TOL, it reaches a non-finite iterate, or MAX_ITERATIONS pass.

    Columns are polynomials: coeffs is (degree+1, M) and the roots
    (degree, M).  A column that stops is frozen and leaves the working
    arrays.  The repulsion sum adds each column's terms in one order
    whatever M is, so a column's roots do not depend on the other columns.
    Returns the roots and the converged and non-finite flags.
    """
    degree, columns = coeffs.shape[0] - 1, coeffs.shape[1]
    radius = 1.0 + np.max(np.abs(coeffs[:-1] / coeffs[-1:]), axis=0)
    circle = np.exp(2j * np.pi * (np.arange(degree) / degree + _ANGLE_OFFSET))
    roots = radius * circle[:, None]
    converged = np.zeros(columns, dtype=bool)
    failed = np.zeros(columns, dtype=bool)

    active = np.arange(columns)
    z, c = roots, coeffs
    horner = _horner(c, z.shape)
    for _ in range(MAX_ITERATIONS):
        p, dp = horner(z)
        newton = p / dp
        diff = z[:, None, :] - z[None, :, :]  # [i, j, m] = z_i - z_j
        coincide = diff == 0
        inverse = np.divide(1.0, diff, out=diff)  # in place: the largest array
        inverse[coincide] = 0.0
        # The sum over j must add a column's terms in the order numpy uses
        # for a lone polynomial, whose j axis is contiguous.  numpy sums a
        # contiguous complex axis pairwise (left to right below 4 terms) and
        # a strided one left to right, so j is summed where it lies below
        # degree 4 or when M is 1, and is copied to the last axis otherwise.
        if degree < 4 or z.shape[1] == 1:
            repulsion = inverse.sum(axis=1)
        else:
            repulsion = np.ascontiguousarray(inverse.transpose(0, 2, 1)).sum(axis=2)
        # keep the sum named: numpy multiplies into an unnamed temporary of
        # 256 KiB or more in place, without the fused multiply-add of its
        # vector loop, and a large batch would round unlike a lone polynomial
        denominator = 1.0 - newton * repulsion
        step = newton / denominator
        flat = denominator == 0
        step[flat] = newton[flat]
        exact = p == 0
        step[exact] = 0.0
        # nudge off a critical point; keeps the iteration alive
        stalled = (dp == 0) & ~exact
        nudge = DEFAULT_TOL * (1.0 + np.abs(z[stalled]))
        step[stalled] = -nudge
        z = z - step
        relative = np.abs(step) / (1.0 + np.abs(z))
        relative[stalled] = nudge

        bad = ~np.isfinite(z).all(axis=0)
        done = relative.max(axis=0) < DEFAULT_TOL
        stop = done | bad
        if stop.any():
            leaving = active[stop]
            roots[:, leaving] = z[:, stop]
            converged[leaving] = done[stop]
            failed[leaving] = bad[stop]
            keep = ~stop
            active, z, c = active[keep], z[:, keep], c[:, keep]
            if not active.size:
                break
            horner = _horner(c, z.shape)
    roots[:, active] = z
    return roots, converged, failed


def _polish(coeffs: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Three Newton steps per root, then each column's largest |p/p'|."""
    horner = _horner(coeffs, z.shape)
    moving = np.ones(z.shape, dtype=bool)
    for _ in range(3):
        p, dp = horner(z)
        moving &= (dp != 0) & (p != 0)
        z = np.where(moving, z - p / dp, z)
    p, dp = horner(z)
    scale = np.where(dp != 0, np.abs(dp), np.abs(coeffs[-1:]))
    residual = np.where(scale != 0, np.abs(p) / scale, np.abs(p))
    return z, residual.max(axis=0)


def all_roots(coefficients: Sequence) -> RootSet:
    """Find all roots of sum c_k x^k (ascending coefficients).

    Each c_k is a number, or an array of length M for a batch of M
    polynomials that share a degree.  Leading coefficients that are zero in
    every column are dropped; the zero polynomial raises a ValueError, and
    an empty batch (M = 0) returns (len(coefficients) - 1, 0) roots.  Each
    column iterates until its largest step is below DEFAULT_TOL*(1+|root|)
    or the iteration budget runs out; each root then gets three Newton
    polishing steps.  A non-converged column returns its best iterates with
    converged=False rather than raising; one that reaches a non-finite
    iterate stops there, with residual NaN.
    """
    # one polynomial per column from here on, a single one included
    coeffs = np.array(coefficients, dtype=complex).reshape(len(coefficients), -1)
    columns = coeffs.shape[1]
    if columns:
        nonzero = np.flatnonzero(coeffs.any(axis=1))
        if not nonzero.size:
            raise ValueError("cannot find roots of the zero polynomial")
        coeffs = coeffs[: nonzero[-1] + 1]
    degree = coeffs.shape[0] - 1

    if degree == 0 or not columns:
        roots = np.empty((degree, columns), dtype=complex)
        converged = np.ones(columns, dtype=bool)
        residuals = np.zeros(columns)
    else:
        with np.errstate(all="ignore"):
            roots, converged, failed = _aberth(coeffs)
            residuals = np.full(columns, np.nan)
            finite = ~failed
            roots[:, finite], residuals[finite] = _polish(
                coeffs[:, finite], roots[:, finite])

    return RootSet(
        roots=roots,
        max_residual=float(residuals.max(initial=0.0)),
        converged=bool(converged.all()),
        column_converged=converged,
        column_residual=residuals,
    )
