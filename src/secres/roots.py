"""All complex roots of polynomials via simultaneous iteration.

Aberth-Ehrlich iteration on every root at once avoids deflation error and
needs no external eigensolver.  Each step updates all roots from the
previous iterate (Aberth 1973; Bini 1996), so one numpy pass serves every
root of a whole batch of polynomials of one degree, stored as the columns
of a coefficient array.  The batch stays on the last, contiguous axis, from
(degree+1, M) coefficients to (degree, M) roots: numpy's inner loops run
fastest along the long axis, and a sweep solves 1001 polynomials of two or
three roots at once.  Starting points sit on Bini's circles, one per edge
of the Newton polygon, computed afresh by each call, so each polynomial is
solved at its own scale whatever the units or the span of its coefficients
(Bini 1996).  Each root stops once its own step is small relative to that
scale; a stopped root no longer moves but still repels the others, and a
polynomial is done when all its roots have stopped (as in MPSolve; Bini and
Fiorentino 2000).  Multiple roots come back as near-coincident simple
roots.  Clustering them and wording a failed solve are the caller's job.

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
# the golden section 1 - 1/phi, an irrational fraction of a turn
_ANGLE_OFFSET = 0.38196601125010515


@dataclass(frozen=True)
class RootSet:
    """Roots with multiplicity plus a residual-based quality estimate.

    roots is (degree, M): column m holds the roots of polynomial m, and M is
    1 for one polynomial.  max_residual is the largest Newton-correction
    magnitude |p(z)/p'(z)| over the returned roots, which estimates the
    distance to the true root, and converged holds when every column
    converged.  column_converged and column_residual give each column's
    flag and largest residual, as arrays of length M.  iterations is
    (degree, M): the Aberth iteration at which each root stopped, or
    MAX_ITERATIONS if it was still moving there.
    """

    roots: np.ndarray
    max_residual: float
    converged: bool
    column_converged: np.ndarray
    column_residual: np.ndarray
    iterations: np.ndarray


def _horner(coeffs: np.ndarray, shape: tuple[int, int]):
    """A function of z that returns p(z) and p'(z) for the columns of coeffs.

    coeffs is (degree+1, M) ascending, one polynomial per column, and z has
    the given (n, M) shape.  The workspace is built once; p and p' come back
    as views into it, valid until the next call.
    """
    planes = np.empty((coeffs.shape[0] + 2, *shape), dtype=complex)
    # the windows are flat slices of the buffer: a 1-D call costs numpy less
    size = shape[0] * shape[1]
    flat = planes.reshape(-1)
    windows = [flat[k * size : (k + 2) * size] for k in range(len(planes) - 1)]
    steps = list(zip(windows, windows[1:]))
    descending = coeffs[::-1, None, :]  # broadcast over the points by each fill
    value, slope = planes[-1], planes[-2]
    zz = np.empty((2, *shape), dtype=complex)
    pair = zz.reshape(-1)
    product = np.empty_like(pair)
    # bound once and given their outputs positionally: at a few points a
    # call costs more than its arithmetic
    multiply, add = np.multiply, np.add

    def evaluate(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        planes[:2] = 0.0
        planes[2:] = descending
        zz[:] = z
        for window, following in steps:
            multiply(window, pair, product)
            add(product, following, following)
        return value, slope

    return evaluate


def _starts(coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bini's starting points for the columns of coeffs, and the smallest
    nonzero start radius of each column.

    Each edge a -> b of the upper convex hull of the points (k, log|c_k|)
    gives a circle of radius (|c_a|/|c_b|)^(1/(b-a)), on which slot k starts
    at exp(2 pi i (k-a)/(b-a)) (Bini 1996), turned by b/n of a turn as in
    MPSolve (Bini and Fiorentino 2000), by the irrational _ANGLE_OFFSET to
    keep off the axes of symmetry and by a/n^2 of it to part two circles of
    one radius that rounding split from one edge.  The hull's slope over
    slot k is the smallest, over a <= k, of the steepest slope from a to any
    b > k; it falls with k, so an edge is a run of slots with one slope.
    Slots below the lowest nonzero coefficient get radius 0: exact zeros.
    """
    degree = coeffs.shape[0] - 1
    span = np.arange(1.0, degree + 1) - np.arange(degree + 1.0)[:, None]  # [a, b - 1]
    log_modulus = np.log(np.abs(coeffs))
    slope = (log_modulus[None, 1:] - log_modulus[:, None]) / span[:, :, None]
    outside = span <= 0
    slope[outside] = -np.inf  # b <= a, no edge
    # suffix maxima by doubling: [a, k] becomes the steepest slope to a b > k
    shift = 1
    while shift < degree:
        np.fmax(slope[:, :-shift], slope[:, shift:], out=slope[:, :-shift])
        shift *= 2
    slope[outside] = np.inf  # a > k
    hull = np.fmin.reduce(slope, axis=0)
    radius = np.exp(-hull)
    first = (hull[:, None] > hull).sum(axis=0)  # a: steeper slots come first
    points = (hull[:, None] == hull).sum(axis=0)  # d = b - a
    offset, index = np.arange(degree)[:, None] - first, ...  # k - a; ... is every slot
    # more slots than (k - a, a, d) triples, as in a batch: one exp per triple
    if offset.size > 2 * degree * (degree + 1) ** 2:
        table = (2 * degree, degree + 1, degree + 1)  # k - a + degree, a, d
        index = np.ravel_multi_index((offset + degree, first, points), table)
        offset, first, points = np.indices(table).reshape(3, -1) - [[degree], [0], [0]]
    roots = radius * np.exp(2j * np.pi * offset / points)[index]
    roots *= np.exp(2j * np.pi * (
        _ANGLE_OFFSET * (1 + first / degree**2) + (first + points) / degree))[index]
    return roots, np.min(np.where(radius > 0, radius, np.inf), axis=0)


def _aberth(coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Iterate each root until its step is below DEFAULT_TOL*(r+|z|), then
    freeze it; a column stops once all its roots are frozen, when one is
    non-finite, or after MAX_ITERATIONS.

    Columns are polynomials: coeffs is (degree+1, M) and the roots
    (degree, M).  r is the column's smallest nonzero start radius, so the
    rule does not depend on units.  A frozen root leaves the Horner and
    step work but still repels the moving roots of its column.  The work
    runs over the columns that have not stopped and the rows (root
    indices) that still move in one of them.  A root's steps and freeze
    depend only on its own column, and the repulsion sum adds a column's
    terms in one order whatever M is, so a column's roots do not depend on
    the other columns.  Returns the roots, the iteration at which each
    stopped, and each column's converged and non-finite flags.

    The common step, in which every working root moves, makes about 20
    numpy calls beside Horner's: the step, the hold of roots with p = 0 and
    one test that every root moved, which also shows every iterate finite.
    The flat-denominator fallback, the nudge off a critical point and the
    bookkeeping of stopped columns and rows run only in a step in which
    some root stopped or went non-finite; a zero denominator or p' = 0 at a
    moving root always makes its trial iterate non-finite.
    """
    degree, columns = coeffs.shape[0] - 1, coeffs.shape[1]
    roots, scale = _starts(coeffs)
    iterations = np.empty(roots.shape, dtype=int)
    converged = np.zeros(columns, dtype=bool)
    failed = np.zeros(columns, dtype=bool)

    active, rows = np.arange(columns), np.arange(degree)
    z, c, r = roots.copy(), coeffs, scale
    w = z  # the working rows of z, z itself while it has every row
    moving = np.ones(z.shape, dtype=bool)
    all_moving = True
    count = np.zeros(z.shape, dtype=int)
    horner = _horner(c, w.shape)
    # the reductions' own ufuncs: ndarray.any and .all wrap them in Python
    any_of, all_of = np.logical_or.reduce, np.logical_and.reduce
    for _ in range(MAX_ITERATIONS):
        p, dp = horner(w)
        newton = p / dp
        diff = w[:, None, :] - z[None, :, :]  # [i, j, m] = w_i - z_j
        # in place, the largest array; 0 where w_i and z_j coincide
        inverse = np.divide(1.0, diff, out=diff, where=diff != 0)
        # The sum over j must add a column's terms in the order numpy uses
        # for a lone polynomial, whose j axis is contiguous.  numpy sums a
        # contiguous complex axis pairwise (left to right below 4 terms) and
        # a strided one left to right, so j is summed where it lies below
        # degree 4 or when M is 1, and is copied to the last axis otherwise.
        if degree < 4 or z.shape[1] == 1:
            repulsion = np.add.reduce(inverse, 1)
        else:
            repulsion = np.add.reduce(
                np.ascontiguousarray(inverse.transpose(0, 2, 1)), 2)
        # keep the sum named: numpy multiplies into an unnamed temporary of
        # 256 KiB or more in place, without the fused multiply-add of its
        # vector loop, and a large batch would round unlike a lone polynomial
        denominator = 1.0 - newton * repulsion
        step = newton / denominator
        hold = p == 0
        if not all_moving:
            hold |= ~moving  # frozen roots stay
        np.copyto(step, 0.0, where=hold)
        trial = w - step
        relative = np.abs(step) / (r + np.abs(trial))
        count += moving
        moving = relative >= DEFAULT_TOL  # a held root's step is 0
        # relative is NaN or 0 at a non-finite iterate, so a step in which
        # every root moves is finite and stops nothing
        all_moving = all_of(moving, None)
        if not all_moving:
            finite = all_of(np.isfinite(trial), 0)
            if not all_of(finite):
                # a flat denominator, or p' = 0 on a root that is not held,
                # made its step non-finite: step by Newton's correction
                # instead, or nudge off the critical point
                np.copyto(step, newton, where=denominator == 0)
                critical = dp == 0
                nudged = any_of(critical, None)
                if nudged:
                    stalled = critical & ~hold
                    scales = np.broadcast_to(r, w.shape)[stalled]
                    step[stalled] = -DEFAULT_TOL * (scales + np.abs(w[stalled]))
                np.copyto(step, 0.0, where=hold)
                trial = w - step
                relative = np.abs(step) / (r + np.abs(trial))
                if nudged:
                    relative[stalled] = np.inf
                moving = relative >= DEFAULT_TOL
                finite = all_of(np.isfinite(trial), 0)
        w = trial
        if w.shape[0] == degree:
            z = w
        else:
            z[rows] = w
        if all_moving:
            continue

        going = any_of(moving, 0)
        keep = finite & going
        changed = not all_of(keep)
        if changed:
            stop = ~keep
            leaving = active[stop]
            roots[:, leaving] = z.compress(stop, axis=1)
            iterations[rows[:, None], leaving] = count.compress(stop, axis=1)
            converged[leaving] = finite[stop] & ~going[stop]
            failed[leaving] = ~finite[stop]
            active, r = active[keep], r[keep]
            # compress: boolean indexing on the batch axis is slower
            c, z, moving, count = (
                a.compress(keep, axis=1) for a in (c, z, moving, count))
            w = z if w.shape[0] == degree else w.compress(keep, axis=1)
            if not active.size:
                break
        if w.shape[0] > 2:
            keep = any_of(moving, 1)
            if not all_of(keep):
                # keep two rows: numpy multiplies a one-element array
                # without the fused multiply-add of its vector loop
                keep[np.flatnonzero(~keep)[: max(0, 2 - keep.sum())]] = True
                iterations[rows[~keep, None], active] = count[~keep]
                rows, w, moving, count = rows[keep], w[keep], moving[keep], count[keep]
                changed = True
        if changed:
            horner = _horner(c, w.shape)
    roots[:, active] = z
    iterations[rows[:, None], active] = count
    return roots, iterations, converged, failed


def _polish(coeffs: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Three Newton steps per root in place, then each column's largest |p/p'|."""
    horner = _horner(coeffs, z.shape)
    moving = np.ones(z.shape, dtype=bool)
    for _ in range(3):
        p, dp = horner(z)
        moving &= (dp != 0) & (p != 0)
        np.subtract(z, p / dp, out=z, where=moving)
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
    root starts on a Newton-polygon circle of its column and iterates until
    its step is below DEFAULT_TOL*(r+|root|), with r the column's smallest
    nonzero start radius, or the iteration budget runs out; a column is
    done when all its roots are, and each root then gets three Newton
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
        iterations = np.zeros((degree, columns), dtype=int)
        converged = np.ones(columns, dtype=bool)
        residuals = np.zeros(columns)
    else:
        with np.errstate(all="ignore"):
            roots, iterations, converged, failed = _aberth(coeffs)
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
        iterations=iterations,
    )
