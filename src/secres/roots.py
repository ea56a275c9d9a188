"""All complex roots of polynomials via simultaneous iteration.

Aberth-Ehrlich iteration on every root at once avoids deflation error and
needs no external eigensolver.  Each step updates all roots from the
previous iterate (Aberth 1973; Bini 1996), so one numpy pass serves every
root of a whole batch of polynomials, each of its own degree, stored as the
columns of a coefficient array.  The batch stays on the last, contiguous
axis, from (top+1, M) coefficients to (top, M) roots: numpy's inner loops
run fastest along the long axis, and a sweep solves 1001 polynomials of two
or three roots at once.  Starting points sit on Bini's circles, one per
edge of the Newton polygon, computed afresh by each call, so each
polynomial is solved at its own scale whatever the units or the span of
its coefficients (Bini 1996).  Each root stops once its own step is small
relative to that scale; a stopped root no longer moves but still repels
the others, and a polynomial is done when all its roots have stopped (as in
MPSolve; Bini and Fiorentino 2000).  Multiple roots come back as
near-coincident simple roots.  Clustering them and wording a failed solve
are the caller's job.

p and p' come from Horner's rule on a stack of planes [p', p, c_n, ..., c_0],
each shaped like the roots.  A window of two planes slides down the stack:
one multiply by [z, z] and one add into the next window give p'z + p and
pz + c_k together, so each coefficient costs two numpy calls, not four.
These are the operations of the textbook loop, in its order and from the
same two zero planes, so p and p' are bit-identical to that loop run over
two or more points, and zero coefficients above a column's degree leave
both at +0.0.  Every shape, a single point included, goes through numpy's
vector loop, so a polynomial's roots are bit-identical whether it is solved
alone or as a column of a batch, at every degree and size.
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

    roots is (top, M): column m holds the d_m roots of polynomial m, NaN
    below them up to the largest degree, and M is 1 for one polynomial.
    max_residual is the largest Newton-correction magnitude |p(z)/p'(z)|
    over the returned roots, which estimates the distance to the true root,
    and converged holds when every column converged.  column_converged and
    column_residual give each column's flag and largest residual, as arrays
    of length M.  iterations is (top, M): the Aberth iteration at which
    each root stopped, or MAX_ITERATIONS if it was still moving there, and
    0 in the NaN rows.
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


def _layout(degrees: np.ndarray, rows: np.ndarray):
    """(d, s, e, n) of each run s:e of columns of one degree d, in the
    caller's order, n its working rows below d, and the mask of working
    slots at or above their column's degree, or None where there are none."""
    bounds = [0, *(np.flatnonzero(degrees[1:] != degrees[:-1]) + 1).tolist(), len(degrees)]
    firsts = degrees[bounds[:-1]].tolist()
    groups = list(zip(firsts, bounds, bounds[1:], rows.searchsorted(firsts).tolist()))
    return groups, (rows[:, None] >= degrees if rows[-1] >= min(firsts) else None)


def _repulsion(w: np.ndarray, z: np.ndarray) -> np.ndarray:
    """sum_j 1/(w_i - z_j) over all roots z (d, M), skipping z_j = w_i."""
    diff = w[:, None, :] - z[None, :, :]  # [i, j, m] = w_i - z_j
    # in place, the largest array; 0 where w_i and z_j coincide
    inverse = np.divide(1.0, diff, out=diff, where=diff != 0)
    # The sum over j must add a column's terms in the order numpy uses for
    # a lone polynomial, whose j axis is contiguous.  numpy sums a
    # contiguous complex axis pairwise (left to right below 4 terms) and a
    # strided one left to right, so j is summed where it lies below degree
    # 4 or when M is 1, and is copied to the last axis otherwise.
    if z.shape[0] < 4 or z.shape[1] == 1:
        return np.add.reduce(inverse, 1)
    return np.add.reduce(np.ascontiguousarray(inverse.transpose(0, 2, 1)), 2)


def _aberth(coeffs: np.ndarray, degrees: np.ndarray) -> tuple[np.ndarray, ...]:
    """Iterate each root until its step is below DEFAULT_TOL*(r+|z|), then
    freeze it; a column stops once all its roots are frozen, when one is
    non-finite, or after MAX_ITERATIONS.

    Columns are polynomials of degree d_m >= 1: coeffs is (top+1, M) and
    the roots (top, M), whose rows d_m and up in column m, its padding, are
    held at 0 and left out of the tests of which roots move.  r is the
    column's smallest nonzero start radius, so the rule does not depend on
    units.  A frozen root leaves the Horner and step work but still repels
    the moving roots of its column.  The work runs over the columns that
    have not stopped and the rows (root indices) that still move in one of
    them.  A root's steps and freeze depend only on its own column, and
    each run of columns of one degree sums its repulsion over that degree
    in one order whatever M is, so a column's roots do not depend on the
    other columns.  Returns the roots, the iteration at which each stopped,
    and each column's converged and non-finite flags.

    The common step, in which every working root moves, makes about 20
    numpy calls beside Horner's and the repulsion's: the step, the hold of
    roots with p = 0 and one test that every root moved, which also shows
    every iterate finite.  The flat-denominator fallback, the nudge off a
    critical point and the bookkeeping of stopped columns and rows run only
    in a step in which some root stopped or went non-finite; a zero
    denominator or p' = 0 at a moving root always makes its trial iterate
    non-finite.
    """
    top, columns = coeffs.shape[0] - 1, coeffs.shape[1]
    rows = np.arange(top)
    groups, pad = _layout(degrees, rows)
    roots, scale = np.zeros((top, columns), dtype=complex), np.empty(columns)
    for d, s, e, _ in groups:
        roots[:d, s:e], scale[s:e] = _starts(np.ascontiguousarray(coeffs[:d + 1, s:e]))
    iterations = np.empty(roots.shape, dtype=int)
    converged = np.zeros(columns, dtype=bool)
    failed = np.zeros(columns, dtype=bool)

    active = np.arange(columns)
    z, c, r = roots.copy(), coeffs, scale
    w = z  # the working rows of z, z itself while it has every row
    moving = np.ones(z.shape, dtype=bool) if pad is None else ~pad
    all_moving = True
    count = np.zeros(z.shape, dtype=int)
    horner = _horner(c, w.shape)
    # the reductions' own ufuncs: ndarray.any and .all wrap them in Python
    any_of, all_of = np.logical_or.reduce, np.logical_and.reduce
    for _ in range(MAX_ITERATIONS):
        p, dp = horner(w)
        newton = p / dp
        if len(groups) == 1:  # a padding slot's repulsion is never used
            repulsion = _repulsion(w, z[:groups[0][0]])
        else:
            repulsion = np.zeros(w.shape, dtype=complex)
            for d, s, e, n in groups:
                repulsion[:n, s:e] = _repulsion(w[:n, s:e], z[:d, s:e])
        # keep the sum named: numpy multiplies into an unnamed temporary of
        # 256 KiB or more in place, without the fused multiply-add of its
        # vector loop, and a large batch would round unlike a lone polynomial
        denominator = 1.0 - newton * repulsion
        step = newton / denominator
        hold = p == 0 if pad is None else (p == 0) | pad
        if not all_moving:
            hold |= ~moving  # frozen roots stay
        np.copyto(step, 0.0, where=hold)
        trial = w - step
        relative = np.abs(step) / (r + np.abs(trial))
        count += moving
        moving = relative >= DEFAULT_TOL  # a held root's step is 0
        # relative is NaN or 0 at a non-finite iterate, so a step in which
        # every root moves is finite and stops nothing
        all_moving = all_of(moving if pad is None else moving | pad, None)
        if not all_moving:
            finite = all_of(np.isfinite(trial), 0)
            if not all_of(finite):
                # a flat denominator, or p' = 0 on a root that is not held,
                # made its step non-finite: step by Newton's correction
                # instead, or nudge off the critical point
                np.copyto(step, newton, where=denominator == 0)
                stalled = (dp == 0) & ~hold
                nudged = any_of(stalled, None)
                if nudged:
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
        if w.shape[0] == top:
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
            active, r, degrees = active[keep], r[keep], degrees[keep]
            # compress: boolean indexing on the batch axis is slower
            c, z, moving, count = (
                a.compress(keep, axis=1) for a in (c, z, moving, count))
            w = z if w.shape[0] == top else w.compress(keep, axis=1)
            if not active.size:
                break
            c = c[:degrees.max() + 1]  # zero rows above every column's degree
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
            # a lone run with no padding stays so, and reads only its degree
            if len(groups) > 1 or pad is not None:
                groups, pad = _layout(degrees, rows)
    roots[:, active] = z
    iterations[rows[:, None], active] = count
    return roots, iterations, converged, failed


def _polish(coeffs: np.ndarray, z: np.ndarray, degrees: np.ndarray) -> tuple:
    """Three Newton steps per root in place, padding slots held, then each
    column's largest |p/p'| over its own rows."""
    horner = _horner(coeffs, z.shape)
    pad = np.arange(len(z))[:, None] >= degrees
    moving = ~pad
    for _ in range(3):
        p, dp = horner(z)
        moving &= (dp != 0) & (p != 0)
        np.subtract(z, p / dp, out=z, where=moving)
    p, dp = horner(z)
    scale = np.where(dp != 0, np.abs(dp), np.abs(coeffs[degrees, np.arange(len(degrees))]))
    residual = np.where(scale != 0, np.abs(p) / scale, np.abs(p))
    return z, residual.max(axis=0, where=~pad, initial=0.0)


def all_roots(coefficients: Sequence) -> RootSet:
    """Find all roots of sum c_k x^k (ascending coefficients).

    Each c_k is a number, or an array of length M for a batch of M
    polynomials, each of the degree of its highest nonzero coefficient and
    solved, bit for bit, as it would be alone (see RootSet).  A zero column
    raises a ValueError, and an empty batch (M = 0) returns
    (len(coefficients) - 1, 0) roots.  Each root starts on a Newton-polygon
    circle of its column and iterates until its step is below
    DEFAULT_TOL*(r+|root|), with r the column's smallest nonzero start
    radius, or the iteration budget runs out; a column is done when all its
    roots are, and each root then gets three Newton polishing steps.  A
    non-converged column returns its best iterates with converged=False
    rather than raising; one that reaches a non-finite iterate stops there,
    with residual NaN.
    """
    # one polynomial per column from here on, a single one included
    coeffs = np.array(coefficients, dtype=complex).reshape(len(coefficients), -1)
    nonzero = coeffs != 0
    if not nonzero.any(axis=0).all():
        raise ValueError("cannot find roots of the zero polynomial")
    degrees = len(coeffs) - 1 - nonzero[::-1].argmax(axis=0)
    top = int(degrees.max()) if degrees.size else len(coeffs) - 1
    coeffs = coeffs[: top + 1]
    pad = np.arange(top)[:, None] >= degrees  # the root slots of no root
    np.copyto(coeffs[1:], 0.0, where=pad)  # +0.0 above each degree, never -0.0

    roots = np.empty((top, len(degrees)), dtype=complex)
    iterations = np.zeros(roots.shape, dtype=int)
    converged = np.ones(len(degrees), dtype=bool)
    residuals = np.zeros(len(degrees))
    # a constant column has no roots; if none is, solve every column uncopied
    solve = slice(None) if degrees.all() else degrees > 0
    c, d = coeffs[:, solve], degrees[solve]
    if d.size:
        with np.errstate(all="ignore"):
            z, iterations[:, solve], converged[solve], failed = _aberth(c, d)
            residual, finite = np.full(d.size, np.nan), ~failed
            z[:, finite], residual[finite] = _polish(c[:, finite], z[:, finite], d[finite])
        roots[:, solve], residuals[solve] = z, residual
    np.copyto(roots, np.nan, where=pad)

    return RootSet(
        roots=roots,
        max_residual=float(residuals.max(initial=0.0)),
        converged=bool(converged.all()),
        column_converged=converged,
        column_residual=residuals,
        iterations=iterations,
    )
