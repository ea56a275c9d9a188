"""Discriminants of energy polynomials and exceptional-point location.

For a monic polynomial p of degree N in the energy variable, the
discriminant prod_{i<j} (E_i - E_j)^2 is the determinant of the N x N
Bezout matrix of p and dp/dE, whose entries are lambda polynomials.  Roots
of the discriminant are couplings where two eigenvalues coalesce; the one
closest to the origin bounds the convergence of the underlying
perturbation series.  Exceptional points are returned as plain complex
couplings, grouped into symmetry partners (conjugates, +-lambda) by modulus;
this is the only place that grouping is done.

The Bezout entries and the cofactor expansion run on float arrays with the
coefficients on the last axis, every polynomial padded with +0.0, so a sum
can differ from the term-by-term expansion's only in the sign of a zero.
No product reads that sign (see series.products), and every entry and
minor reaches the result as a factor of a product, so only the last
alternating sum can differ.  On every polynomial the tests compare, it
differs only in zeros past the last nonzero coefficient, which trimmed()
drops: the discriminant is the expansion's bit for bit.

The discriminant of an order-K reconstruction is deliberately NOT
re-truncated at lambda^K: its small roots at full length are what converge
to the true coalescence points as K grows.
"""

from __future__ import annotations

import cmath
from itertools import combinations
from typing import Sequence

import numpy as np

from .errors import (
    DegreeTooSmall, InvariantViolation, RootFindingFailure, failed_solve,
)
from .roots import all_roots
from .series import MonicPolynomial, Polynomial, products

# relative tolerance for grouping symmetry partners (+-lambda, conjugates)
MODULUS_TIE_TOL = 1e-12


def _bezout(p: list[Polynomial]) -> np.ndarray:
    """Bezout matrix of p and dp/dE: entries B[i, j, :]."""
    degree = len(p)
    # ascending energy coefficients of p (monic), one row each and padded
    # with +0.0, then the zero polynomial; g = dp/dE takes rows 1 on
    f = [q.coefficients for q in reversed(p)] + [(1.0,), (0.0,)]
    width = max(map(len, f))
    f = np.array([c + (0.0,) * (width - len(c)) for c in f])
    g = np.arange(1.0, degree + 2)[:, None] * f[1:]
    product = products(f[:-1, None], g)  # every product f[a] g[b]

    # (f(x)g(y) - f(y)g(x)) / (x - y) = sum B[i][j] x^i y^j, where B[i][j]
    # starts from (0.0,), adds f[j+k+1] g[i-k] and subtracts f[i-k] g[j+k+1]
    # for k = 0, 1, ... while k <= i and j + k < N: at step k, the block
    # i >= k, j < N - k.  Step 0 starts from the product itself.
    entries = product[1:, :degree].transpose(1, 0, 2) - product[:degree, 1:]
    for k in range(1, degree):
        block = entries[k:, :degree - k]
        np.add(block, product[k + 1:, :degree - k].transpose(1, 0, 2), out=block)
        np.subtract(block, product[:degree - k, k + 1:], out=block)
    return entries


def _expand(entries: np.ndarray) -> np.ndarray:
    """Coefficients of the cofactor determinant of Bezout entries.

    The expansion runs down the rows, so a minor is fixed by the columns it
    keeps; the minors of one size come from one batch of products and one
    alternating sum over positions, N*2^(N-1) - N products in all, each in
    the order the plain expansion would use.
    """
    size = len(entries)
    minors = entries[-1]
    kept = [(c,) for c in range(size)]
    for count in range(2, size + 1):
        index = {columns: n for n, columns in enumerate(kept)}
        kept = list(combinations(range(size), count))
        columns = np.array(kept)
        rest = np.array([[index[c[:p] + c[p + 1:]] for p in range(count)] for c in kept])
        terms = products(entries[size - count, columns], minors[rest])
        minors = terms[:, 0] - terms[:, 1]
        for position in range(2, count):
            operation = np.subtract if position % 2 else np.add
            operation(minors, terms[:, position], out=minors)
    return minors[0]


def discriminant(poly: MonicPolynomial) -> Polynomial:
    """Discriminant with respect to the energy variable, as a lambda polynomial.

    The coefficients p_j and the result are trimmed, since their degrees
    decide the Bezout entries and the number of exceptional points.  A
    result with a non-finite coefficient raises InvariantViolation.
    """
    degree = poly.degree
    if degree < 2:
        raise DegreeTooSmall(f"no exceptional point exists: energy degree {degree} "
                             f"has fewer than 2 eigenvalues to meet")
    p = [q.trimmed() for q in poly.coefficients]
    degree_cap = degree * (degree - 1) * max(q.degree for q in p)
    with np.errstate(over="ignore", invalid="ignore"):
        coefficients = _expand(_bezout(p))
    disc = Polynomial(tuple(coefficients.tolist())).checked_finite().trimmed()
    if disc.degree > degree_cap:
        raise InvariantViolation(
            f"discriminant degree {disc.degree} exceeds cap {degree_cap}"
        )
    return disc


def exceptional_points(discs: Sequence[Polynomial]) -> list[list[list[complex]]]:
    """All coalescence couplings of each discriminant polynomial.

    One all_roots call, whose final Newton steps are the only refinement,
    solves them all; the first, in order, that is constant or did not
    converge raises DegreeTooSmall or RootFindingFailure.  The roots of
    each come back as partner_groups: the coefficients are real, so z-bar
    is an image, and -z and -z-bar are too when every odd coefficient is 0.
    """
    solved = [disc.coefficients for disc in discs if disc.degree >= 1]
    if solved:
        columns = np.zeros((max(map(len, solved)), len(solved)))
        for m, coefficients in enumerate(solved):
            columns[:len(coefficients), m] = coefficients
        result = all_roots(columns)
    reports: list[list[list[complex]]] = []
    for disc in discs:
        if disc.degree < 1:
            raise DegreeTooSmall(f"no exceptional point exists: a discriminant of "
                                 f"lambda degree {disc.degree} has no root")
        m = len(reports)  # the column of disc: each disc before it has one
        if not result.column_converged[m]:
            raise RootFindingFailure(failed_solve(
                "discriminant root iteration", "", result.column_residual[m].item()))
        roots = result.roots[:np.flatnonzero(disc.coefficients)[-1], m].tolist()
        reports.append(partner_groups(roots, not any(disc.coefficients[1::2])))
    return reports


def partner_groups(roots: Sequence[complex], even: bool) -> list[list[complex]]:
    """Roots as groups of symmetry partners sharing a modulus (within
    MODULUS_TIE_TOL), groups in ascending modulus and the members of each
    group in ascending principal argument.  A member within that tolerance
    of an image of the group's nearest_exceptional_point pick z, which are
    z-bar and, if even, -z and -z-bar, is replaced by it, so partners share
    one modulus bit for bit."""
    groups: list[list[complex]] = []
    for z in sorted(roots, key=lambda z: (abs(z), cmath.phase(z))):
        if groups and abs(abs(z) - abs(groups[-1][0])) <= MODULUS_TIE_TOL * max(
            1.0, abs(groups[-1][0])
        ):
            groups[-1].append(z)
        else:
            groups.append([z])
    for group in groups:
        group.sort(key=cmath.phase)
        z = nearest_exceptional_point([group])
        images = (z, z.conjugate()) + ((-z, -z.conjugate()) if even else ())
        for i, member in enumerate(group):
            image = min(images, key=lambda w: abs(w - member))
            if abs(image - member) <= MODULUS_TIE_TOL * max(1.0, abs(z)):
                group[i] = image
        group.sort(key=cmath.phase)
    return groups


def nearest_exceptional_point(groups: Sequence[list[complex]]) -> complex:
    """Minimum-modulus coupling, represented canonically.

    groups is partner_groups output, so groups[0] holds the
    symmetry partners of smallest modulus.  The representative is the first
    of them with principal argument in [0, pi), i.e. the upper-half-plane or
    positive-real member, or groups[0][0] if there is none.
    """
    if not groups:
        raise ValueError("no exceptional points to choose from")
    for z in groups[0]:
        if 0.0 <= cmath.phase(z) < cmath.pi:
            return z
    return groups[0][0]
