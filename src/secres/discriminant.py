"""Discriminants in the coupling ring and exceptional-point location.

For a monic polynomial p of degree N in the energy variable, the
discriminant prod_{i<j} (E_i - E_j)^2 is the determinant of the N x N
Bezout matrix of p and dp/dE, whose entries are lambda polynomials.  Roots
of the discriminant are couplings where two eigenvalues coalesce; the one
closest to the origin bounds the convergence of the underlying
perturbation series.  Exceptional points are returned as plain complex
couplings, grouped into symmetry partners (conjugates, +-lambda) by modulus;
this is the only place that grouping is done.

The discriminant of an order-K reconstruction is deliberately NOT
re-truncated at lambda^K: its small roots at full length are what converge
to the true coalescence points as K grows.
"""

from __future__ import annotations

import cmath
from functools import cache
from typing import Sequence

from .errors import (
    DegreeTooSmall, InvariantViolation, RootFindingFailure, failed_solve,
)
from .roots import all_roots
from .series import MonicPolynomial, Polynomial

# relative tolerance for grouping symmetry partners (+-lambda, conjugates)
MODULUS_TIE_TOL = 1e-12


def _det(matrix: list[list[Polynomial]]) -> Polynomial:
    """Cofactor determinant over the lambda-polynomial ring.

    The expansion runs down the rows, so a minor is fixed by the columns it
    keeps; each is computed once, N*2^N products instead of N!, in the
    order the plain expansion would use.
    """
    size = len(matrix)

    @cache
    def minor(columns: tuple[int, ...]) -> Polynomial:
        row = matrix[size - len(columns)]
        if len(columns) == 1:
            return row[columns[0]]
        total = Polynomial((0.0,))
        for position, col in enumerate(columns):
            term = row[col].mul(minor(columns[:position] + columns[position + 1:]))
            total = total - term if position % 2 else total + term
        return total

    return minor(tuple(range(size)))


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

    # ascending energy coefficients of p (monic) and of g = dp/dE
    f = p[::-1] + [Polynomial((1.0,))]
    g = [f[m + 1].scale(float(m + 1)) for m in range(degree)] + [Polynomial((0.0,))]

    @cache
    def product(a: int, b: int) -> Polynomial:
        return f[a].mul(g[b])  # each one recurs in many entries

    # Bezout matrix: (f(x)g(y) - f(y)g(x)) / (x - y) = sum B[i][j] x^i y^j
    bezout = []
    for i in range(degree):
        row = []
        for j in range(degree):
            entry = Polynomial((0.0,))
            for k in range(min(i, degree - 1 - j) + 1):
                entry = entry + product(j + k + 1, i - k) - product(i - k, j + k + 1)
            row.append(entry)
        bezout.append(row)

    disc = _det(bezout).checked_finite().trimmed()
    if disc.degree > degree_cap:
        raise InvariantViolation(
            f"discriminant degree {disc.degree} exceeds cap {degree_cap}"
        )
    return disc


def exceptional_points(disc: Polynomial) -> list[list[complex]]:
    """All coalescence couplings from a discriminant polynomial.

    Roots come from all_roots, whose final Newton steps are the only
    refinement.  They are returned as groups of symmetry partners sharing a
    modulus (within MODULUS_TIE_TOL), groups in ascending modulus and the
    members of each group in ascending principal argument.  A member within
    that tolerance of an image of the group's nearest_exceptional_point
    pick z is replaced by it, so partners share one modulus bit for bit:
    the coefficients are real, so z-bar is an image, and so are -z and
    -z-bar when every odd coefficient is 0.
    """
    if disc.degree < 1:
        raise DegreeTooSmall(f"no exceptional point exists: a discriminant of "
                             f"lambda degree {disc.degree} has no root")
    result = all_roots(disc.coefficients)
    if not result.converged:
        raise RootFindingFailure(
            failed_solve("discriminant root iteration", "", result.max_residual))
    groups: list[list[complex]] = []
    for z in sorted(result.roots[:, 0].tolist(),
                    key=lambda z: (abs(z), cmath.phase(z))):
        if groups and abs(abs(z) - abs(groups[-1][0])) <= MODULUS_TIE_TOL * max(
            1.0, abs(groups[-1][0])
        ):
            groups[-1].append(z)
        else:
            groups.append([z])
    even = not any(disc.coefficients[1::2])
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

    groups is the output of exceptional_points, so groups[0] holds the
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
