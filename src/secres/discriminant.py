"""Discriminants in the coupling ring and exceptional-point location.

For a monic polynomial p of degree N in the energy variable, the
discriminant prod_{i<j} (E_i - E_j)^2 is the determinant of the N x N
Bezout matrix of p and dp/dE, whose entries are lambda polynomials.  Roots
of the discriminant are couplings where two eigenvalues coalesce; the one
closest to the origin bounds the convergence of the underlying
perturbation series.

The discriminant of an order-K reconstruction is deliberately NOT
re-truncated at lambda^K: its small roots at full length are what converge
to the true coalescence points as K grows.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Sequence

from .errors import DegreeTooSmall, EmptyList, RootFindingFailure
from .roots import all_roots
from .series import MonicPolynomial, Polynomial

EXACT_SOURCE = "exact"
# relative tolerance for grouping symmetry partners (+-lambda, conjugates)
MODULUS_TIE_TOL = 1e-12


def reconstruction_source(order: int) -> str:
    return f"order-{order}"


@dataclass(frozen=True)
class ExceptionalPointEstimate:
    """A coupling value where two eigenvalues coalesce.

    source is "exact" for the true characteristic polynomial or "order-K"
    for an order-K reconstruction; residual is |discriminant(lambda_value)|;
    multiplicity counts the symmetry partners sharing this modulus.
    """

    lambda_value: complex
    modulus: float
    source: str
    residual: float
    multiplicity: int = 1


def _det(matrix: list[list[Polynomial]]) -> Polynomial:
    """Cofactor determinant over the lambda-polynomial ring."""
    size = len(matrix)
    if size == 1:
        return matrix[0][0]
    total = Polynomial((0.0,))
    for col in range(size):
        entry = matrix[0][col]
        if entry.is_zero():
            continue
        minor = [row[:col] + row[col + 1:] for row in matrix[1:]]
        term = entry.mul(_det(minor))
        total = total + (term.scale(-1.0) if col % 2 else term)
    return total


def discriminant(poly: MonicPolynomial) -> Polynomial:
    """Discriminant with respect to the energy variable, as a lambda polynomial.

    The coefficients p_j and the result are trimmed, since their degrees
    decide the Bezout entries and the number of exceptional points.
    """
    degree = poly.degree
    if degree < 2:
        raise DegreeTooSmall(
            f"discriminant needs energy degree >= 2, got {degree}"
        )
    p = [q.trimmed() for q in poly.coefficients]
    degree_cap = degree * (degree - 1) * max(q.degree for q in p)

    # ascending energy coefficients of p (monic) and of g = dp/dE
    f = p[::-1] + [Polynomial((1.0,))]
    g = [f[m + 1].scale(float(m + 1)) for m in range(degree)] + [Polynomial((0.0,))]

    # Bezout matrix: (f(x)g(y) - f(y)g(x)) / (x - y) = sum B[i][j] x^i y^j
    bezout = []
    for i in range(degree):
        row = []
        for j in range(degree):
            entry = Polynomial((0.0,))
            for k in range(min(i, degree - 1 - j) + 1):
                entry = (
                    entry
                    + f[j + k + 1].mul(g[i - k])
                    - f[i - k].mul(g[j + k + 1])
                )
            row.append(entry)
        bezout.append(row)

    disc = _det(bezout).trimmed()
    if disc.degree > degree_cap:
        raise ValueError(
            f"discriminant degree {disc.degree} exceeds cap {degree_cap}"
        )
    return disc


def exceptional_points(
    disc: Polynomial, source: str
) -> list[ExceptionalPointEstimate]:
    """All coalescence couplings from a discriminant polynomial.

    Roots come from all_roots, whose final Newton steps are the only
    refinement; they are grouped into modulus classes (symmetry partners)
    and returned sorted by ascending modulus with ties broken by ascending
    principal argument.
    """
    if disc.degree < 1:
        raise DegreeTooSmall(
            f"discriminant must have lambda degree >= 1, got {disc.degree}"
        )
    result = all_roots(disc.coefficients)
    if not result.converged:
        raise RootFindingFailure(
            f"discriminant root iteration did not converge "
            f"(max residual {result.max_residual:.3e})",
            roots=result.roots,
            max_residual=result.max_residual,
        )
    roots = sorted(result.roots, key=lambda z: (abs(z), cmath.phase(z)))

    # group symmetry partners by modulus
    classes: list[list[complex]] = []
    for z in roots:
        if classes and abs(abs(z) - abs(classes[-1][0])) <= MODULUS_TIE_TOL * max(
            1.0, abs(classes[-1][0])
        ):
            classes[-1].append(z)
        else:
            classes.append([z])

    points = []
    for group in classes:
        for z in sorted(group, key=cmath.phase):
            points.append(
                ExceptionalPointEstimate(
                    lambda_value=z,
                    modulus=abs(z),
                    source=source,
                    residual=abs(disc.evaluate(z)),
                    multiplicity=len(group),
                )
            )
    return points


def nearest_exceptional_point(
    points: Sequence[ExceptionalPointEstimate],
) -> ExceptionalPointEstimate:
    """Minimum-modulus estimate, represented canonically.

    Among symmetry partners sharing the smallest modulus (within the tie
    tolerance) the representative is the one with principal argument in
    [0, pi), i.e. the upper-half-plane or positive-real member.
    """
    if not points:
        raise EmptyList("no exceptional points to choose from")
    smallest = min(p.modulus for p in points)
    group = [
        p
        for p in points
        if p.modulus - smallest <= MODULUS_TIE_TOL * max(1.0, smallest)
    ]
    canonical = [p for p in group if 0.0 <= cmath.phase(p.lambda_value) < cmath.pi]
    pool = canonical if canonical else group
    return min(pool, key=lambda p: cmath.phase(p.lambda_value))
