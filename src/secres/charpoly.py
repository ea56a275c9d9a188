"""Exact characteristic polynomial det(E*I - H(lambda)) over the coupling ring.

Coefficients are exact polynomials in lambda (not truncated series), so the
discriminant of this polynomial locates the true eigenvalue-coalescence
points independent of any expansion order.  The determinant is expanded by
the Faddeev-LeVerrier recursion, which works at any dimension.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import RootFindingFailure
from .model import MatrixModel
from .roots import all_roots, roots_by_coupling
from .series import MonicPolynomial, Polynomial


def _symbolic_hamiltonian(model: MatrixModel) -> list[list[Polynomial]]:
    """H(lambda) with entries in the lambda-polynomial ring."""
    dim = model.dimension
    zero = Polynomial((0.0,))
    matrix = [[zero for _ in range(dim)] for _ in range(dim)]
    for i in range(dim):
        matrix[i][i] = Polynomial((model.h0_diagonal[i],))
    for i, j, value in model.interaction:
        entry = Polynomial((0.0, value))
        matrix[i - 1][j - 1] = entry
        matrix[j - 1][i - 1] = entry
    return matrix


def _poly_matmul(
    a: list[list[Polynomial]], b: list[list[Polynomial]]
) -> list[list[Polynomial]]:
    dim = len(a)
    out = []
    for i in range(dim):
        row = []
        for j in range(dim):
            acc = Polynomial((0.0,))
            for k in range(dim):
                if a[i][k].is_zero() or b[k][j].is_zero():
                    continue
                acc = acc + a[i][k].mul(b[k][j])
            row.append(acc)
        out.append(row)
    return out


def characteristic_polynomial(model: MatrixModel) -> MonicPolynomial:
    """Exact characteristic polynomial of a validated model.

    det(E*I - H) by the Faddeev-LeVerrier recursion: all ring operations
    are additions and multiplications of lambda polynomials, and the only
    divisions are by the integer step counter.  The lambda degree of p_j
    never exceeds j because each off-diagonal coupling entry contributes at
    most one factor of lambda per determinant term.
    """
    dim = model.dimension
    h = _symbolic_hamiltonian(model)
    zero = Polynomial((0.0,))

    aux = [[Polynomial((1.0,)) if i == j else zero for j in range(dim)]
           for i in range(dim)]
    coefficients = []
    product = _poly_matmul(h, aux)
    trace = product[0][0]
    for d in range(1, dim):
        trace = trace + product[d][d]
    c = trace.scale(-1.0)
    coefficients.append(c)
    for k in range(2, dim + 1):
        for d in range(dim):
            for e in range(dim):
                aux[d][e] = product[d][e] + (c if d == e else zero)
        product = _poly_matmul(h, aux)
        trace = product[0][0]
        for d in range(1, dim):
            trace = trace + product[d][d]
        c = trace.scale(-1.0 / k)
        coefficients.append(c)
    return MonicPolynomial(tuple(c.trimmed() for c in coefficients))


def exact_eigenvalues_at(
    cp: MonicPolynomial, lams: Sequence[complex]
) -> tuple[np.ndarray, dict[int, RootFindingFailure]]:
    """All D eigenvalues at each coupling of a grid, one sorted row each.

    One batch solve covers the grid.  Returns the (len(lams), D) roots,
    each row by real part, ties by imaginary part, and the
    RootFindingFailure of each coupling whose roots did not converge,
    keyed by its index in lams.
    """
    grid = np.asarray(lams)
    ascending = [cp.coefficients[cp.degree - 1 - i].evaluate(grid)
                 for i in range(cp.degree)]
    ascending.append(np.ones(grid.shape))
    return roots_by_coupling(all_roots(ascending), grid.tolist())
