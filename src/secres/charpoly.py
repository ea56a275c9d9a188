"""Exact characteristic polynomial det(E*I - H(lambda)) over the coupling ring.

Coefficients are exact polynomials in lambda (not truncated series), so the
discriminant of this polynomial locates the true eigenvalue-coalescence
points independent of any expansion order.  The determinant is expanded by
the Faddeev-LeVerrier recursion, which works at any dimension.  H(lambda) =
H0 + lambda*V is linear in lambda with a diagonal H0, so each lambda
polynomial matrix of the recursion is held as a float array of shape
(degree+1, D, D) whose slice l is its lambda^l coefficient matrix.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import RootFindingFailure
from .model import MatrixModel, interaction_matrix
from .roots import all_roots, roots_by_coupling
from .series import MonicPolynomial, Polynomial


def characteristic_polynomial(model: MatrixModel) -> MonicPolynomial:
    """Exact characteristic polynomial of a validated model.

    det(E*I - H) by the Faddeev-LeVerrier recursion: step k multiplies H by
    the auxiliary matrix, whose coefficient stack has k slices, and the only
    divisions are by the step counter k.  The lambda degree of p_j never
    exceeds j because each coupling contributes one factor of lambda.

    Each entry of H*aux adds its terms one at a time in ascending column m
    of H, and the trace adds the diagonal in ascending order, as a term-by-
    term product of lambda polynomials does; numpy's pairwise sums would
    round differently from eight terms on.  A coefficient that overflows to
    a non-finite value raises InvariantViolation.
    """
    dim = model.dimension
    h0 = np.asarray(model.h0_diagonal)
    v = interaction_matrix(model)
    diagonal = np.arange(dim)
    aux = np.eye(dim)[None]
    coefficients = []
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, dim + 1):
            product = np.zeros((k + 1, dim, dim))
            for m in range(dim):
                product[1:] += v[:, m, None] * aux[:, None, m]
                product[:-1, m] += h0[m] * aux[:, m]
            c = -1.0 / k * sum(product[:, d, d] for d in range(dim))
            coefficients.append(Polynomial(tuple(c.tolist())))
            product[:, diagonal, diagonal] += c[:, None]
            aux = product
    return MonicPolynomial(tuple(p.checked_finite().trimmed() for p in coefficients))


def exact_eigenvalues_at(
    cp: MonicPolynomial, lams: Sequence[complex]
) -> tuple[np.ndarray, dict[int, RootFindingFailure]]:
    """All D eigenvalues at each coupling of a grid, one sorted row each.

    The same computation as secular.eigenvalues_at, returning the same
    pair; it is kept as a separate name so that perfbench's tracer times
    the exact column as a layer of its own.
    """
    grid = np.asarray(lams)
    return roots_by_coupling(all_roots(cp.coefficients_at(grid)), grid.tolist())
