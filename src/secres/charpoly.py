"""Exact reference for H(lambda) = H0 + lambda*V, with no expansion order.

det(E*I - H(lambda)) has exact polynomials in lambda as coefficients, so its
discriminant locates the true eigenvalue-coalescence points.  Faddeev-LeVerrier
expands it at any dimension, each lambda polynomial matrix held as a float
(degree+1, D, D) array whose slice l is its lambda^l coefficient matrix.
Eigenvalues on a real grid skip the polynomial: one batched eigvalsh of the
real symmetric H(lambda) is backward stable where its roots lose digits.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .model import MatrixModel, interaction_matrix
from .roots import all_roots  # noqa: F401  perfbench/tracer.py wraps this binding
from .series import MonicPolynomial, Polynomial


def characteristic_polynomial(model: MatrixModel) -> MonicPolynomial:
    """Exact characteristic polynomial of a model.

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
    model: MatrixModel, lams: Sequence[float]
) -> tuple[np.ndarray, dict[int, str]]:
    """Ascending eigenvalues of H(lambda) = diag(h0) + lambda*V at each real
    coupling, by one batched eigvalsh.  Rows with a non-finite eigenvalue, nan
    where the matrix overflows (LAPACK may reject it), key messages naming
    their coupling."""
    with np.errstate(over="ignore", invalid="ignore"):
        stack = np.multiply.outer(np.asarray(lams, float), interaction_matrix(model))
        stack += np.diag(model.h0_diagonal)
    finite = np.isfinite(stack).all(axis=(1, 2))
    eigenvalues = np.full(stack.shape[:2], np.nan)
    eigenvalues[finite] = np.linalg.eigvalsh(stack[finite])
    failing = np.flatnonzero(~np.isfinite(eigenvalues).all(axis=1)).tolist()
    return eigenvalues, {index: f"non-finite eigenvalue at lambda={float(lams[index])!r}"
                         for index in failing}
