"""Exact reference for H(lambda) = H0 + lambda*V, with no expansion order.

det(E*I - H(lambda)) has exact polynomials in lambda as coefficients.
Faddeev-LeVerrier expands it at any dimension, each lambda polynomial matrix
held as a float (degree+1, D, D) array whose slice l is its lambda^l
coefficient matrix; the charpoly command prints it.  The exact results skip
the polynomial, as its roots and its discriminant's lose digits: eigenvalues
on a real grid come from one batched eigvalsh of the real symmetric
H(lambda), and every exceptional point from one eigvals of a pencil built
from h0 and V, so the Bezout discriminant of the charpoly feeds no command.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .discriminant import partner_groups
from .errors import DegreeTooSmall, InvariantViolation
from .model import MatrixModel, interaction_matrix
from .roots import all_roots  # noqa: F401  perfbench/tracer.py wraps this binding
from .series import MonicPolynomial, Polynomial

INFINITE_EP_TOL = 1e-6  # relative: exact_exceptional_points


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


def exact_exceptional_points(model: MatrixModel) -> list[list[complex]]:
    """Every exceptional point of a model, as partner_groups, by one eigvals.

    K(lambda) X = [H(lambda), X] maps each X = E_ij - E_ji, i < j, to a
    symmetric matrix, and K^T K there has eigenvalues (E_i - E_j)^2, so
    det(A2 + lambda A1 + lambda^2 A0) is the discriminant: A2 =
    diag((h_i - h_j)^2), and A1 is built from those differences, not from
    h0.  The eigenvalues mu = 1/lambda of the monic companion matrix at or
    below INFINITE_EP_TOL times the largest are infinite lambda, dropped.
    """
    dim = model.dimension
    if dim < 2:
        raise DegreeTooSmall(f"no exceptional point exists: energy degree {dim} "
                             f"has fewer than 2 eigenvalues to meet")
    h0, v = np.asarray(model.h0_diagonal), interaction_matrix(model)
    i, j = np.triu_indices(dim, 1)
    n, d = len(i), h0[i] - h0[j]
    x = np.zeros((n, dim, dim))
    x[range(n), i, j], x[range(n), j, i] = 1.0, -1.0
    k1 = (v @ x - x @ v).reshape(n, -1)  # K1 X = [V, X]; K0 X = d (E_ij + E_ji)
    # halved, as X.X = 2: A2 = d^2, A1 = a1 + a1^T and A0 = k1 k1^T / 2
    a1 = d[:, None] * k1[:, i * dim + j].T
    companion = np.eye(2 * n, k=n)
    with np.errstate(over="ignore", invalid="ignore"):
        companion[n:] = np.hstack([k1 @ k1.T / -2.0, -(a1 + a1.T)]) / (d * d)[:, None]
    if not np.isfinite(companion).all():
        raise InvariantViolation("non-finite exact pencil entry")
    mu = np.linalg.eigvals(companion)
    mu = mu[np.abs(mu) > INFINITE_EP_TOL * np.abs(mu).max()]
    if not mu.size:
        raise DegreeTooSmall("no exceptional point exists: a discriminant of "
                             "lambda degree 0 has no root")
    return partner_groups((1.0 / mu).tolist())


def eigenvalue_gap(model: MatrixModel, lam: complex) -> float:
    """min_{i<j} |E_i - E_j| / max |E| over the eigenvalues of H(lambda), or 0
    where every one is 0; off an EP by e, it grows like sqrt(e)."""
    e = np.linalg.eigvals(np.diag(np.asarray(model.h0_diagonal, complex))
                          + lam * interaction_matrix(model))
    gaps = np.abs(e[:, None] - e)[np.triu_indices(len(e), 1)]
    return float(gaps.min() / (np.abs(e).max() or 1.0))
