"""Rayleigh-Schrodinger eigenvalue series to arbitrary order.

For a nondegenerate unperturbed state n of H0 + lambda*V the expansion uses
intermediate normalization: the wavefunction correction vectors x^(k) keep a
unit component on state n at order zero and a vanishing one at every higher
order.  With e_0 = h0[n] the recursion is

    e_k      = (V x^(k-1))_n
    x^(k)_m  = [ (V x^(k-1))_m - sum_{j=1}^{k-1} e_j x^(k-j)_m ] / (e_0 - h0[m])

for m != n, and x^(k)_n = 0 for k >= 1.  The recursion always runs over the
full basis regardless of the model-space choice, because eigenvectors mix
model-space and complement-space states.

Near-degenerate unperturbed energies are deliberately NOT special-cased:
series with poor convergence are exactly the input the downstream secular
resummation is built to handle.
"""

from __future__ import annotations

import numpy as np

from .errors import IndexOutOfRange
from .model import MatrixModel, interaction_matrix
from .series import Polynomial


def perturbation_series(
    model: MatrixModel, state_index: int, order: int
) -> Polynomial:
    """Order-K eigenvalue expansion for one unperturbed state (1-based index).

    A coefficient that overflows to a non-finite value raises InvariantViolation.
    """
    if not (1 <= state_index <= model.dimension):
        raise IndexOutOfRange(
            f"state_index {state_index} outside 1..{model.dimension}"
        )
    if order < 0:
        raise ValueError(f"order must be non-negative, got {order}")

    n = state_index - 1
    h0 = np.asarray(model.h0_diagonal)
    v = interaction_matrix(model)

    energies = np.zeros(order + 1)
    energies[0] = h0[n]

    # denominators e_0 - h0[m]; the n-th slot is never used (x^(k)_n = 0)
    denom = h0[n] - h0
    denom[n] = 1.0

    corrections = np.zeros((order + 1, model.dimension))
    corrections[0, n] = 1.0
    # row 0 holds V x^(k-1), row j the term e_j x^(k-j); numpy's reduce
    # subtracts the rows in order, as a loop over j would
    terms = np.empty((order + 1, model.dimension))
    # overflow is reported by checked_finite() below, not by numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, order + 1):
            terms[0] = v @ corrections[k - 1]
            energies[k] = terms[0, n]
            np.multiply(
                energies[1:k, None], corrections[k - 1 : 0 : -1], out=terms[1:k]
            )
            x_k = np.subtract.reduce(terms[:k], axis=0) / denom
            x_k[n] = 0.0
            corrections[k] = x_k

    return Polynomial(tuple(energies.tolist())).checked_finite()


def p_space_series(model: MatrixModel, order: int) -> list[Polynomial]:
    """One energy series per model-space state, in model-space order."""
    return [perturbation_series(model, n, order) for n in model.p_space]
