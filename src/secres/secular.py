"""Order-K truncated secular polynomial of the implicit effective Hamiltonian.

Expanding prod_n (W - E_n(lambda)) over the model-space energy series, with
truncation applied inside every multiplication, yields a monic polynomial in
the energy variable W whose coefficients p_1..p_N are themselves truncated
series in the coupling.  Its roots resum the individual series; no effective
Hamiltonian matrix is ever constructed.  eigenvalues_at is the one path from
that polynomial to its roots on a grid of couplings: evaluate the p_j there,
solve the whole grid at once, sort each row and name each failed coupling.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .errors import failed_solve
from .roots import all_roots
from .series import MonicPolynomial, Polynomial, products


def reconstruct(series_list: Iterable[Polynomial]) -> MonicPolynomial:
    """Expand prod (W - E_n) with truncation at every multiplication.

    Every coefficient series p_j keeps the K+1 coefficients of the input
    series.  The result is symmetric in the inputs, so the accumulation
    order is immaterial.  A coefficient that overflows to a non-finite value
    raises InvariantViolation.
    """
    factors = list(series_list)
    if not factors:
        raise ValueError("reconstruct needs at least one energy series")
    order = factors[0].degree
    if order < 0:
        raise ValueError("reconstruct needs series with at least one coefficient")
    for s in factors:
        if s.degree != order:
            raise ValueError(f"series orders differ: {order} vs {s.degree}")

    # coefficients of ascending powers of W, one row each; starts as 1, and
    # the top row stays zero until the last factor
    poly = np.zeros((len(factors) + 1, order + 1))
    poly[0, 0] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        for e_n in np.array([s.coefficients for s in factors], dtype=float):
            # W * poly - E_n * poly, each product cut at the order; the roll
            # moves the zero top row to W^0
            poly = np.roll(poly, 1, axis=0) - products(poly, e_n)[:, :order + 1]

    # p_j multiplies W^(N-j); drop the implicit leading 1
    return MonicPolynomial(tuple(Polynomial(tuple(row)).checked_finite()
                                 for row in poly[-2::-1].tolist()))


def eigenvalues_at(
    poly: MonicPolynomial, lams: Sequence[complex]
) -> tuple[np.ndarray, dict[int, str]]:
    """All N roots in W at each coupling of a grid, one sorted row each.

    p_N, ..., p_1 are evaluated on the grid and one batch solve covers it;
    an overflow reads inf or nan, which the solve reports as a failure at
    that coupling, so numpy does not warn of it.  Returns the (len(lams), N)
    roots, each row by real part, ties by imaginary part in one stable sort
    (equal keys such as 0.0 and -0.0 keep solver order), and the message
    of each coupling whose roots did not converge, keyed by its index in
    lams.
    """
    grid = np.asarray(lams)
    with np.errstate(over="ignore", invalid="ignore"):
        values = [p.evaluate(grid) for p in reversed(poly.coefficients)]
    result = all_roots(values + [np.ones(grid.shape)])
    failures = {m: failed_solve("root iteration", f" at lambda={grid[m].item()!r}",
                                result.column_residual[m].item())
                for m in np.flatnonzero(~result.column_converged).tolist()}
    return np.sort(result.roots.T, axis=1, kind="stable"), failures
