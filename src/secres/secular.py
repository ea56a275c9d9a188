"""Order-K truncated secular polynomial of the implicit effective Hamiltonian.

Expanding prod_n (W - E_n(lambda)) over the model-space energy series, with
truncation applied inside every multiplication, yields a monic polynomial in
the energy variable W whose coefficients p_1..p_N are themselves truncated
series in the coupling.  Its roots resum the individual series; no effective
Hamiltonian matrix is ever constructed.
"""

from __future__ import annotations

from typing import Iterable

from .errors import EmptyList, OrderMismatch, RootFindingFailure
from .roots import all_roots, sort_roots
from .rspt import StateSeries
from .series import MonicPolynomial, Polynomial


def reconstruct(series_list: Iterable[StateSeries]) -> MonicPolynomial:
    """Expand prod (W - E_n) with truncation at every multiplication.

    Every coefficient series p_j keeps the K+1 coefficients of the input
    series.  The result is symmetric in the inputs, so the accumulation
    order is immaterial.  A coefficient that overflows to a non-finite value
    raises ValueError.
    """
    factors = [s.energy_series for s in series_list]
    if not factors:
        raise EmptyList("reconstruct needs at least one energy series")
    order = factors[0].degree
    for s in factors:
        if s.degree != order:
            raise OrderMismatch(f"series orders differ: {order} vs {s.degree}")

    # ascending powers of W; starts as the constant polynomial 1
    zero = Polynomial((0.0,) * (order + 1))
    poly = [Polynomial((1.0,) + (0.0,) * order)]
    for s in factors:
        shifted = [zero] + poly                            # W * poly
        scaled = [c.mul(s, order) for c in poly] + [zero]  # E_n * poly
        poly = [a - b for a, b in zip(shifted, scaled)]

    n = len(factors)
    # p_j multiplies W^(N-j); drop the implicit leading 1
    return MonicPolynomial(
        tuple(poly[n - j].checked_finite() for j in range(1, n + 1))
    )


def eigenvalues_at(poly: MonicPolynomial, lam: complex) -> list[complex]:
    """All N roots in W at one coupling value, in canonical order."""
    ascending = [poly.coefficients[poly.degree - 1 - i].evaluate(lam)
                 for i in range(poly.degree)]
    ascending.append(1.0 + 0.0j)
    result = all_roots(ascending)
    if not result.converged:
        raise RootFindingFailure(
            f"root iteration did not converge at lambda={lam!r} "
            f"(max residual {result.max_residual:.3e})",
            roots=result.roots,
            max_residual=result.max_residual,
        )
    return sort_roots(result.roots)
