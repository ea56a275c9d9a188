"""Exact characteristic polynomial det(E*I - H(lambda)) over the coupling ring.

Coefficients are exact polynomials in lambda (not truncated series), so the
discriminant of this polynomial locates the true eigenvalue-coalescence
points independent of any expansion order.  The determinant is expanded by
the Faddeev-LeVerrier recursion, which works at any dimension.
"""

from __future__ import annotations

from .errors import RootFindingFailure
from .model import MatrixModel
from .roots import all_roots, sort_roots
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


def exact_eigenvalues_at(cp: MonicPolynomial, lam: complex) -> list[complex]:
    """All eigenvalues at one coupling value, in canonical order."""
    ascending: list[complex] = [
        cp.coefficients[cp.degree - 1 - i].evaluate(complex(lam))
        for i in range(cp.degree)
    ]
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
