"""Polynomials in the coupling, and monic energy polynomials over them.

One type serves both the truncated energy series of the perturbation
engine and the exact lambda polynomials of the characteristic polynomial
and the discriminant.  Truncation is an explicit argument of ``mul``: with
an order K every term of degree > K is discarded at the moment it would be
formed, never post-hoc on an assembled product.  No operation drops
trailing coefficients on its own; ``trimmed`` does, and it is called only
where a degree is decided.  Coefficients are double-precision reals;
complex numbers appear only at evaluation time, and a monic polynomial is
evaluated on a grid of couplings only by secular.eigenvalues_at.  Neither
type formats itself: the command line writes every output format.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite

from .errors import InvariantViolation

# tolerance for trailing-zero stripping, relative to the largest coefficient;
# degree decisions feed the discriminant, so it is read in trimmed() only
TRAILING_ZERO_TOL = 1e-12


@dataclass(frozen=True)
class Polynomial:
    """Real polynomial in the coupling, ascending coefficients c_0..c_D.

    A truncated series of order K is a polynomial with K+1 coefficients.
    degree counts trailing zeros until trimmed() drops them.  Sums pad the
    shorter operand with zeros.
    """

    coefficients: tuple[float, ...]

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coefficients, other.coefficients
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial(tuple(out))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + Polynomial(tuple(-c for c in other.coefficients))

    def scale(self, factor: float) -> "Polynomial":
        return Polynomial(tuple(factor * c for c in self.coefficients))

    def mul(self, other: "Polynomial", order: int | None = None) -> "Polynomial":
        """Product; with an order K, the Cauchy product's K+1 lowest terms."""
        b = other.coefficients
        size = len(self.coefficients) + len(b) - 1 if order is None else order + 1
        out = [0.0] * size
        for i, a in enumerate(self.coefficients):
            if a == 0.0:
                continue
            for j in range(min(len(b), size - i)):
                out[i + j] += a * b[j]
        return Polynomial(tuple(out))

    def trimmed(self) -> "Polynomial":
        """Drop trailing coefficients at or below TRAILING_ZERO_TOL * max|c_k|.

        The cutoff scales with the coefficients, so a change of units keeps
        the degree.  The constant coefficient always stays, so zero is (0.0,).
        """
        coeffs = list(self.coefficients) or [0.0]
        cutoff = TRAILING_ZERO_TOL * max(abs(c) for c in coeffs)
        while len(coeffs) > 1 and abs(coeffs[-1]) <= cutoff:
            coeffs.pop()
        return Polynomial(tuple(coeffs))

    def checked_finite(self) -> "Polynomial":
        """Self, or InvariantViolation if a coefficient is infinite or NaN."""
        for c in self.coefficients:
            if not isfinite(c):
                raise InvariantViolation(f"non-finite coefficient {c!r}")
        return self

    def evaluate(self, lam: complex) -> complex:
        """Horner evaluation at a (complex) coupling."""
        acc = 0.0
        for c in reversed(self.coefficients):
            acc = acc * lam + c
        return acc


@dataclass(frozen=True)
class MonicPolynomial:
    """Monic polynomial in the energy variable with coupling-polynomial
    coefficients.

    coefficients holds p_1..p_d where p_j multiplies E^(d-j); the leading
    coefficient 1 is implicit, so the degree d is the number of coefficients.
    """

    coefficients: tuple[Polynomial, ...]

    @property
    def degree(self) -> int:
        return len(self.coefficients)
