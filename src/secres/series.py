"""Polynomials in the coupling, monic energy polynomials over them, and
the one product of coupling polynomials.

One type serves both the truncated energy series of the perturbation
engine and the exact lambda polynomials of the characteristic polynomial
and the discriminant.  Both types are values with no arithmetic: products
forms every product of coupling polynomials, on float arrays, for
reconstruct and for the discriminant.  Truncation at an order K keeps a
product's K+1 lowest coefficients, each of which sums exactly its own
terms, so no coefficient up to K gains or loses a term.  No operation
drops trailing coefficients on its own; trimmed does, and it is called
only where a degree is decided.  Coefficients are double-precision reals;
complex numbers appear only at evaluation time, and a monic polynomial is
evaluated on a grid of couplings only by secular.eigenvalues_at.  Neither
type formats itself: the command line writes every output format.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite

import numpy as np

from .errors import InvariantViolation

# tolerance for trailing-zero stripping, relative to the largest coefficient;
# degree decisions feed the discriminant, so it is read in trimmed() only
TRAILING_ZERO_TOL = 1e-12


def products(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Products a * b of coupling polynomials, coefficients on the last axis.

    The leading axes of a and b broadcast to the batch of products, each
    of full length.  Each coefficient sums its terms a_i * b_j in
    ascending i from +0.0 and skips a_i == 0 (0 * inf is nan), so a finite
    product never holds -0.0, reads +0.0 past its operands' lengths, and
    is the same whatever the sign of a zero in a or b: a +-0 term leaves
    a sum that started from +0.0 as it is.
    """
    rows, cols = a.shape[-1], b.shape[-1]
    batch = np.broadcast(a[..., 0], b[..., 0]).shape
    terms = np.zeros(batch + (rows, rows + cols - 1))
    # a_i b_j goes to row i, column i + j; the +0.0 elsewhere adds nothing
    row_step, step = terms.strides[-2:]
    skewed = np.ndarray(batch + (rows, cols), terms.dtype, terms, 0,
                        terms.strides[:-2] + (row_step + step, step))
    np.multiply(a[..., :, None], b[..., None, :], out=skewed)
    # numpy reduces along the row axis term after term: it pairs terms up
    # only along the contiguous axis, whose length is 1 only for one row
    return np.add.reduce(terms, axis=-2, where=(a != 0.0)[..., None], initial=0.0)


@dataclass(frozen=True)
class Polynomial:
    """Real polynomial in the coupling, ascending coefficients c_0..c_D.

    A truncated series of order K is a polynomial with K+1 coefficients.
    degree counts trailing zeros until trimmed() drops them.
    """

    coefficients: tuple[float, ...]

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def trimmed(self) -> "Polynomial":
        """Drop trailing coefficients at or below TRAILING_ZERO_TOL * max|c_k|.

        The cutoff scales with the coefficients, so a change of units keeps
        the degree.  The constant coefficient always stays, so zero is (0.0,).
        """
        coeffs = list(self.coefficients) or [0.0]
        cutoff = TRAILING_ZERO_TOL * max(map(abs, coeffs))
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
