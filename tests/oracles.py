"""Independent reference computations the tests check production code against.

Nothing here may call into the package's own arithmetic: polynomial products
are plain convolutions, eigenvalues come from Jacobi rotations, low-order
perturbation coefficients from the closed-form sum, characteristic
polynomials from cofactor expansion, and discriminants from the textbook
quadratic/cubic formulas.

The loop references at the end are the exception: they repeat a production
computation in its plain loop form, operation for operation, so that tests
can require the faster form to give the same bits.  They share one ring of
lambda polynomials, ring_add, ring_sub and ring_mul, whose operations act
one coefficient at a time on Polynomial values.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from secres import MonicPolynomial, Polynomial


def poly_mul(a, b):
    """Exact polynomial product of ascending coefficient lists."""
    out = [0.0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def poly_add(a, b):
    """Sum of ascending coefficient lists, the shorter one zero-padded."""
    out = list(a) + [0.0] * (len(b) - len(a))
    for i, y in enumerate(b):
        out[i] += y
    return out


def monomial(power, coefficient, order):
    """coefficient * x^power as order+1 ascending coefficients."""
    out = [0.0] * (order + 1)
    out[power] = coefficient
    return out


def is_even(coefficients, tol):
    """True iff every odd-power coefficient has magnitude <= tol."""
    return all(abs(c) <= tol for c in list(coefficients)[1::2])


def truncate(coefficients, order):
    """First order+1 coefficients, zero-padded."""
    padded = list(coefficients) + [0.0] * (order + 1)
    return padded[: order + 1]


def poly_eval(coefficients, x):
    acc = 0.0
    for c in reversed(list(coefficients)):
        acc = acc * x + c
    return acc


def sort_roots(roots):
    """Canonical eigenvalue ordering: by real part, ties by imaginary part."""
    return sorted(roots, key=lambda z: (z.real, z.imag))


def second_order_coefficient(h0, couplings, n):
    """Closed-form second-order energy shift sum_{m != n} V_nm^2 / (E_n - E_m).

    h0 is the diagonal, couplings a dict {(i, j): value} with 1-based i < j,
    n a 1-based state index.
    """
    total = 0.0
    for m in range(1, len(h0) + 1):
        if m == n:
            continue
        v = couplings.get((min(n, m), max(n, m)), 0.0)
        if v:
            total += v * v / (h0[n - 1] - h0[m - 1])
    return total


def jacobi_eigenvalues(matrix, sweeps=100, tol=1e-14):
    """Eigenvalues of a real symmetric matrix by cyclic Jacobi rotations."""
    a = np.array(matrix, dtype=float)
    n = a.shape[0]
    scale = np.max(np.abs(a)) or 1.0
    for _ in range(sweeps):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                off = max(off, abs(a[p, q]))
                if abs(a[p, q]) <= tol * scale:
                    continue
                theta = 0.5 * np.arctan2(2.0 * a[p, q], a[q, q] - a[p, p])
                c, s = np.cos(theta), np.sin(theta)
                rot = np.eye(n)
                rot[p, p] = rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
        if off <= tol * scale:
            break
    return np.sort(np.diag(a))


def hamiltonian_at(model, lam):
    """Dense complex H(lambda) = diag(h0) + lambda*V, filled entry by entry.

    The result is complex-symmetric for every lambda (Hermitian only when
    lambda is real).
    """
    h = np.diag(np.asarray(model.h0_diagonal, dtype=complex))
    for i, j, value in model.interaction:
        h[i - 1, j - 1] = h[j - 1, i - 1] = complex(lam) * value
    return h


def model_to_dict(model):
    """The JSON-file representation of a model, as MatrixModel.from_dict reads it."""
    return {
        "dimension": model.dimension,
        "h0_diagonal": list(model.h0_diagonal),
        "interaction": [[i, j, v] for i, j, v in model.interaction],
        "p_space": list(model.p_space),
    }


def quadratic_discriminant_value(p1, p2):
    """Discriminant of W^2 + p1 W + p2 at given coefficient values."""
    return p1 * p1 - 4.0 * p2


def cubic_discriminant_value(p1, p2, p3):
    """Discriminant of E^3 + p1 E^2 + p2 E + p3 at given coefficient values."""
    return (
        18.0 * p1 * p2 * p3
        - 4.0 * p1**3 * p3
        + p1**2 * p2**2
        - 4.0 * p2**3
        - 27.0 * p3**2
    )


def random_model_data(rng, dim, min_gap=0.05, coupling_range=(0.1, 1.0)):
    """Diagonal + full off-diagonal couplings with well-separated diagonals."""
    while True:
        h0 = np.sort(rng.uniform(-2.0, 2.0, dim))
        if np.min(np.diff(h0)) >= min_gap:
            break
    lo, hi = coupling_range
    interaction = tuple(
        (i, j, float(rng.uniform(lo, hi) * rng.choice((-1.0, 1.0))))
        for i in range(1, dim + 1)
        for j in range(i + 1, dim + 1)
    )
    return tuple(float(x) for x in h0), interaction


def _bivariate_det(matrix):
    """Laplace expansion along the first row.

    Entries are polynomials in E (lists indexed by the power of E) whose
    coefficients are lambda coefficient lists.
    """
    if len(matrix) == 1:
        return matrix[0][0]
    total = [[0.0]]
    for col, entry in enumerate(matrix[0]):
        if not any(any(p) for p in entry):
            continue
        minor = _bivariate_det([row[:col] + row[col + 1:] for row in matrix[1:]])
        sign = -1.0 if col % 2 else 1.0
        for i, p in enumerate(entry):
            for j, q in enumerate(minor):
                term = [sign * c for c in poly_mul(p, q)]
                total += [[0.0]] * (i + j + 1 - len(total))
                total[i + j] = poly_add(total[i + j], term)
    return total


def charpoly_cofactor(model):
    """p_1..p_D of det(E*I - H(lambda)) by cofactor expansion.

    Returns lambda coefficient lists; p_j multiplies E^(D-j).
    """
    dim = model.dimension
    matrix = [[[[0.0]] for _ in range(dim)] for _ in range(dim)]
    for i, e in enumerate(model.h0_diagonal):
        matrix[i][i] = [[-e], [1.0]]
    for i, j, value in model.interaction:
        matrix[i - 1][j - 1] = matrix[j - 1][i - 1] = [[0.0, -value]]
    det = _bivariate_det(matrix)
    return [det[dim - j] for j in range(1, dim + 1)]


def horner_pair(coeffs, z):
    """p(z) and p'(z) by Horner's rule, one coefficient at a time, in place.

    coeffs is (M, degree+1) ascending and z is (M, n).
    """
    p = np.zeros_like(z)
    dp = np.zeros_like(z)
    for c in coeffs.T[::-1]:
        dp *= z
        dp += p
        p *= z
        p += c[:, None]
    return p, dp


def rspt_energies(model, state_index, order):
    """Rayleigh-Schrodinger energy coefficients by the double loop over k
    and j, subtracting e_j x^(k-j) one term at a time."""
    n = state_index - 1
    h0 = np.asarray(model.h0_diagonal)
    v = np.zeros((model.dimension, model.dimension))
    for i, j, value in model.interaction:
        v[i - 1, j - 1] = v[j - 1, i - 1] = value
    energies = np.zeros(order + 1)
    energies[0] = h0[n]
    denom = h0[n] - h0
    denom[n] = 1.0
    corrections = np.zeros((order + 1, model.dimension))
    corrections[0, n] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, order + 1):
            coupled = v @ corrections[k - 1]
            energies[k] = coupled[n]
            for j in range(1, k):
                coupled -= energies[j] * corrections[k - j]
            x_k = coupled / denom
            x_k[n] = 0.0
            corrections[k] = x_k
    return energies.tolist()


def ring_add(p, q):
    """p + q, the shorter operand padded with zeros."""
    a, b = p.coefficients, q.coefficients
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return Polynomial(tuple(out))


def ring_sub(p, q):
    """p - q as p + (-q)."""
    return ring_add(p, Polynomial(tuple(-c for c in q.coefficients)))


def ring_mul(p, q, order=None):
    """Product; with an order K, the Cauchy product's K+1 lowest terms.

    Each coefficient sums its terms from 0.0 in ascending powers of p and
    skips the zero coefficients of p.
    """
    b = q.coefficients
    size = len(p.coefficients) + len(b) - 1 if order is None else order + 1
    out = [0.0] * size
    for i, a in enumerate(p.coefficients):
        if a == 0.0:
            continue
        for j in range(min(len(b), size - i)):
            out[i + j] += a * b[j]
    return Polynomial(tuple(out))


def ring_reconstruct(series_list):
    """prod (W - E_n) over the ring, truncated inside every product.

    The loop form of secres.secular.reconstruct: the same p_j, bit for bit,
    and the same InvariantViolation for the first non-finite coefficient of
    p_1, then p_2, and so on.
    """
    factors = list(series_list)
    order = factors[0].degree

    # ascending powers of W; starts as the constant polynomial 1
    zero = Polynomial((0.0,) * (order + 1))
    poly = [Polynomial((1.0,) + (0.0,) * order)]
    for s in factors:
        shifted = [zero] + poly                                 # W * poly
        scaled = [ring_mul(c, s, order) for c in poly] + [zero]  # E_n * poly
        poly = [ring_sub(a, b) for a, b in zip(shifted, scaled)]

    n = len(factors)
    # p_j multiplies W^(N-j); drop the implicit leading 1
    return MonicPolynomial(
        tuple(poly[n - j].checked_finite() for j in range(1, n + 1))
    )


def cofactor_det(matrix):
    """Laplace expansion along the first row, recomputing every minor.

    The entries are Polynomials multiplied and summed by the ring above, so
    only the order of the expansion is under test.
    """
    if len(matrix) == 1:
        return matrix[0][0]
    total = type(matrix[0][0])((0.0,))
    for col in range(len(matrix)):
        minor = [row[:col] + row[col + 1:] for row in matrix[1:]]
        term = ring_mul(matrix[0][col], cofactor_det(minor))
        total = ring_sub(total, term) if col % 2 else ring_add(total, term)
    return total


def bezout_det(matrix):
    """Cofactor determinant over the lambda-polynomial ring.

    The expansion runs down the rows, so a minor is fixed by the columns it
    keeps; each is computed once, N*2^N products instead of N!, in the
    order the plain expansion would use.
    """
    size = len(matrix)

    @cache
    def minor(columns):
        row = matrix[size - len(columns)]
        if len(columns) == 1:
            return row[columns[0]]
        total = Polynomial((0.0,))
        for position, col in enumerate(columns):
            term = ring_mul(row[col], minor(columns[:position] + columns[position + 1:]))
            total = ring_sub(total, term) if position % 2 else ring_add(total, term)
        return total

    return minor(tuple(range(size)))


def bezout_matrix(poly):
    """N x N Bezout matrix of a monic polynomial p and dp/dE over the ring.

    The coefficients p_j are trimmed first, as the discriminant does.
    """
    degree = poly.degree
    p = [q.trimmed() for q in poly.coefficients]

    # ascending energy coefficients of p (monic) and of g = dp/dE
    f = p[::-1] + [Polynomial((1.0,))]
    g = [Polynomial(tuple(float(m + 1) * c for c in f[m + 1].coefficients))
         for m in range(degree)] + [Polynomial((0.0,))]

    @cache
    def product(a, b):
        return ring_mul(f[a], g[b])  # each one recurs in many entries

    # Bezout matrix: (f(x)g(y) - f(y)g(x)) / (x - y) = sum B[i][j] x^i y^j
    bezout = []
    for i in range(degree):
        row = []
        for j in range(degree):
            entry = Polynomial((0.0,))
            for k in range(min(i, degree - 1 - j) + 1):
                entry = ring_sub(ring_add(entry, product(j + k + 1, i - k)),
                                 product(i - k, j + k + 1))
            row.append(entry)
        bezout.append(row)
    return bezout


def bezout_discriminant(poly):
    """The discriminant as a cofactor expansion of Polynomial entries.

    This is the ring form of secres.discriminant.discriminant: the same
    Bezout entries and minors, built one Polynomial operation at a time, so
    the array form must return its coefficients bit for bit.  A non-finite
    coefficient raises InvariantViolation, naming the first one.
    """
    return bezout_det(bezout_matrix(poly)).checked_finite().trimmed()
