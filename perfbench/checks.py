"""Output checks and accuracy references that do not use secres arithmetic.

The checks read the files the CLI wrote.  The only package output they take
as given is the secular polynomial from ``secres reconstruct``: the sweep's
resummed columns and the order-K EPs must be the roots of that polynomial
and of its discriminant, found here by numpy's companion-matrix eigenvalues.
Exact eigenvalues are compared with ``numpy.linalg.eigvalsh`` of a
Hamiltonian built here, and exact-route EPs with 40-digit mpmath solutions
of det(E I - H(lambda)) = d/dE det(E I - H(lambda)) = 0.
"""

from __future__ import annotations

import cmath
import itertools
import json
import math

import numpy as np

REFERENCE_DPS = 40
NEAREST_DPS = 30
SWEEP_EXACT_TOL = 1e-9      # eigenvalue error, relative to 1 + spectral radius
SWEEP_RESUMMED_TOL = 1e-6   # root error, relative to 1 + |root|; covers near-double roots
COMPANION_EP_TOL = 1e-8     # relative, between two root finders on one double polynomial
EXACT_EP_MIN_DIGITS = 3     # below this the reported EP is no longer the EP it names
# stripping rule of the program's lambda polynomials; keeps both routes at one degree
TRAILING_ZERO_TOL = 1e-12


def hamiltonian(model: dict, lam) -> np.ndarray:
    """Dense H(lambda) = diag(h0) + lambda*V, built from the model file alone."""
    h = np.diag(np.asarray(model["h0_diagonal"], dtype=type(lam)))
    for i, j, v in model["interaction"]:
        h[i - 1, j - 1] = h[j - 1, i - 1] = lam * v
    return h


def _matched_error(got: np.ndarray, want: np.ndarray) -> np.ndarray:
    """Per-row max error under the best pairing of roots (rows x N arrays)."""
    best = None
    for perm in itertools.permutations(range(got.shape[1])):
        err = np.max(np.abs(got[:, list(perm)] - want), axis=1)
        best = err if best is None else np.minimum(best, err)
    return best


def _parse_cell(text: str) -> complex:
    return complex(text) if text.endswith("j") else complex(float(text), 0.0)


def companion_roots(ascending: np.ndarray) -> np.ndarray:
    """Roots of monic polynomials, one per row (ascending, leading 1 omitted)."""
    rows, n = ascending.shape
    comp = np.zeros((rows, n, n), dtype=complex)
    comp[:, 1:, :-1] = np.eye(n - 1)
    comp[:, :, -1] = -ascending
    return np.linalg.eigvals(comp)


def check_sweep(path, model: dict, secular: dict) -> tuple[list[str], float, int]:
    """Exact columns against eigvalsh, resummed columns against companion roots.

    ``secular`` maps each order K to the coefficient series p_1..p_N of the
    reconstructed polynomial.  Returns the problems, the fewest correct
    digits in the exact columns (error relative to 1 + spectral radius) and
    the number of rows that report a root-finding error.
    """
    lines = open(path, encoding="utf-8").read().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    ok = [r for r in rows if r[-1] == ""]
    if not ok:
        return [f"{path}: every row reports an error"], 0.0, len(rows)
    dim = model["dimension"]
    problems = []
    lam = np.array([float(r[0]) for r in ok])
    exact = np.array([[float(c) for c in r[1:1 + dim]] for r in ok])
    want = np.linalg.eigvalsh(np.stack([hamiltonian(model, float(x)) for x in lam]))
    err = np.max(np.abs(exact - want), axis=1) / (1.0 + np.max(np.abs(want), axis=1))
    bad = np.flatnonzero(err > SWEEP_EXACT_TOL)
    if bad.size:
        problems.append(f"{path}: exact eigenvalues off by {err[bad[0]]:.2e} at lambda={lam[bad[0]]}")

    col = 1 + dim
    for k, coefficients in secular.items():
        n = len(coefficients)
        if header[col] != f"eff_K{k}_1":
            return problems + [f"{path}: column {col} is {header[col]}, expected eff_K{k}_1"], 0.0, 0
        got = np.array([[_parse_cell(c) for c in r[col:col + n]] for r in ok])
        # p_j multiplies W^(N-j), so ascending powers of W run p_N .. p_1
        values = np.stack([np.polynomial.polynomial.polyval(lam, coefficients[n - 1 - i])
                           for i in range(n)], axis=1)
        want_k = companion_roots(values.astype(complex))
        err_k = _matched_error(got, want_k) / (1.0 + np.max(np.abs(want_k), axis=1))
        bad = np.flatnonzero(err_k > SWEEP_RESUMMED_TOL)
        if bad.size:
            problems.append(f"{path}: K={k} roots off by {err_k[bad[0]]:.2e} at lambda={lam[bad[0]]}")
        col += n
    return problems, float(-np.log10(max(np.max(err), 1e-300))), len(rows) - len(ok)


def two_state_discriminant(p1, p2) -> np.ndarray:
    """p1^2 - 4 p2 for a monic quadratic in W, coefficients ascending in lambda."""
    disc = np.polynomial.polynomial.polymul(np.asarray(p1, float), np.asarray(p1, float))
    disc[: len(p2)] -= 4.0 * np.asarray(p2, dtype=float)
    end = len(disc)
    while end > 1 and abs(disc[end - 1]) <= TRAILING_ZERO_TOL:
        end -= 1
    return disc[:end]


def scaled_roots(coefficients) -> np.ndarray:
    """Companion-matrix roots after the substitution lambda = s*mu.

    Discriminant coefficients grow like (1/|EP|)^k, so the plain companion
    matrix loses the small roots; s = min_k |c_0/c_k|^(1/k) brings the
    coefficients near the small roots to one scale.  Needs c_0 != 0, which
    holds because the diagonal energies are distinct.
    """
    c = np.asarray(coefficients, dtype=float)
    powers = np.arange(len(c))
    nonzero = c[1:] != 0
    s = np.min(np.abs(c[0] / c[1:][nonzero]) ** (1.0 / powers[1:][nonzero]))
    d = c * s ** powers
    return s * np.polynomial.polynomial.polyroots(d / np.max(np.abs(d)))


def smallest_ep_modulus(secular: list) -> tuple[float, np.ndarray]:
    """Smallest root modulus of a two-state discriminant, and all its roots."""
    if len(secular) != 2:
        raise ValueError("the companion discriminant check needs a two-state model space")
    roots = scaled_roots(two_state_discriminant(*secular))
    return float(np.min(np.abs(roots))), roots


def check_companion_ep(label: str, ep: complex, secular: list) -> list[str]:
    """The reported nearest EP is the smallest-modulus root of the discriminant."""
    smallest, roots = smallest_ep_modulus(secular)
    closest = roots[np.argmin(np.abs(roots - ep))]
    problems = []
    if abs(abs(ep) - smallest) > COMPANION_EP_TOL * smallest:
        problems.append(f"{label}: nearest EP modulus {abs(ep)!r}, companion {smallest!r}")
    if abs(closest - ep) > COMPANION_EP_TOL * abs(ep):
        problems.append(f"{label}: nearest EP {ep!r} is no discriminant root (closest {closest!r})")
    return problems


def check_modulus(label: str, modulus: float, secular: list) -> list[str]:
    """A table1 row equals the smallest companion root modulus."""
    smallest, _ = smallest_ep_modulus(secular)
    if abs(modulus - smallest) > COMPANION_EP_TOL * smallest:
        return [f"{label}: modulus {modulus!r}, companion {smallest!r}"]
    return []


def reference_ep(model: dict, lam0: complex):
    """40-digit EP of det(E I - H(lambda)) found from the start lambda0.

    Solves det(E I - H) = 0 and d/dE det(E I - H) = 0 for (E, lambda) by
    Newton iteration, started from lambda0 and the mean of the closest pair
    of eigenvalues of H(lambda0).  Returns the real and imaginary part of
    lambda as decimal strings, or None when the iteration does not settle.
    """
    import mpmath

    ev = np.linalg.eigvals(hamiltonian(model, complex(lam0)))
    e0 = min(((abs(a - b), (a + b) / 2) for a, b in itertools.combinations(ev, 2)),
             key=lambda pair: pair[0])[1]
    dim = model["dimension"]
    with mpmath.workdps(REFERENCE_DPS):
        h0 = [mpmath.mpf(x) for x in model["h0_diagonal"]]
        v = mpmath.zeros(dim, dim)
        for i, j, value in model["interaction"]:
            v[i - 1, j - 1] = v[j - 1, i - 1] = mpmath.mpf(value)

        def equations(e, lam):
            m = -lam * v
            for i in range(dim):
                m[i, i] += e - h0[i]
            # d/dE det(E I - H) is the sum of the principal (D-1)-minors
            d_e = mpmath.mpf(0)
            for i in range(dim):
                keep = [r for r in range(dim) if r != i]
                d_e += mpmath.det(mpmath.matrix([[m[r, c] for c in keep] for r in keep]))
            return [mpmath.det(m), d_e]

        try:
            e, lam = mpmath.findroot(
                equations, (mpmath.mpc(e0), mpmath.mpc(lam0)),
                tol=mpmath.mpf(10) ** (6 - 2 * REFERENCE_DPS), maxsteps=60, verify=False,
            )
        except (ValueError, ZeroDivisionError):
            return None
        if max(abs(x) for x in equations(e, lam)) > mpmath.mpf(10) ** (10 - REFERENCE_DPS):
            return None
        return mpmath.nstr(lam.real, REFERENCE_DPS + 5), mpmath.nstr(lam.imag, REFERENCE_DPS + 5)


def nearest_ep_modulus(model: dict) -> str:
    """Modulus of the true nearest EP, from an independent discriminant.

    disc(lambda) = prod_{i<j} (E_i - E_j)^2 over the eigenvalues of H(lambda)
    is a polynomial of degree at most D(D-1).  It is sampled on the unit
    circle at NEAREST_DPS digits, interpolated by a discrete Fourier
    transform and solved; the smallest root modulus is returned as a string.
    """
    import mpmath

    dim = model["dimension"]
    n = dim * (dim - 1) + 1
    with mpmath.workdps(NEAREST_DPS):
        h0 = [mpmath.mpf(x) for x in model["h0_diagonal"]]
        points = [mpmath.expjpi(mpmath.mpf(2 * k) / n) for k in range(n)]
        values = []
        for lam in points:
            h = mpmath.matrix(dim, dim)
            for i in range(dim):
                h[i, i] = h0[i]
            for i, j, v in model["interaction"]:
                h[i - 1, j - 1] = h[j - 1, i - 1] = lam * mpmath.mpf(v)
            disc = mpmath.mpf(1)
            for a, b in itertools.combinations(mpmath.eig(h, left=False, right=False), 2):
                disc *= (a - b) ** 2
            values.append(disc)
        coefficients = [sum(v * p ** (-j) for v, p in zip(values, points)) / n for j in range(n)]
        cutoff = mpmath.mpf(10) ** (8 - NEAREST_DPS) * max(abs(c) for c in coefficients)
        while abs(coefficients[-1]) < cutoff:
            coefficients.pop()
        roots = mpmath.polyroots(coefficients[::-1], maxsteps=400, extraprec=2 * NEAREST_DPS)
        return mpmath.nstr(min(abs(r) for r in roots), NEAREST_DPS - 5)


def ep_digits(estimate: complex, reference: tuple[str, str]) -> float:
    """Correct digits of a double EP estimate against a 40-digit reference."""
    import mpmath

    with mpmath.workdps(REFERENCE_DPS):
        ref = mpmath.mpc(*reference)
        return float(-mpmath.log10(max(abs(mpmath.mpc(estimate) - ref), mpmath.eps) / abs(ref)))


def check_exact_ep(label: str, ep: complex, reference, nearest: str) -> tuple[list[str], float]:
    """The exact route's nearest EP against the 40-digit EP and the true nearest modulus.

    The 40-digit EP is found by Newton iteration from the reported value; it
    must be the nearest EP, and the reported value must be its canonical
    (upper half-plane) member.  Returns the problems and the correct digits.
    """
    if reference is None:
        return [f"{label}: Newton iteration from {ep!r} found no EP"], 0.0
    problems = []
    if not 0.0 <= cmath.phase(ep) < math.pi:
        problems.append(f"{label}: EP {ep!r} is not the upper half-plane member of its pair")
    size = abs(complex(float(reference[0]), float(reference[1])))
    if abs(size - float(nearest)) > 1e-12 * size:
        problems.append(f"{label}: EP {ep!r} lies at an EP of modulus {size!r}, "
                        f"but the nearest EP has modulus {nearest}")
    value = ep_digits(ep, reference)
    if value < EXACT_EP_MIN_DIGITS:
        problems.append(f"{label}: EP {ep!r} has {value:.2f} correct digits, "
                        f"fewer than {EXACT_EP_MIN_DIGITS}")
    return problems, value


def check_exact_modulus(label: str, modulus: float, nearest: str) -> tuple[list[str], float]:
    """table1's exact row against the true nearest-EP modulus."""
    size = float(nearest)
    value = -math.log10(max(abs(modulus - size), 1e-300) / size)
    if value < EXACT_EP_MIN_DIGITS:
        return [f"{label}: modulus {modulus!r} has {value:.2f} correct digits"], value
    return [], value


def parse_ep_report(path) -> dict:
    """Nearest EP of each block of an ``ep`` JSON report, as complex numbers."""
    report = json.loads(open(path, encoding="utf-8").read())

    def nearest(block):
        return complex(float(block["nearest"]["re"]), float(block["nearest"]["im"]))

    out = {"orders": {entry["order"]: nearest(entry) for entry in report["orders"]}}
    if "exact" in report:
        out["exact"] = nearest(report["exact"])
    return out


def parse_table1(path) -> dict:
    rows = {}
    for line in open(path, encoding="utf-8").read().splitlines()[1:]:
        key, value = line.split()
        rows[key] = float(value)
    return rows
