import cmath
import importlib

import numpy as np
import pytest

from secres import (
    DegreeTooSmall,
    InvariantViolation,
    MatrixModel,
    MonicPolynomial,
    Polynomial,
    characteristic_polynomial,
    discriminant,
    eigenvalues_at,
    exceptional_points,
    nearest_exceptional_point,
    p_space_series,
    reconstruct,
)
from secres.cli import main

from conftest import ZHENG3_PATH, roots_at
from oracles import (
    cofactor_det,
    cubic_discriminant_value,
    hamiltonian_at,
    quadratic_discriminant_value,
    random_model_data,
)

EXACT_EP1_MODULUS = 0.05139217757
EXACT_EP2 = 0.2381164319 + 0.5028706167j
TABLE_PRESENT = {
    2: 0.05147186257,
    4: 0.05139244862,
    6: 0.05139217790,
    8: 0.05139217757,
    10: 0.05139217757,
}


def quadratic_poly(p1, p2):
    return MonicPolynomial((Polynomial(p1), Polynomial(p2)))


def flat(groups):
    return [z for group in groups for z in group]


def test_order2_reconstruction_discriminant(zheng3):
    poly = reconstruct(p_space_series(zheng3, 2))
    disc = discriminant(poly)
    # hand algebra: p1^2 - 4 p2 = 0.01 + (34/9) l^2 + (100/81) l^4
    assert list(disc.coefficients) == pytest.approx(
        [0.01, 0.0, 34.0 / 9.0, 0.0, 100.0 / 81.0], abs=1e-13
    )
    # the order-K discriminant keeps its full length: degree 2K > K here
    assert disc.degree == 4


def test_quadratic_discriminant_matches_formula():
    rng = np.random.default_rng(41)
    for _ in range(15):
        order = int(rng.integers(1, 5))
        p1 = tuple(rng.uniform(-2, 2, order + 1))
        p2 = tuple(rng.uniform(-2, 2, order + 1))
        disc = discriminant(quadratic_poly(p1, p2))
        for _ in range(4):
            lam = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            want = quadratic_discriminant_value(
                Polynomial(p1).evaluate(lam),
                Polynomial(p2).evaluate(lam),
            )
            got = disc.evaluate(lam)
            assert abs(got - want) <= 1e-13 * max(1.0, abs(want))


def test_trivial_quadratic_discriminant():
    poly = quadratic_poly((0.0, 0.0, 0.0), (0.0, 0.0, -1.0))
    disc = discriminant(poly)
    assert list(disc.coefficients) == pytest.approx([0.0, 0.0, 4.0], abs=1e-15)


def test_exact_discriminant_matches_cubic_formula(zheng3):
    cp = characteristic_polynomial(zheng3)
    disc = discriminant(cp)
    assert disc.degree == 6
    rng = np.random.default_rng(43)
    for _ in range(8):
        lam = complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6))
        want = cubic_discriminant_value(
            *(p.evaluate(lam) for p in cp.coefficients)
        )
        got = disc.evaluate(lam)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


@pytest.mark.parametrize("dim", [
    2, 3, 4, 5,
    pytest.param(6, marks=pytest.mark.xfail(strict=True, reason=(
        "double-precision determinant: the lambda^0 coefficient loses about "
        "7 digits to cancellation (relative error 3.7e-10 at lambda=0.3+0.2i)"
    ))),
])
def test_exact_discriminant_matches_eigenvalue_gaps(dim):
    rng = np.random.default_rng(100 + dim)
    h0, interaction = random_model_data(rng, dim)
    model = MatrixModel(dim, h0, interaction, (1,))
    disc = discriminant(characteristic_polynomial(model))
    for lam in (0.3 + 0.2j, -0.45 + 0.7j):
        energies = np.linalg.eigvals(hamiltonian_at(model, lam))
        want = np.prod([
            (a - b) ** 2
            for i, a in enumerate(energies)
            for b in energies[i + 1:]
        ])
        got = disc.evaluate(lam)
        assert abs(got - want) <= 1e-10 * abs(want)


def bits(poly):
    return np.asarray(poly.coefficients).tobytes()


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6, 7])
def test_cached_determinant_equals_plain_expansion(monkeypatch, dim):
    # caching minors must not change a single operation or its order
    module = importlib.import_module("secres.discriminant")
    cached = module._det
    matrices = []

    def recording(matrix):
        matrices.append(matrix)
        return cached(matrix)

    monkeypatch.setattr(module, "_det", recording)
    rng = np.random.default_rng(100 + dim)
    h0, interaction = random_model_data(rng, dim)
    model = MatrixModel(dim, h0, interaction, (1,))
    disc = discriminant(characteristic_polynomial(model))
    (bezout,) = matrices
    assert len(bezout) == dim
    plain = cofactor_det(bezout)
    assert bits(cached(bezout)) == bits(plain)
    assert bits(disc) == bits(plain.trimmed())


@pytest.mark.parametrize("excess", [0, 1])
def test_discriminant_degree_cap(monkeypatch, capsys, zheng3, excess):
    # N (N - 1) times the largest lambda degree of a p_j bounds the degree;
    # a determinant above it is a fault of the arithmetic, so ep exits 3
    cp = characteristic_polynomial(zheng3)
    cap = 3 * 2 * max(p.trimmed().degree for p in cp.coefficients)
    degree = cap + excess
    module = importlib.import_module("secres.discriminant")
    det = Polynomial((0.0,) * degree + (1.0,))
    monkeypatch.setattr(module, "_det", lambda matrix: det)
    if not excess:
        assert discriminant(cp).degree == cap
        return
    message = f"discriminant degree {degree} exceeds cap {cap}"
    with pytest.raises(InvariantViolation, match=f"^{message}$"):
        discriminant(cp)
    assert main(["ep", "--model", str(ZHENG3_PATH), "--exact"]) == 3
    assert capsys.readouterr() == ("", f"error: InvariantViolation: {message}\n")


def test_exact_discriminant_is_even(zheng3):
    disc = discriminant(characteristic_polynomial(zheng3))
    scale = max(abs(c) for c in disc.coefficients)
    assert all(abs(c) <= 1e-12 * scale for c in disc.coefficients[1::2])


def test_degree_too_small():
    single = MonicPolynomial((Polynomial((0.0, 0.0, 0.0)),))
    with pytest.raises(DegreeTooSmall):
        discriminant(single)
    with pytest.raises(DegreeTooSmall):
        exceptional_points(Polynomial((3.0,)))


def test_exact_exceptional_points(zheng3):
    disc = discriminant(characteristic_polynomial(zheng3))
    # sorted by modulus then phase, imaginary pair first
    pair, quartet = exceptional_points(disc)
    assert len(pair) == 2
    for z in pair:
        assert abs(z) == pytest.approx(EXACT_EP1_MODULUS, abs=1e-9)
        assert abs(z.real) < 1e-9
    # the four larger points are the +-lambda2, +-lambda2* quartet
    assert len(quartet) == 4
    expected = {
        (sign_re, sign_im)
        for sign_re in (-1, 1)
        for sign_im in (-1, 1)
    }
    for z in quartet:
        key = (
            1 if z.real > 0 else -1,
            1 if z.imag > 0 else -1,
        )
        assert key in expected
        expected.remove(key)
        assert abs(abs(z.real) - EXACT_EP2.real) < 1e-8
        assert abs(abs(z.imag) - EXACT_EP2.imag) < 1e-8


def test_points_sorted_by_modulus_then_phase(zheng3):
    disc = discriminant(characteristic_polynomial(zheng3))
    points = flat(exceptional_points(disc))
    moduli = [abs(z) for z in points]
    assert moduli == sorted(moduli)
    for a, b in zip(points, points[1:]):
        if abs(abs(a) - abs(b)) <= 1e-12 * max(1.0, abs(a)):
            assert cmath.phase(a) <= cmath.phase(b)


def test_residuals_small_and_modulus_consistent(zheng3):
    for disc in (
        discriminant(characteristic_polynomial(zheng3)),
        discriminant(reconstruct(p_space_series(zheng3, 10))),
    ):
        bound = 1e-10 * max(abs(c) for c in disc.coefficients)
        for group in exceptional_points(disc):
            for z in group:
                assert abs(disc.evaluate(z)) <= bound
                # symmetry partners share one modulus
                assert abs(abs(z) - abs(group[0])) <= 1e-12 * max(1.0, abs(group[0]))


def test_conjugate_pairing(zheng3):
    disc = discriminant(characteristic_polynomial(zheng3))
    values = flat(exceptional_points(disc))
    for z in values:
        if abs(z.imag) > 1e-10:
            assert min(abs(z.conjugate() - w) for w in values) < 1e-10


def test_parity_pairing(zheng3):
    disc = discriminant(characteristic_polynomial(zheng3))
    values = flat(exceptional_points(disc))
    for z in values:
        assert min(abs(-z - w) for w in values) < 1e-10


def test_coalescence_at_reported_points(zheng3):
    cp = characteristic_polynomial(zheng3)
    disc = discriminant(cp)
    for z in flat(exceptional_points(disc)):
        roots = roots_at(eigenvalues_at, cp, z)
        gaps = [abs(a - b) for i, a in enumerate(roots) for b in roots[i + 1:]]
        assert min(gaps) <= 1e-5
        roots_far = roots_at(eigenvalues_at, cp, 2.0 * z)
        gaps_far = [
            abs(a - b) for i, a in enumerate(roots_far) for b in roots_far[i + 1:]
        ]
        assert min(gaps_far) > 1e-3


def test_coalescence_for_reconstruction(zheng3):
    poly = reconstruct(p_space_series(zheng3, 2))
    disc = discriminant(poly)
    nearest = nearest_exceptional_point(exceptional_points(disc))
    roots = roots_at(eigenvalues_at, poly, nearest)
    assert abs(roots[0] - roots[1]) <= 1e-5
    roots_far = roots_at(eigenvalues_at, poly, 2.0 * nearest)
    assert abs(roots_far[0] - roots_far[1]) > 1e-3


def test_table_convergence(zheng3):
    exact_disc = discriminant(characteristic_polynomial(zheng3))
    exact_modulus = abs(nearest_exceptional_point(exceptional_points(exact_disc)))
    previous_error = None
    for k, expected in TABLE_PRESENT.items():
        disc = discriminant(reconstruct(p_space_series(zheng3, k)))
        modulus = abs(nearest_exceptional_point(exceptional_points(disc)))
        assert modulus == pytest.approx(expected, abs=1e-9), f"K={k}"
        error = abs(modulus - exact_modulus)
        if previous_error is not None:
            assert error <= previous_error
        previous_error = error


def test_reconstruction_discriminants_even(zheng3):
    for k in (2, 6, 10):
        disc = discriminant(reconstruct(p_space_series(zheng3, k)))
        scale = max(abs(c) for c in disc.coefficients)
        assert all(abs(c) <= 1e-12 * scale for c in disc.coefficients[1::2])


def test_nearest_representative_in_upper_half_plane(zheng3):
    disc = discriminant(characteristic_polynomial(zheng3))
    groups = exceptional_points(disc)
    nearest = nearest_exceptional_point(groups)
    assert abs(nearest) == pytest.approx(EXACT_EP1_MODULUS, abs=1e-9)
    assert len(groups[0]) == 2
    assert 0.0 <= cmath.phase(nearest) < cmath.pi
    assert nearest.imag > 0


def test_nearest_single_element():
    assert nearest_exceptional_point([[-0.5j]]) == -0.5j


def test_nearest_empty_raises():
    with pytest.raises(ValueError, match="no exceptional points to choose from"):
        nearest_exceptional_point([])


def test_double_root_at_origin():
    [group] = exceptional_points(Polynomial((0.0, 0.0, 4.0)))
    assert len(group) == 2
    for z in group:
        assert abs(z) < 1e-12
