import cmath

import numpy as np
import pytest

from secres import (
    DegreeTooSmall,
    EXACT_SOURCE,
    EmptyList,
    ExceptionalPointEstimate,
    MatrixModel,
    MonicPolynomial,
    Polynomial,
    characteristic_polynomial,
    discriminant,
    eigenvalues_at,
    exact_eigenvalues_at,
    exceptional_points,
    nearest_exceptional_point,
    p_space_series,
    reconstruct,
    reconstruction_source,
    validate,
)

from oracles import (
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
    model = validate(MatrixModel(dim, h0, interaction, (1,)))
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


def test_exact_discriminant_is_even(zheng3):
    disc = discriminant(characteristic_polynomial(zheng3))
    scale = max(abs(c) for c in disc.coefficients)
    assert all(abs(c) <= 1e-12 * scale for c in disc.coefficients[1::2])


def test_degree_too_small():
    single = MonicPolynomial((Polynomial((0.0, 0.0, 0.0)),))
    with pytest.raises(DegreeTooSmall):
        discriminant(single)
    with pytest.raises(DegreeTooSmall):
        exceptional_points(Polynomial((3.0,)), EXACT_SOURCE)


def test_exact_exceptional_points(zheng3):
    disc = discriminant(characteristic_polynomial(zheng3))
    points = exceptional_points(disc, EXACT_SOURCE)
    assert len(points) == 6
    # sorted by modulus then phase, imaginary pair first
    assert points[0].modulus == pytest.approx(EXACT_EP1_MODULUS, abs=1e-9)
    assert points[1].modulus == pytest.approx(EXACT_EP1_MODULUS, abs=1e-9)
    for p in points[:2]:
        assert abs(p.lambda_value.real) < 1e-9
        assert p.multiplicity == 2
    # the four larger points are the +-lambda2, +-lambda2* quartet
    quartet = points[2:]
    assert all(p.multiplicity == 4 for p in quartet)
    expected = {
        (sign_re, sign_im)
        for sign_re in (-1, 1)
        for sign_im in (-1, 1)
    }
    for p in quartet:
        key = (
            1 if p.lambda_value.real > 0 else -1,
            1 if p.lambda_value.imag > 0 else -1,
        )
        assert key in expected
        expected.remove(key)
        assert abs(abs(p.lambda_value.real) - EXACT_EP2.real) < 1e-8
        assert abs(abs(p.lambda_value.imag) - EXACT_EP2.imag) < 1e-8


def test_points_sorted_by_modulus_then_phase(zheng3):
    disc = discriminant(characteristic_polynomial(zheng3))
    points = exceptional_points(disc, EXACT_SOURCE)
    moduli = [p.modulus for p in points]
    assert moduli == sorted(moduli)
    for a, b in zip(points, points[1:]):
        if abs(a.modulus - b.modulus) <= 1e-12 * max(1.0, a.modulus):
            assert cmath.phase(a.lambda_value) <= cmath.phase(b.lambda_value)


def test_residuals_small_and_modulus_consistent(zheng3):
    for source, disc in (
        (EXACT_SOURCE, discriminant(characteristic_polynomial(zheng3))),
        (
            reconstruction_source(10),
            discriminant(reconstruct(p_space_series(zheng3, 10))),
        ),
    ):
        bound = 1e-10 * max(abs(c) for c in disc.coefficients)
        for p in exceptional_points(disc, source):
            assert p.residual <= bound
            assert abs(p.modulus - abs(p.lambda_value)) <= 1e-15 * max(
                1.0, p.modulus
            )
            assert p.source == source


def test_conjugate_pairing(zheng3):
    disc = discriminant(characteristic_polynomial(zheng3))
    points = exceptional_points(disc, EXACT_SOURCE)
    values = [p.lambda_value for p in points]
    for z in values:
        if abs(z.imag) > 1e-10:
            assert min(abs(z.conjugate() - w) for w in values) < 1e-10


def test_parity_pairing(zheng3):
    disc = discriminant(characteristic_polynomial(zheng3))
    values = [p.lambda_value for p in exceptional_points(disc, EXACT_SOURCE)]
    for z in values:
        assert min(abs(-z - w) for w in values) < 1e-10


def test_coalescence_at_reported_points(zheng3):
    cp = characteristic_polynomial(zheng3)
    disc = discriminant(cp)
    for p in exceptional_points(disc, EXACT_SOURCE):
        roots = exact_eigenvalues_at(cp, p.lambda_value)
        gaps = [abs(a - b) for i, a in enumerate(roots) for b in roots[i + 1:]]
        assert min(gaps) <= 1e-5
        roots_far = exact_eigenvalues_at(cp, 2.0 * p.lambda_value)
        gaps_far = [
            abs(a - b) for i, a in enumerate(roots_far) for b in roots_far[i + 1:]
        ]
        assert min(gaps_far) > 1e-3


def test_coalescence_for_reconstruction(zheng3):
    poly = reconstruct(p_space_series(zheng3, 2))
    disc = discriminant(poly)
    nearest = nearest_exceptional_point(
        exceptional_points(disc, reconstruction_source(2))
    )
    roots = eigenvalues_at(poly, nearest.lambda_value)
    assert abs(roots[0] - roots[1]) <= 1e-5
    roots_far = eigenvalues_at(poly, 2.0 * nearest.lambda_value)
    assert abs(roots_far[0] - roots_far[1]) > 1e-3


def test_table_convergence(zheng3):
    exact_disc = discriminant(characteristic_polynomial(zheng3))
    exact_modulus = nearest_exceptional_point(
        exceptional_points(exact_disc, EXACT_SOURCE)
    ).modulus
    previous_error = None
    for k, expected in TABLE_PRESENT.items():
        disc = discriminant(reconstruct(p_space_series(zheng3, k)))
        nearest = nearest_exceptional_point(
            exceptional_points(disc, reconstruction_source(k))
        )
        assert nearest.modulus == pytest.approx(expected, abs=1e-9), f"K={k}"
        error = abs(nearest.modulus - exact_modulus)
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
    points = exceptional_points(disc, EXACT_SOURCE)
    nearest = nearest_exceptional_point(points)
    assert nearest.modulus == pytest.approx(EXACT_EP1_MODULUS, abs=1e-9)
    assert nearest.multiplicity == 2
    assert 0.0 <= cmath.phase(nearest.lambda_value) < cmath.pi
    assert nearest.lambda_value.imag > 0


def test_nearest_single_element():
    point = ExceptionalPointEstimate(
        lambda_value=-0.5j, modulus=0.5, source=EXACT_SOURCE, residual=0.0
    )
    assert nearest_exceptional_point([point]) is point


def test_nearest_empty_raises():
    with pytest.raises(EmptyList):
        nearest_exceptional_point([])


def test_double_root_at_origin():
    points = exceptional_points(Polynomial((0.0, 0.0, 4.0)), EXACT_SOURCE)
    assert len(points) == 2
    for p in points:
        assert p.modulus < 1e-12
        assert p.multiplicity == 2
