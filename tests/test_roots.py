import numpy as np
import pytest

from secres import ZeroPolynomial, all_roots, sort_roots

from oracles import poly_mul


def test_factored_quadratic():
    # W^2 - 3W + 2 = (W - 1)(W - 2)
    result = all_roots([2.0, -3.0, 1.0])
    assert result.converged
    roots = sort_roots(result.roots)
    assert roots[0] == pytest.approx(1.0, abs=1e-12)
    assert roots[1] == pytest.approx(2.0, abs=1e-12)


def test_toy_cubic_at_zero_coupling():
    # E^3 - 4.1 E^2 + 5.3 E - 2.2 has roots 1, 1.1, 2
    result = all_roots([-2.2, 5.3, -4.1, 1.0])
    roots = sort_roots(result.roots)
    assert [z.real for z in roots] == pytest.approx([1.0, 1.1, 2.0], abs=1e-9)


def test_constructed_double_root():
    center = 0.3 + 0.4j
    coefficients = [center * center, -2.0 * center, 1.0]
    result = all_roots(coefficients)
    assert abs(result.roots[0] - result.roots[1]) < 1e-6
    for z in result.roots:
        assert abs(z - center) < 1e-6


def test_zero_polynomial_raises():
    with pytest.raises(ZeroPolynomial):
        all_roots([0.0, 0.0])


def test_constant_has_no_roots():
    result = all_roots([3.0])
    assert result.roots == ()
    assert result.max_residual == 0.0


def test_tol_must_be_positive():
    with pytest.raises(ValueError):
        all_roots([1.0, 1.0], tol=0.0)


def test_trailing_zero_stripping_sets_degree():
    result = all_roots([2.0, -3.0, 1.0, 0.0, 0.0])
    assert len(result.roots) == 2


def test_vieta_on_random_polynomials():
    rng = np.random.default_rng(101)
    for _ in range(25):
        degree = int(rng.integers(1, 9))
        coefficients = [
            complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            for _ in range(degree + 1)
        ]
        while abs(coefficients[-1]) < 0.2:
            coefficients[-1] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        result = all_roots(coefficients)
        assert result.converged
        total = sum(result.roots)
        expected_sum = -coefficients[-2] / coefficients[-1]
        assert abs(total - expected_sum) <= 1e-10 * max(1.0, abs(expected_sum))
        product = 1.0 + 0.0j
        for z in result.roots:
            product *= z
        expected_product = (-1) ** degree * coefficients[0] / coefficients[-1]
        assert abs(product - expected_product) <= 1e-10 * max(
            1.0, abs(expected_product)
        )


def test_reconstruction_from_well_separated_roots():
    rng = np.random.default_rng(103)
    for _ in range(15):
        degree = int(rng.integers(2, 9))
        roots = []
        while len(roots) < degree:
            z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            if all(abs(z - w) > 0.3 for w in roots):
                roots.append(z)
        coefficients = [1.0 + 0.0j]
        for z in roots:
            coefficients = poly_mul(coefficients, [-z, 1.0])
        found = all_roots(coefficients)
        rebuilt = [1.0 + 0.0j]
        for z in found.roots:
            rebuilt = poly_mul(rebuilt, [-z, 1.0])
        for a, b in zip(rebuilt, coefficients):
            assert abs(a - b) <= 1e-8 * max(1.0, abs(b))


def test_conjugate_closure_for_real_coefficients():
    rng = np.random.default_rng(107)
    for _ in range(15):
        degree = int(rng.integers(2, 9))
        coefficients = [float(rng.uniform(-1, 1)) for _ in range(degree + 1)]
        while abs(coefficients[-1]) < 0.2:
            coefficients[-1] = float(rng.uniform(-1, 1))
        result = all_roots(coefficients)
        for z in result.roots:
            assert min(abs(z.conjugate() - w) for w in result.roots) < 1e-9


def test_agreement_with_companion_matrix_oracle():
    rng = np.random.default_rng(109)
    for _ in range(15):
        degree = int(rng.integers(1, 9))
        coefficients = [
            complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            for _ in range(degree + 1)
        ]
        while abs(coefficients[-1]) < 0.2:
            coefficients[-1] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        mine = sort_roots(all_roots(coefficients).roots)
        # numpy.roots wants descending coefficients
        reference = sort_roots(np.roots(list(reversed(coefficients))))
        for a, b in zip(mine, reference):
            assert abs(a - b) < 1e-8


def test_max_residual_finite_and_small():
    result = all_roots([-2.2, 5.3, -4.1, 1.0])
    assert np.isfinite(result.max_residual)
    assert result.max_residual < 1e-10


def test_non_finite_iterate_is_not_converged():
    # the Cauchy circle of radius 1e8 overflows z^80 and the first step is
    # NaN; max() would skip it, so the failure must be reported explicitly
    result = all_roots([1.0] + [0.0] * 79 + [1e-8])
    assert not result.converged
    assert np.isnan(result.max_residual)


def test_sort_roots_convention():
    values = [1.0 + 1.0j, 1.0 - 1.0j, 0.5 + 0.0j]
    assert sort_roots(values) == [0.5 + 0.0j, 1.0 - 1.0j, 1.0 + 1.0j]
