import numpy as np
import pytest

from secres import Polynomial

from oracles import is_even, monomial, poly_mul, truncate

# the two second-order toy series: 1 - 10*l^2 and 1.1 + (80/9)*l^2
S_LOW = Polynomial((1.0, 0.0, -10.0))
S_MID = Polynomial((1.1, 0.0, 80.0 / 9.0))


def random_series(rng, order):
    return Polynomial(tuple(rng.uniform(-1, 1, order + 1)))


def test_add_second_order_series():
    # exact rational sum: -10 + 80/9 = -10/9
    total = S_LOW + S_MID
    assert total.degree == 2
    assert total.coefficients[0] == pytest.approx(2.1, abs=1e-15)
    assert total.coefficients[1] == 0.0
    assert total.coefficients[2] == pytest.approx(-10.0 / 9.0, abs=1e-14)


def test_add_zero_is_identity():
    assert S_LOW + Polynomial((0.0, 0.0, 0.0)) == S_LOW
    assert S_LOW + Polynomial((0.0,)) == S_LOW


def test_add_negation_gives_zero():
    assert S_LOW - S_LOW == Polynomial((0.0, 0.0, 0.0))


def test_mul_truncated_drops_cross_term():
    # exact product then manual truncation: 80/9 - 11 = -19/9 on l^2
    product = S_LOW.mul(S_MID, order=2)
    expected = truncate(poly_mul(S_LOW.coefficients, S_MID.coefficients), 2)
    assert list(product.coefficients) == pytest.approx(expected, abs=1e-15)
    assert product.coefficients[2] == pytest.approx(-19.0 / 9.0, abs=1e-14)


def test_mul_by_unit_is_identity():
    assert S_LOW.mul(Polynomial((1.0, 0.0, 0.0)), order=2) == S_LOW
    assert S_LOW.mul(Polynomial((1.0,))) == S_LOW


def test_mul_monomials_beyond_order_vanish():
    lam = Polynomial(tuple(monomial(1, 1.0, 1)))
    assert lam.mul(lam, order=1) == Polynomial((0.0, 0.0))


def test_mul_order_sets_length():
    rng = np.random.default_rng(17)
    a, b = random_series(rng, 5), random_series(rng, 5)
    assert len((a + b).coefficients) == 6
    assert len(a.scale(2.5).coefficients) == 6
    assert len(a.mul(b).coefficients) == 11
    for k in (0, 3, 5, 8):
        assert len(a.mul(b, order=k).coefficients) == k + 1
    exact = poly_mul(a.coefficients, b.coefficients)
    assert list(a.mul(b, order=8).coefficients) == pytest.approx(
        truncate(exact, 8), abs=1e-15
    )


def test_trimmed_drops_small_tails():
    p = Polynomial((1.0, 2.0, 1e-13, 0.0))
    # no arithmetic drops coefficients; trimmed() alone decides the degree
    assert (p + p).degree == 3
    assert p.mul(Polynomial((1.0,))).degree == 3
    assert p.trimmed().coefficients == (1.0, 2.0)
    assert Polynomial((1.0, -1e-13)).trimmed().coefficients == (1.0,)
    assert Polynomial((1.0, 2e-12)).trimmed().coefficients == (1.0, 2e-12)
    assert Polynomial((0.0, 0.0)).trimmed().coefficients == (0.0,)
    assert Polynomial((1e-13,)).trimmed().coefficients == (1e-13,)


def test_evaluate_examples():
    assert S_LOW.evaluate(0.0) == 1.0
    assert S_LOW.evaluate(0.1) == pytest.approx(0.9, abs=1e-15)
    assert S_LOW.evaluate(0.1j) == pytest.approx(1.1, abs=1e-15)


def test_is_even():
    assert is_even(S_LOW.coefficients, 1e-12)
    assert not is_even(monomial(1, 1.0, 1), 1e-12)
    assert is_even(monomial(1, 1e-13, 1), 1e-12)


def close_coefficientwise(a, b, rel):
    scale = max(1.0, max(abs(x) for x in a.coefficients))
    return all(
        abs(x - y) <= rel * scale
        for x, y in zip(a.coefficients, b.coefficients)
    )


def test_mul_commutative_and_associative():
    rng = np.random.default_rng(11)
    for _ in range(25):
        k = int(rng.integers(0, 9))
        a, b, c = (random_series(rng, k) for _ in range(3))
        assert close_coefficientwise(a.mul(b, k), b.mul(a, k), 1e-14)
        assert close_coefficientwise(
            a.mul(b, k).mul(c, k), a.mul(b.mul(c, k), k), 1e-14
        )


def test_truncated_product_evaluates_like_exact_product_below_order():
    # degrees summing to <= K: truncation discards nothing
    rng = np.random.default_rng(13)
    for _ in range(25):
        k = int(rng.integers(2, 10))
        da = int(rng.integers(0, k + 1))
        db = k - da
        a_coeffs = [float(rng.uniform(-1, 1)) for _ in range(da + 1)]
        b_coeffs = [float(rng.uniform(-1, 1)) for _ in range(db + 1)]
        a = Polynomial(tuple(truncate(a_coeffs, k)))
        b = Polynomial(tuple(truncate(b_coeffs, k)))
        lam = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        lam /= max(1.0, abs(lam))
        got = a.mul(b, k).evaluate(lam)
        want = a.evaluate(lam) * b.evaluate(lam)
        assert abs(got - want) <= 1e-13 * max(1.0, abs(want))
