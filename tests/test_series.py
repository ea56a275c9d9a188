import numpy as np
import pytest

from secres import Polynomial
from secres.series import products

from oracles import (
    is_even, monomial, poly_mul, ring_add, ring_mul, ring_sub, truncate,
)

# the two second-order toy series: 1 - 10*l^2 and 1.1 + (80/9)*l^2
S_LOW = Polynomial((1.0, 0.0, -10.0))
S_MID = Polynomial((1.1, 0.0, 80.0 / 9.0))


def random_series(rng, order):
    return Polynomial(tuple(rng.uniform(-1, 1, order + 1)))


def product(a, b, order=None):
    """products on two Polynomials, truncated at an order as reconstruct does."""
    full = products(np.array(a.coefficients), np.array(b.coefficients))
    return Polynomial(tuple(full[:None if order is None else order + 1].tolist()))


def hex_of(p):
    return [c.hex() for c in p.coefficients]


def test_add_second_order_series():
    # exact rational sum: -10 + 80/9 = -10/9
    total = ring_add(S_LOW, S_MID)
    assert total.degree == 2
    assert total.coefficients[0] == pytest.approx(2.1, abs=1e-15)
    assert total.coefficients[1] == 0.0
    assert total.coefficients[2] == pytest.approx(-10.0 / 9.0, abs=1e-14)


def test_add_zero_is_identity():
    assert ring_add(S_LOW, Polynomial((0.0, 0.0, 0.0))) == S_LOW
    assert ring_add(S_LOW, Polynomial((0.0,))) == S_LOW


def test_add_negation_gives_zero():
    assert ring_sub(S_LOW, S_LOW) == Polynomial((0.0, 0.0, 0.0))


def test_mul_truncated_drops_cross_term():
    # exact product then manual truncation: 80/9 - 11 = -19/9 on l^2
    truncated = product(S_LOW, S_MID, order=2)
    expected = truncate(poly_mul(S_LOW.coefficients, S_MID.coefficients), 2)
    assert list(truncated.coefficients) == pytest.approx(expected, abs=1e-15)
    assert truncated.coefficients[2] == pytest.approx(-19.0 / 9.0, abs=1e-14)
    assert hex_of(truncated) == hex_of(ring_mul(S_LOW, S_MID, order=2))


def test_mul_by_unit_is_identity():
    assert product(S_LOW, Polynomial((1.0, 0.0, 0.0)), order=2) == S_LOW
    assert product(S_LOW, Polynomial((1.0,))) == S_LOW
    assert ring_mul(S_LOW, Polynomial((1.0, 0.0, 0.0)), order=2) == S_LOW
    assert ring_mul(S_LOW, Polynomial((1.0,))) == S_LOW


def test_mul_monomials_beyond_order_vanish():
    lam = Polynomial(tuple(monomial(1, 1.0, 1)))
    assert product(lam, lam, order=1) == Polynomial((0.0, 0.0))
    assert ring_mul(lam, lam, order=1) == Polynomial((0.0, 0.0))


def test_mul_order_sets_length():
    rng = np.random.default_rng(17)
    a, b = random_series(rng, 5), random_series(rng, 5)
    assert len(ring_add(a, b).coefficients) == 6
    assert len(product(a, b).coefficients) == 11
    assert hex_of(product(a, b)) == hex_of(ring_mul(a, b))
    for k in (0, 3, 5, 8):
        assert len(ring_mul(a, b, order=k).coefficients) == k + 1
        assert hex_of(product(a, b, order=k)) == hex_of(ring_mul(a, b, order=k))
    exact = poly_mul(a.coefficients, b.coefficients)
    assert list(product(a, b, order=8).coefficients) == pytest.approx(
        truncate(exact, 8), abs=1e-15
    )


def test_trimmed_drops_small_tails():
    p = Polynomial((1.0, 2.0, 1e-13, 0.0))
    # no arithmetic drops coefficients; trimmed() alone decides the degree
    assert ring_add(p, p).degree == 3
    assert product(p, Polynomial((1.0,))).degree == 3
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
        assert close_coefficientwise(product(a, b, k), product(b, a, k), 1e-14)
        assert close_coefficientwise(
            product(product(a, b, k), c, k), product(a, product(b, c, k), k), 1e-14
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
        got = product(a, b, k).evaluate(lam)
        want = a.evaluate(lam) * b.evaluate(lam)
        assert abs(got - want) <= 1e-13 * max(1.0, abs(want))


def test_product_skips_zero_factors():
    # 0 * inf is nan, so a zero coefficient of the first factor adds no
    # term: the constant coefficient is +0.0 and nothing is nan
    inf = float("inf")
    with np.errstate(invalid="ignore"):  # the skipped term is formed
        got = products(np.array([0.0, 1.0]), np.array([inf, 1.0]))
    want = ["0x0.0p+0", "inf", "0x1.0000000000000p+0"]
    assert [c.hex() for c in got.tolist()] == want
    assert hex_of(ring_mul(Polynomial((0.0, 1.0)), Polynomial((inf, 1.0)))) == want



def test_products_ignore_the_sign_of_every_zero():
    # the discriminant pads with +0.0 where the ring keeps shorter
    # polynomials, which rests on this: the sign of a zero in either
    # operand never reaches a product's bytes, and no product holds -0.0
    rng = np.random.default_rng(27)
    for batch in range(300):
        rows, cols = (int(n) for n in rng.integers(1, 8, size=2))
        a = np.where(rng.random((3, rows)) < 0.4, 0.0, rng.uniform(-1, 1, (3, rows)))
        b = np.where(rng.random((3, cols)) < 0.4, 0.0, rng.uniform(-1, 1, (3, cols)))
        if batch % 3 == 0:
            a[...] = 0.0
        want = products(a, b)
        assert not np.any(np.signbit(want[want == 0.0]))
        for operand in (a, b):
            # each zero on its own, then every zero at once
            zeros = [np.unravel_index(n, operand.shape)
                     for n in np.flatnonzero(operand == 0.0)]
            for flipped in [[z] for z in zeros] + [zeros]:
                saved = operand.copy()
                for z in flipped:
                    operand[z] = -operand[z]
                assert products(a, b).tobytes() == want.tobytes()
                operand[...] = saved
