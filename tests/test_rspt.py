import numpy as np
import pytest

from secres import (
    IndexOutOfRange,
    InvariantViolation,
    exact_eigenvalues_at,
    p_space_series,
    perturbation_series,
)

from conftest import roots_at
from oracles import (
    is_even,
    random_model_data,
    rspt_energies,
    second_order_coefficient,
)
from secres import MatrixModel

TOY_COUPLINGS = {(1, 2): 1.0, (2, 3): 1.0}
TOY_H0 = (2.0, 1.1, 1.0)


@pytest.mark.parametrize(
    "state, exact_second_order",
    [(3, -10.0), (2, 80.0 / 9.0), (1, 10.0 / 9.0)],
)
def test_second_order_matches_closed_form(zheng3, state, exact_second_order):
    series = perturbation_series(zheng3, state, 2)
    oracle = second_order_coefficient(TOY_H0, TOY_COUPLINGS, state)
    assert series.coefficients[0] == TOY_H0[state - 1]
    assert series.coefficients[1] == 0.0
    assert series.coefficients[2] == pytest.approx(oracle, abs=1e-13)
    assert series.coefficients[2] == pytest.approx(exact_second_order, abs=1e-12)


def test_random_models_second_order_matches_closed_form():
    rng = np.random.default_rng(23)
    for _ in range(10):
        dim = int(rng.integers(2, 6))
        h0, interaction = random_model_data(rng, dim)
        model = MatrixModel(dim, h0, interaction, (1,))
        couplings = {(i, j): v for i, j, v in interaction}
        for n in range(1, dim + 1):
            series = perturbation_series(model, n, 2)
            oracle = second_order_coefficient(h0, couplings, n)
            assert series.coefficients[2] == pytest.approx(oracle, rel=1e-12)


def test_order_zero_is_unperturbed_energy(zheng3):
    for n, e0 in ((1, 2.0), (2, 1.1), (3, 1.0)):
        series = perturbation_series(zheng3, n, 0)
        assert series.coefficients == (e0,)


def test_state_index_out_of_range(zheng3):
    with pytest.raises(IndexOutOfRange):
        perturbation_series(zheng3, 4, 2)
    with pytest.raises(IndexOutOfRange):
        perturbation_series(zheng3, 0, 2)


def test_negative_order_rejected(zheng3):
    with pytest.raises(ValueError):
        perturbation_series(zheng3, 1, -1)


def test_overflowing_series_rejected():
    # a 1e-200 gap makes the fourth-order coefficient overflow to inf
    model = MatrixModel(2, (0.0, 1e-200), ((1, 2, 1.0),), (1,))
    with np.errstate(all="ignore"), pytest.raises(
        InvariantViolation, match="non-finite coefficient"
    ):
        p_space_series(model, 4)


def test_p_space_series_follows_p_space_order(zheng3):
    states = p_space_series(zheng3, 2)
    assert states[0].coefficients[0] == 1.1
    assert states[1].coefficients[0] == 1.0


def test_full_space_second_order_coefficients_cancel(zheng3):
    full = MatrixModel(3, zheng3.h0_diagonal, zheng3.interaction, (1, 2, 3))
    states = p_space_series(full, 2)
    total = sum(s.coefficients[2] for s in states)
    assert abs(total) < 1e-12
    constant = sum(s.coefficients[0] for s in states)
    assert constant == pytest.approx(4.1, abs=1e-14)


def test_trace_identity_all_orders(zheng3):
    # the trace of H(lambda) is lambda-free, so summed coefficients vanish at
    # every order >= 1 up to rounding in the (large) individual coefficients
    full = MatrixModel(3, zheng3.h0_diagonal, zheng3.interaction, (1, 2, 3))
    states = p_space_series(full, 10)
    for order in range(1, 11):
        column = [s.coefficients[order] for s in states]
        scale = max(1.0, max(abs(c) for c in column))
        assert abs(sum(column)) <= 1e-12 * scale, f"order {order}"


def test_parity_odd_coefficients_vanish(zheng3):
    for n in (1, 2, 3):
        series = perturbation_series(zheng3, n, 10)
        assert is_even(series.coefficients, 1e-12)


def test_prefix_stability(zheng3):
    for n in (1, 2, 3):
        low = perturbation_series(zheng3, n, 6)
        high = perturbation_series(zheng3, n, 8)
        assert high.coefficients[:7] == low.coefficients


def test_taylor_consistency_against_exact_roots(zheng3):
    # the truncation error at small coupling is dominated by the first
    # omitted (even) term, so it shrinks ~2^(K+2) when lambda is halved
    errors = {}
    for lam in (0.01, 0.005):
        exact = roots_at(exact_eigenvalues_at, zheng3, lam)
        per_state = []
        for n in (1, 2, 3):
            value = perturbation_series(zheng3, n, 6).evaluate(lam)
            per_state.append(abs(value - min(exact, key=lambda x: abs(x - value))))
        errors[lam] = per_state
    assert max(errors[0.01]) < 1e-8
    # scaling check on the two slowly-converging states (state 1 sits at
    # rounding noise already)
    for i in (1, 2):
        ratio = errors[0.01][i] / errors[0.005][i]
        assert 150.0 < ratio < 450.0


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6, 7])
def test_series_bitwise_equal_to_double_loop(dim):
    rng = np.random.default_rng(400 + dim)
    h0, interaction = random_model_data(rng, dim)
    model = MatrixModel(dim, h0, interaction, (1,))
    for state in range(1, dim + 1):
        got = perturbation_series(model, state, 40).coefficients
        want = rspt_energies(model, state, 40)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
