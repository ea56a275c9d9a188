import argparse
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from secres import (
    InvariantViolation,
    MatrixModel,
    Polynomial,
    characteristic_polynomial,
    eigenvalues_at,
    exact_eigenvalues_at,
    p_space_series,
    reconstruct,
)
from secres.cli import cmd_reconstruct

from conftest import roots_at
from oracles import poly_mul, truncate


def test_reconstruct_two_states_matches_hand_expansion(zheng3):
    poly = reconstruct(p_space_series(zheng3, 2))
    assert poly.degree == 2
    assert all(len(p.coefficients) == 3 for p in poly.coefficients)
    perturbed = p_space_series(zheng3, 2)
    s_mid = perturbed[0].coefficients
    s_low = perturbed[1].coefficients
    # (W - a)(W - b) = W^2 - (a+b) W + ab, product truncated at the order
    p1_expected = [-(x + y) for x, y in zip(s_mid, s_low)]
    p2_expected = truncate(poly_mul(s_mid, s_low), 2)
    assert list(poly.coefficients[0].coefficients) == pytest.approx(
        p1_expected, abs=1e-15
    )
    assert list(poly.coefficients[1].coefficients) == pytest.approx(
        p2_expected, abs=1e-15
    )
    # and the frozen values: p1 = -(2.1 - (10/9) l^2), p2 = 1.1 - (19/9) l^2
    assert poly.coefficients[0].coefficients[0] == pytest.approx(-2.1, abs=1e-14)
    assert poly.coefficients[0].coefficients[2] == pytest.approx(10 / 9, abs=1e-13)
    assert poly.coefficients[1].coefficients[0] == pytest.approx(1.1, abs=1e-14)
    assert poly.coefficients[1].coefficients[2] == pytest.approx(-19 / 9, abs=1e-13)


def test_reconstruct_single_series():
    poly = reconstruct([Polynomial((1.0, 0.0, -10.0))])
    assert poly.degree == 1
    assert poly.coefficients[0].coefficients == (-1.0, -0.0, 10.0)


def test_reconstruct_full_space_reproduces_exact_charpoly(zheng3):
    # reconstruction over ALL states at K=2 must equal the exact
    # characteristic polynomial, whose coefficients have lambda-degree <= 2
    full = MatrixModel(3, zheng3.h0_diagonal, zheng3.interaction, (1, 2, 3))
    poly = reconstruct(p_space_series(full, 2))
    cp = characteristic_polynomial(full)
    for series, exact in zip(poly.coefficients, cp.coefficients):
        got = list(series.coefficients)
        want = truncate(exact.coefficients, 2)
        assert got == pytest.approx(want, abs=1e-12)


def test_reconstruct_at_zero_coupling_gives_elementary_symmetric():
    from itertools import combinations

    from oracles import random_model_data

    rng = np.random.default_rng(37)
    h0, interaction = random_model_data(rng, 4)
    model = MatrixModel(4, h0, interaction, (1, 3, 4))
    poly = reconstruct(p_space_series(model, 3))
    energies = [h0[0], h0[2], h0[3]]
    for j, series in enumerate(poly.coefficients, start=1):
        elementary = sum(
            np.prod(combo) for combo in combinations(energies, j)
        )
        assert series.coefficients[0] == pytest.approx(
            (-1) ** j * elementary, rel=1e-13
        )


def test_reconstruct_is_symmetric_in_inputs(zheng3):
    states = p_space_series(zheng3, 6)
    forward = reconstruct(states)
    backward = reconstruct(states[::-1])
    assert forward == backward


def benchmark_models():
    """The seeded models of every benchmark workload, seeds 1-3."""
    path = Path(__file__).parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    # its dataclass looks the module up by name while it is defined
    sys.modules[spec.name] = workloads
    spec.loader.exec_module(workloads)
    return [MatrixModel.from_dict(data)
            for workload in workloads.WORKLOADS for seed in (1, 2, 3)
            for data in workloads.seeded_models(workload, seed)]


def test_reconstruct_truncates_inside_every_product(zheng3):
    # no product term above the order is ever formed, so each p_j of order k
    # is the first k+1 coefficients of p_j at order 40, bit for bit
    for model in [zheng3] + benchmark_models():
        high = reconstruct(p_space_series(model, 40)).coefficients
        for k in (0, 1, 6, 20, 39):
            low = reconstruct(p_space_series(model, k)).coefficients
            assert [[c.hex() for c in p.coefficients] for p in low] == [
                [c.hex() for c in p.coefficients[:k + 1]] for p in high
            ], (model, k)


def test_reconstruct_empty_raises():
    with pytest.raises(ValueError,
                       match="reconstruct needs at least one energy series"):
        reconstruct([])


def test_reconstruct_mixed_orders_raises():
    with pytest.raises(ValueError, match="series orders differ: 2 vs 3"):
        reconstruct([Polynomial((0.0,) * 3), Polynomial((0.0,) * 4)])


def test_reconstruct_rejects_overflow():
    # the product of the two constants overflows to inf in p_2
    huge = Polynomial((1e200, 0.0))
    with pytest.raises(InvariantViolation, match="non-finite coefficient"):
        reconstruct([huge, huge])


def test_vieta_sum_of_roots(zheng3):
    poly = reconstruct(p_space_series(zheng3, 6))
    rng = np.random.default_rng(31)
    for _ in range(10):
        lam = complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3))
        roots = roots_at(eigenvalues_at, poly, lam)
        total = sum(roots)
        expected = -poly.coefficients[0].evaluate(lam)
        assert abs(total - expected) <= 1e-12 * max(1.0, abs(expected))


def test_eigenvalues_at_zero(zheng3):
    poly = reconstruct(p_space_series(zheng3, 2))
    roots = roots_at(eigenvalues_at, poly, 0.0)
    assert roots[0].real == pytest.approx(1.0, abs=1e-12)
    assert roots[1].real == pytest.approx(1.1, abs=1e-12)


def test_eigenvalues_at_real_coupling_track_exact(zheng3):
    exact = roots_at(exact_eigenvalues_at, zheng3, 0.3)
    poly = reconstruct(p_space_series(zheng3, 6))
    effective = roots_at(eigenvalues_at, poly, 0.3)
    for eff, ref in zip(effective, exact[:2]):
        assert abs(eff.real - ref) < 1e-3
        assert abs(eff.imag) < 1e-10


def test_eigenvalues_nearly_coalesce_at_order2_ep(zheng3):
    poly = reconstruct(p_space_series(zheng3, 2))
    roots = roots_at(eigenvalues_at, poly, 0.0514718626j)
    assert abs(roots[0] - roots[1]) < 1e-5


def test_monotone_convergence_at_small_coupling(zheng3):
    exact = roots_at(exact_eigenvalues_at, zheng3, 0.05)[:2]
    previous = None
    for k in (4, 6, 8, 10):
        poly = reconstruct(p_space_series(zheng3, k))
        effective = roots_at(eigenvalues_at, poly, 0.05)
        error = max(abs(e.real - x) for e, x in zip(effective, exact))
        if previous is not None:
            assert error <= previous
        previous = error


def test_to_dict_schema(zheng3):
    poly = reconstruct(p_space_series(zheng3, 4))
    data = json.loads(cmd_reconstruct(zheng3, argparse.Namespace(order=4)))
    assert data["degree"] == 2
    assert data["order"] == 4
    assert len(data["coefficients"]) == 2
    assert all(len(row) == 5 for row in data["coefficients"])
    assert data["coefficients"] == [list(p.coefficients) for p in poly.coefficients]
