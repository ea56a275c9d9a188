"""Changes of units and of coupling strength move every exceptional point
as they must, and the exact route's partner groups are closed under
conjugation.

H -> aH leaves every EP where it is; V -> cV moves each to lambda/c.  The
exact route (one eigenproblem of H(lambda), no polynomial) keeps both to
rounding for any a and c.  The order-K route keeps V -> 2^e V to rounding
for small e only: its truncated coefficients are trimmed relative to the
largest, and coefficient k scales as c^k.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from secres import (
    MatrixModel,
    discriminant,
    exact_exceptional_points,
    exceptional_points,
    load_model,
    nearest_exceptional_point,
    p_space_series,
    reconstruct,
)

from conftest import ZHENG3_PATH, benchmark_models
from oracles import random_model_data
from test_cli import table1_values


def seeded_model(dim):
    h0, interaction = random_model_data(np.random.default_rng(100 + dim), dim)
    return MatrixModel(dim, h0, interaction, (1, 2))


ZHENG3 = load_model(ZHENG3_PATH)
EXACT_MODELS = ([ZHENG3] + benchmark_models("ep-exact")
                + [seeded_model(dim) for dim in range(5, 10)])


def scaled(model, a=1.0, c=1.0):
    """H -> a(H0 + c lambda V)."""
    return MatrixModel(model.dimension, tuple(a * e for e in model.h0_diagonal),
                       tuple((i, j, a * c * v) for i, j, v in model.interaction),
                       model.p_space)


def exact_nearest(model):
    return nearest_exceptional_point(exact_exceptional_points(model))


def order_nearest(model, order):
    disc = discriminant(reconstruct(p_space_series(model, order)))
    return nearest_exceptional_point(exceptional_points([disc])[0])


@pytest.mark.parametrize("a", [1e-6, 1e-3, 0.1, 3.0, 7.0, 1e3, 1e6])
def test_exact_nearest_ep_invariant_under_units(a):
    for n, model in enumerate(EXACT_MODELS):
        want = exact_nearest(model)
        assert abs(exact_nearest(scaled(model, a=a)) - want) <= 1e-14 * abs(want), n


@pytest.mark.parametrize("c", [1e-6, 1e-3, 3.0, 1e3, 1e6, 1e12])
def test_exact_nearest_ep_scales_with_the_coupling(c):
    for n, model in enumerate(EXACT_MODELS):
        want = exact_nearest(model)
        assert abs(c * exact_nearest(scaled(model, c=c)) - want) <= 1e-14 * abs(want), n


def test_exact_groups_are_closed_under_conjugation():
    def key(z):
        return z.real, z.imag
    for n, model in enumerate([ZHENG3] + benchmark_models()):
        for group in exact_exceptional_points(model):
            assert sorted(group, key=key) == sorted((z.conjugate() for z in group), key=key), n


@pytest.mark.parametrize("e", [-2, -1, 1, 2, 10])
def test_order_k_nearest_ep_scales_with_a_power_of_two_coupling(e):
    c = 2.0 ** e
    for n, model in enumerate([ZHENG3] + benchmark_models()):
        want = order_nearest(model, 6)
        assert abs(c * order_nearest(scaled(model, c=c), 6) - want) <= 1e-15 * abs(want), n


@pytest.mark.xfail(strict=True, reason=(
    "Polynomial.trimmed cuts the truncated coefficients at 1e-12 of the "
    "largest while coefficient k scales as c^k: at V/256 the K=4 row moves "
    "by 2.8e-7 and the K=6-10 rows by 5.0e-6; the exact row is exact"))
def test_table1_rows_scale_with_the_coupling(tmp_path, capsys):
    data = json.loads(Path(ZHENG3_PATH).read_text())
    data["interaction"] = [[i, j, v / 256.0] for i, j, v in data["interaction"]]
    path = tmp_path / "coupling.json"
    path.write_text(json.dumps(data))
    want = table1_values(capsys)
    got = table1_values(capsys, "--model", str(path))
    assert got.keys() == want.keys()
    for label, value in want.items():
        assert abs(got[label] - 256.0 * value) <= 1e-14 * 256.0 * value, label
