"""Renaming or reordering the basis states leaves every result alone.

A relabeling permutes the rows and columns of H(lambda), so the spectrum at
each coupling, the model-space series and every exceptional point stay the
same; only rounding may differ.  Each model is solved as given, with its
basis reversed, and with its basis shifted cyclically by one, the model
space mapped along.
"""

import numpy as np
import pytest

from secres import (
    MatrixModel,
    SecresError,
    discriminant,
    eigenvalues_at,
    exact_eigenvalues_at,
    exact_exceptional_points,
    exceptional_points,
    load_model,
    nearest_exceptional_point,
    p_space_series,
    reconstruct,
)

from conftest import ZHENG3_PATH
from oracles import random_model_data

GRID = np.linspace(-0.5, 0.5, 11).tolist()
MODELS = ["zheng3", 4, 5, 6]


def model_named(name) -> MatrixModel:
    """zheng3, or a seeded full-coupling model of that dimension with
    model space [1, 2]."""
    if name == "zheng3":
        return load_model(ZHENG3_PATH)
    h0, interaction = random_model_data(np.random.default_rng(100 + name), name)
    return MatrixModel(name, h0, interaction, (1, 2))


def relabeled(model: MatrixModel, labels) -> MatrixModel:
    """The model with basis state i renamed labels[i - 1]."""
    h0 = [0.0] * model.dimension
    for old, energy in enumerate(model.h0_diagonal):
        h0[labels[old] - 1] = energy
    interaction = tuple((labels[i - 1], labels[j - 1], value)
                        for i, j, value in model.interaction)
    p_space = tuple(labels[n - 1] for n in model.p_space)
    return MatrixModel(model.dimension, tuple(h0), interaction, p_space)


def labelings(name) -> list[MatrixModel]:
    """The model as given, reversed, and shifted cyclically by one."""
    model = model_named(name)
    dim = model.dimension
    return [model] + [relabeled(model, labels) for labels in (
        range(dim, 0, -1),
        [i % dim + 1 for i in range(1, dim + 1)],
    )]


@pytest.mark.parametrize("solve", [
    lambda model: eigenvalues_at(reconstruct(p_space_series(model, 6)), GRID),
    lambda model: exact_eigenvalues_at(model, GRID),
], ids=["order-6", "exact"])
@pytest.mark.parametrize("name", MODELS)
def test_sweep_cells_invariant_under_relabeling(name, solve):
    (want, want_failures), *others = map(solve, labelings(name))
    kept = [m not in want_failures for m in range(len(GRID))]
    bound = 1e-13 * np.abs(want[kept]).max(axis=1)
    for got, failures in others:
        assert failures.keys() == want_failures.keys()
        assert (np.abs(got[kept] - want[kept]).max(axis=1) <= bound).all()


def nearest_or_fault(solve):
    """The nearest exceptional point that solve() locates, or the type of
    the error it raised."""
    try:
        return nearest_exceptional_point(solve())
    except SecresError as exc:
        return type(exc)


def assert_same_nearest_ep(solves):
    """Every solve has the same nearest exceptional point to 1e-13
    relative, or each of them fails with the same exception type."""
    want, *others = map(nearest_or_fault, solves)
    for got in others:
        if isinstance(want, type) or isinstance(got, type):
            assert got is want
        else:
            assert abs(got - want) <= 1e-13 * abs(want)


@pytest.mark.parametrize("order", [6, 20])
@pytest.mark.parametrize("name", MODELS)
def test_order_k_nearest_ep_invariant_under_relabeling(name, order):
    assert_same_nearest_ep(
        lambda disc=discriminant(reconstruct(p_space_series(model, order))):
        exceptional_points([disc])[0]
        for model in labelings(name))


@pytest.mark.parametrize("name", ["zheng3", 4, 5, 6, 9, 12])
def test_exact_nearest_ep_invariant_under_relabeling(name):
    assert_same_nearest_ep(lambda model=model: exact_exceptional_points(model)
                           for model in labelings(name))
