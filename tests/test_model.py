import json

import numpy as np
import pytest

from secres import (
    DegenerateUnperturbed,
    DiagonalInteraction,
    DuplicateEntry,
    EmptyPSpace,
    IndexOutOfRange,
    MatrixModel,
    ModelFormatError,
    interaction_matrix,
    load_model,
    validate,
)

from oracles import hamiltonian_at


def model_with(**overrides) -> MatrixModel:
    fields = dict(
        dimension=3,
        h0_diagonal=(2.0, 1.1, 1.0),
        interaction=((1, 2, 1.0), (2, 3, 1.0)),
        p_space=(2, 3),
    )
    fields.update(overrides)
    return MatrixModel(**fields)


def test_toy_model_is_valid(zheng3):
    assert zheng3.dimension == 3
    assert zheng3.h0_diagonal == (2.0, 1.1, 1.0)
    assert zheng3.p_space == (2, 3)


def test_validate_returns_identical_object(zheng3):
    assert validate(zheng3) is zheng3
    assert validate(validate(zheng3)) is zheng3


def test_degenerate_diagonal_rejected():
    with pytest.raises(DegenerateUnperturbed, match="1 and 2"):
        validate(model_with(h0_diagonal=(1.0, 1.0, 2.0)))


def test_diagonal_interaction_rejected():
    with pytest.raises(DiagonalInteraction, match=r"\(2, 2\)"):
        validate(model_with(interaction=((1, 2, 1.0), (2, 2, 0.5))))


def test_out_of_range_interaction_rejected():
    with pytest.raises(IndexOutOfRange):
        validate(model_with(interaction=((1, 4, 1.0),)))


def test_duplicate_interaction_rejected():
    with pytest.raises(DuplicateEntry):
        validate(model_with(interaction=((1, 2, 1.0), (1, 2, 0.5))))


def test_mirrored_duplicate_rejected():
    # (2, 1) names the same symmetric entry as (1, 2)
    with pytest.raises(DuplicateEntry):
        validate(model_with(interaction=((1, 2, 1.0), (2, 1, 0.5))))


def test_empty_p_space_rejected():
    with pytest.raises(EmptyPSpace):
        validate(model_with(p_space=()))


def test_duplicate_p_space_rejected():
    with pytest.raises(DuplicateEntry):
        validate(model_with(p_space=(2, 2)))


def test_p_space_out_of_range_rejected():
    with pytest.raises(IndexOutOfRange):
        validate(model_with(p_space=(4,)))


def test_wrong_h0_length_rejected():
    with pytest.raises(ModelFormatError):
        MatrixModel.from_dict(
            {
                "dimension": 3,
                "h0_diagonal": [1, 2],
                "interaction": [],
                "p_space": [1],
            }
        )


def test_load_model_round_trip(tmp_path, zheng3):
    path = tmp_path / "copy.json"
    path.write_text(json.dumps(zheng3.to_dict()))
    assert load_model(path) == zheng3


def test_load_model_rejects_non_object(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("[1, 2, 3]")
    with pytest.raises(ModelFormatError):
        load_model(path)


def test_hamiltonian_at_zero_is_diagonal(zheng3):
    h = hamiltonian_at(zheng3, 0.0)
    assert np.allclose(h, np.diag([2.0, 1.1, 1.0]))


def test_hamiltonian_at_one(zheng3):
    h = hamiltonian_at(zheng3, 1.0)
    expected = np.array([[2.0, 1.0, 0.0], [1.0, 1.1, 1.0], [0.0, 1.0, 1.0]])
    assert np.allclose(h, expected)


def test_hamiltonian_linear_in_lambda(zheng3):
    h = hamiltonian_at(zheng3, 1j)
    assert h[0, 1] == 1j
    assert h[1, 0] == 1j


@pytest.mark.parametrize("lam", [0.3, -1.2, 0.25 + 0.75j, -0.1 - 2.3j])
def test_hamiltonian_symmetric_for_complex_coupling(zheng3, lam):
    h = hamiltonian_at(zheng3, lam)
    assert np.array_equal(h, h.T)


def test_hamiltonian_affine_in_lambda(zheng3):
    h0 = hamiltonian_at(zheng3, 0.0)
    h1 = hamiltonian_at(zheng3, 1.0)
    rng = np.random.default_rng(7)
    for _ in range(10):
        lam = complex(rng.normal(), rng.normal())
        expected = h0 + lam * (h1 - h0)
        assert np.max(np.abs(hamiltonian_at(zheng3, lam) - expected)) < 1e-15


def test_interaction_matrix_symmetric(zheng3):
    v = interaction_matrix(zheng3)
    assert np.array_equal(v, v.T)
    assert v[0, 1] == 1.0 and v[1, 2] == 1.0 and v[0, 2] == 0.0
