import json
from pathlib import Path

import numpy as np
import pytest

from secres import (
    MatrixModel,
    Polynomial,
    characteristic_polynomial,
    eigenvalues_at,
)

from conftest import roots_at
from oracles import (
    charpoly_cofactor,
    hamiltonian_at,
    jacobi_eigenvalues,
    random_model_data,
)


def coefficients_close(a, b, tol: float) -> bool:
    ca, cb = list(a), list(b)
    size = max(len(ca), len(cb))
    ca += [0.0] * (size - len(ca))
    cb += [0.0] * (size - len(cb))
    return all(abs(x - y) <= tol for x, y in zip(ca, cb))


def test_lambda_polynomial_arithmetic():
    p = Polynomial((1.0, 2.0))          # 1 + 2x
    q = Polynomial((0.0, 0.0, 3.0))     # 3x^2
    assert (p + q).coefficients == (1.0, 2.0, 3.0)
    assert p.mul(q).coefficients == (0.0, 0.0, 3.0, 6.0)
    assert not any((p - p).coefficients)
    assert p.evaluate(2.0) == 5.0
    assert p.evaluate(1j) == 1 + 2j


def test_toy_charpoly_coefficients(zheng3):
    cp = characteristic_polynomial(zheng3)
    p1, p2, p3 = cp.coefficients
    assert list(p1.coefficients) == pytest.approx([-4.1], abs=1e-12)
    assert list(p2.coefficients) == pytest.approx([5.3, 0.0, -2.0], abs=1e-12)
    assert list(p3.coefficients) == pytest.approx([-2.2, 0.0, 3.0], abs=1e-12)


def test_diagonal_model_charpoly():
    model = MatrixModel(2, (1.5, -0.5), (), (1,))
    cp = characteristic_polynomial(model)
    assert list(cp.coefficients[0].coefficients) == pytest.approx([-1.0], abs=1e-15)
    assert list(cp.coefficients[1].coefficients) == pytest.approx([-0.75], abs=1e-15)


def test_two_by_two_hand_determinant(small_model):
    # det(E I - H) = E(E - 1) - lambda^2
    cp = characteristic_polynomial(small_model)
    assert list(cp.coefficients[0].coefficients) == pytest.approx([-1.0], abs=1e-15)
    assert list(cp.coefficients[1].coefficients) == pytest.approx(
        [0.0, 0.0, -1.0], abs=1e-15
    )


def test_faddeev_leverrier_agrees_with_cofactor():
    rng = np.random.default_rng(5)
    for _ in range(12):
        dim = int(rng.integers(2, 5))
        h0, interaction = random_model_data(rng, dim)
        model = MatrixModel(dim, h0, interaction, (1,))
        a = characteristic_polynomial(model)
        b = charpoly_cofactor(model)
        for pa, pb in zip(a.coefficients, b):
            assert coefficients_close(pa.coefficients, pb, 1e-12)


def test_lambda_degree_bound():
    rng = np.random.default_rng(9)
    for _ in range(8):
        dim = int(rng.integers(2, 6))
        h0, interaction = random_model_data(rng, dim)
        model = MatrixModel(dim, h0, interaction, (1,))
        cp = characteristic_polynomial(model)
        for j, poly in enumerate(cp.coefficients, start=1):
            assert poly.degree <= j


def test_toy_parity(zheng3):
    cp = characteristic_polynomial(zheng3)
    for poly in cp.coefficients:
        assert all(c == 0.0 for c in poly.coefficients[1::2])


def test_exact_eigenvalues_at_zero(zheng3):
    cp = characteristic_polynomial(zheng3)
    roots = roots_at(eigenvalues_at, cp, 0.0)
    assert [z.real for z in roots] == pytest.approx([1.0, 1.1, 2.0], abs=1e-10)
    assert max(abs(z.imag) for z in roots) < 1e-10


def test_no_crossing_on_real_axis(zheng3):
    cp = characteristic_polynomial(zheng3)
    for lam in np.linspace(0.005, 0.5, 50):
        values = [z.real for z in roots_at(eigenvalues_at, cp, float(lam))]
        assert values[0] < values[1] < values[2]
        assert min(np.diff(values)) > 1e-4


def test_cross_validation_against_jacobi_oracle():
    rng = np.random.default_rng(2024)
    for _ in range(20):
        h0, interaction = random_model_data(rng, 4)
        model = MatrixModel(4, h0, interaction, (1, 2))
        lam = float(rng.uniform(-1.0, 1.0))
        cp = characteristic_polynomial(model)
        mine = np.array([z.real for z in roots_at(eigenvalues_at, cp, lam)])
        h = hamiltonian_at(model, lam).real
        reference = jacobi_eigenvalues(h)
        # the oracle itself is sane
        assert np.max(np.abs(reference - np.linalg.eigvalsh(h))) < 1e-11
        assert np.max(np.abs(mine - reference)) < 1e-10


def test_seeded_charpolys_match_golden_bits():
    """float.hex of every p_j coefficient, signs of zero included, for 42
    seeded random_model_data models at D = 1-9, some with a level at 0.0,
    dropped couplings or a coupling of 0.0, as the polynomial-ring
    Faddeev-LeVerrier recursion computed them."""
    golden = Path(__file__).parent / "golden" / "charpoly_seeded.json"
    for case in json.loads(golden.read_text()):
        model = MatrixModel.from_dict({**case, "p_space": [1]})
        got = characteristic_polynomial(model).coefficients
        assert [[c.hex() for c in p.coefficients] for p in got] == case["coefficients"]
