"""Acceptance gate: every criterion asserted at its stated tolerance.

Each test prints one pass/fail line (visible with ``pytest -s`` or in the
captured-output section on failure).  Tolerances are frozen here; nothing is
deferred to later calibration.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from secres import (
    MatrixModel,
    characteristic_polynomial,
    discriminant,
    eigenvalues_at,
    exact_eigenvalues_at,
    exceptional_points,
    nearest_exceptional_point,
    p_space_series,
    perturbation_series,
    reconstruct,
)
from secres.cli import main as cli_main

from conftest import ZHENG3_PATH, roots_at
from oracles import hamiltonian_at, jacobi_eigenvalues, random_model_data

MODEL = str(ZHENG3_PATH)

EXACT_EP1_MODULUS = 0.05139217757
EXACT_EP2_RE = 0.2381164319
EXACT_EP2_IM = 0.5028706167
TABLE_PRESENT = {
    2: 0.05147186257,
    4: 0.05139244862,
    6: 0.05139217790,
    8: 0.05139217757,
    10: 0.05139217757,
}


@contextmanager
def criterion(number: int, title: str, budget: float | None = None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number}: FAIL  {title}")
        raise
    elapsed = time.perf_counter() - start
    if budget is not None:
        assert elapsed < budget, f"runtime {elapsed:.2f}s exceeds {budget}s"
    print(f"criterion {number}: PASS  {title} ({elapsed:.2f}s)")


def test_criterion_1_exact_characteristic_polynomial(zheng3, capsys):
    with criterion(1, "exact characteristic polynomial coefficients", budget=1.0):
        cp = characteristic_polynomial(zheng3)
        expected = (
            [-41.0 / 10.0],
            [53.0 / 10.0, 0.0, -20.0 / 10.0],
            [-11.0 / 5.0, 0.0, 15.0 / 5.0],
        )
        for poly, want in zip(cp.coefficients, expected):
            got = list(poly.coefficients) + [0.0] * (
                len(want) - len(poly.coefficients)
            )
            for g, w in zip(got, want):
                assert abs(g - w) <= 1e-12
        assert cli_main(["charpoly", "--model", MODEL]) == 0
        capsys.readouterr()


def test_criterion_2_exact_exceptional_points(zheng3, capsys):
    with criterion(2, "exact exceptional points", budget=1.0):
        disc = discriminant(characteristic_polynomial(zheng3))
        points = [z for group in exceptional_points(disc) for z in group]

        imag_pair = [z for z in points if abs(z.real) < 1e-9]
        assert len(imag_pair) == 2
        signs = sorted(np.sign(z.imag) for z in imag_pair)
        assert signs == [-1.0, 1.0]
        for z in imag_pair:
            assert abs(abs(z) - EXACT_EP1_MODULUS) <= 1e-9

        quartet = [z for z in points if abs(z.real) >= 1e-9]
        assert len(quartet) == 4
        seen = set()
        for z in quartet:
            assert abs(abs(z.real) - EXACT_EP2_RE) <= 1e-8
            assert abs(abs(z.imag) - EXACT_EP2_IM) <= 1e-8
            seen.add((z.real > 0, z.imag > 0))
        assert len(seen) == 4
        assert cli_main(["ep", "--model", MODEL, "--exact"]) == 0
        capsys.readouterr()


def test_criterion_3_table_reproduction(zheng3, capsys):
    with criterion(3, "nearest-EP moduli for K=2,4,6,8,10", budget=5.0):
        for k, expected in TABLE_PRESENT.items():
            disc = discriminant(reconstruct(p_space_series(zheng3, k)))
            nearest = nearest_exceptional_point(exceptional_points(disc))
            assert abs(abs(nearest) - expected) <= 1e-9, f"K={k}"
        assert cli_main(["table1"]) == 0
        capsys.readouterr()


def test_criterion_4_full_space_reconstruction_identity(zheng3):
    with criterion(4, "full-space K=2 reconstruction equals exact coefficients"):
        full = MatrixModel(3, zheng3.h0_diagonal, zheng3.interaction, (1, 2, 3))
        poly = reconstruct(p_space_series(full, 2))
        cp = characteristic_polynomial(full)
        for series, exact in zip(poly.coefficients, cp.coefficients):
            reference = list(exact.coefficients) + [0.0] * 3
            for got, want in zip(series.coefficients, reference):
                assert abs(got - want) <= 1e-12


def test_criterion_5_second_order_spot_values(zheng3):
    with criterion(5, "second-order coefficients -10, 80/9, 10/9"):
        for state, expected in ((3, -10.0), (2, 80.0 / 9.0), (1, 10.0 / 9.0)):
            series = perturbation_series(zheng3, state, 2)
            assert abs(series.coefficients[2] - expected) <= 1e-12


def test_criterion_6_parity_suite(zheng3):
    with criterion(6, "parity of series and discriminants"):
        for state in (1, 2, 3):
            series = perturbation_series(zheng3, state, 10)
            for c in series.coefficients[1::2]:
                assert abs(c) < 1e-12
        discs = [discriminant(characteristic_polynomial(zheng3))]
        for k in (2, 10):
            discs.append(discriminant(reconstruct(p_space_series(zheng3, k))))
        for disc in discs:
            scale = max(abs(c) for c in disc.coefficients)
            for c in disc.coefficients[1::2]:
                assert abs(c) <= 1e-12 * scale


def test_criterion_7_no_crossing(zheng3):
    with criterion(7, "no eigenvalue crossing on (0, 0.5]"):
        for lam in np.linspace(0.5 / 101, 0.5, 101):
            values = roots_at(exact_eigenvalues_at, zheng3, float(lam))
            assert values[0] < values[1] < values[2]
            assert min(np.diff(values)) > 1e-4


def test_criterion_8_error_decay_at_small_coupling(zheng3):
    with criterion(8, "resummation error decay at lambda=0.05"):
        exact = roots_at(exact_eigenvalues_at, zheng3, 0.05)[:2]
        errors = {}
        for k in (4, 6, 8, 10):
            poly = reconstruct(p_space_series(zheng3, k))
            effective = roots_at(eigenvalues_at, poly, 0.05)
            errors[k] = max(
                abs(e.real - x) for e, x in zip(effective, exact)
            )
        assert errors[4] >= errors[6] >= errors[8] >= errors[10]
        assert errors[8] < 1e-6


def test_criterion_9_oracle_equivalence():
    with criterion(9, "charpoly eigenvalues match independent eigensolve"):
        rng = np.random.default_rng(7777)
        for _ in range(20):
            h0, interaction = random_model_data(rng, 4)
            model = MatrixModel(4, h0, interaction, (1, 2))
            lam = float(rng.uniform(-1.0, 1.0))
            cp = characteristic_polynomial(model)
            mine = np.array([z.real for z in roots_at(eigenvalues_at, cp, lam)])
            reference = jacobi_eigenvalues(hamiltonian_at(model, lam).real)
            assert np.max(np.abs(mine - reference)) < 1e-10
