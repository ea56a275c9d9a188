import json
from pathlib import Path

import numpy as np
import pytest

import secres.roots
import secres.secular
from secres import (
    MatrixModel, MonicPolynomial, Polynomial, RootSet, all_roots,
    characteristic_polynomial, discriminant, eigenvalues_at,
    exact_eigenvalues_at, p_space_series, reconstruct,
)
from secres.roots import MAX_ITERATIONS, _horner

from oracles import horner_pair, poly_mul, random_model_data, sort_roots


def test_factored_quadratic():
    # W^2 - 3W + 2 = (W - 1)(W - 2)
    result = all_roots([2.0, -3.0, 1.0])
    assert result.converged
    roots = sort_roots(result.roots[:, 0])
    assert roots[0] == pytest.approx(1.0, abs=1e-12)
    assert roots[1] == pytest.approx(2.0, abs=1e-12)


def test_toy_cubic_at_zero_coupling():
    # E^3 - 4.1 E^2 + 5.3 E - 2.2 has roots 1, 1.1, 2
    result = all_roots([-2.2, 5.3, -4.1, 1.0])
    roots = sort_roots(result.roots[:, 0])
    assert [z.real for z in roots] == pytest.approx([1.0, 1.1, 2.0], abs=1e-9)


def test_constructed_double_root():
    center = 0.3 + 0.4j
    coefficients = [center * center, -2.0 * center, 1.0]
    roots = all_roots(coefficients).roots[:, 0]
    assert abs(roots[0] - roots[1]) < 1e-6
    for z in roots:
        assert abs(z - center) < 1e-6


def test_zero_polynomial_raises():
    with pytest.raises(ValueError, match="cannot find roots of the zero polynomial"):
        all_roots([0.0, 0.0])


def test_empty_grid_gives_no_rows(zheng3):
    values, failures = eigenvalues_at(reconstruct(p_space_series(zheng3, 6)), [])
    assert values.shape == (0, 2) and failures == {}
    values, failures = exact_eigenvalues_at(zheng3, [])
    assert values.shape == (0, 3) and failures == {}
    result = all_roots([[], []])
    assert result.roots.shape == (1, 0)
    assert result.converged and result.max_residual == 0.0
    assert result.column_converged.shape == result.column_residual.shape == (0,)


def test_constant_has_no_roots():
    result = all_roots([3.0])
    assert result.roots.shape == (0, 1)
    assert result.max_residual == 0.0


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
        total = sum(result.roots[:, 0])
        expected_sum = -coefficients[-2] / coefficients[-1]
        assert abs(total - expected_sum) <= 1e-10 * max(1.0, abs(expected_sum))
        product = 1.0 + 0.0j
        for z in result.roots[:, 0]:
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
        for z in found.roots[:, 0]:
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
        roots = all_roots(coefficients).roots[:, 0]
        for z in roots:
            assert min(abs(z.conjugate() - w) for w in roots) < 1e-9


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
        mine = sort_roots(all_roots(coefficients).roots[:, 0])
        # numpy.roots wants descending coefficients
        reference = sort_roots(np.roots(list(reversed(coefficients))))
        for a, b in zip(mine, reference):
            assert abs(a - b) < 1e-8


def test_max_residual_finite_and_small():
    result = all_roots([-2.2, 5.3, -4.1, 1.0])
    assert np.isfinite(result.max_residual)
    assert result.max_residual < 1e-10


# coefficients of 1e308 overflow the first Horner pass at any radius, so the
# first step is NaN
OVERFLOWING = [1e308] * 81


def test_non_finite_iterate_is_not_converged():
    # max() would skip the NaN, so the failure must be reported explicitly
    result = all_roots(OVERFLOWING)
    assert not result.converged
    assert np.isnan(result.max_residual)
    assert (result.iterations == 1).all()


def test_far_roots_of_a_sparse_polynomial_converge():
    # the Cauchy circle of radius 1e8 overflowed z^80 here; the Newton
    # polygon puts every start on the circle |z| = 1e8^(1/80) of the roots
    result = all_roots([1.0] + [0.0] * 79 + [1e-8])
    assert result.converged
    assert np.abs(np.abs(result.roots) - 1e8 ** (1 / 80)).max() <= 1e-14


def test_root_started_on_a_critical_point_is_nudged_off(monkeypatch):
    # z^2 - 1 has p' = 0 at its start 0, so that root's Newton correction
    # p/p' is infinite; the nudge moves it by a relative DEFAULT_TOL instead
    starts = np.array([[0.0], [2.0]], dtype=complex)
    monkeypatch.setattr(secres.roots, "_starts", lambda coeffs: (starts, np.ones(1)))
    result = all_roots([-1.0, 0.0, 1.0])
    assert result.converged
    assert sort_roots(result.roots[:, 0]) == pytest.approx([-1.0, 1.0], abs=1e-15)
    assert result.iterations[0, 0] > 1


# degree 3 and 4 straddle the length at which numpy's sum of a contiguous
# complex axis turns pairwise; 16 x 1024 roots fill the 256 KiB temporary
# that numpy multiplies into in place, and only a sample is solved alone
@pytest.mark.parametrize("degree, columns, sample", [
    (1, 1001, 1), (3, 1001, 1), (4, 1001, 1), (6, 1001, 1), (16, 1024, 31),
], ids=["1", "3", "4", "6", "16x1024"])
def test_batch_columns_match_solo_solves(degree, columns, sample):
    rng = np.random.default_rng(211)
    shape = (degree + 1, columns)
    # a leading coefficient other than 1 makes every Horner product round
    coefficients = rng.uniform(-1, 1, shape) + 1j * rng.uniform(-1, 1, shape)
    batch = all_roots(coefficients)
    assert batch.roots.shape == (degree, columns)
    assert batch.column_converged.shape == batch.column_residual.shape == (columns,)
    for m in [*range(0, columns - 1, sample), columns - 1]:
        solo = all_roots(coefficients[:, m])
        assert solo.roots.shape == (degree, 1)
        assert solo.roots[:, 0].tolist() == batch.roots[:, m].tolist()
        assert batch.column_converged[m] == solo.converged
        assert batch.column_residual[m] == solo.max_residual


def test_batch_of_wide_span_columns_matches_solo_solves():
    # coefficients over twelve decades, some exactly 0, so each column has
    # its own start circles and its rows freeze at different iterations;
    # a root's steps and count must not depend on the other columns
    rng = np.random.default_rng(7)
    shape = (13, 40)
    coefficients = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                    ) * 10.0 ** rng.uniform(-6, 6, shape)
    coefficients[rng.random(shape) < 0.1] = 0.0
    coefficients[-1] = 1.0
    batch = all_roots(coefficients)
    assert batch.converged
    for m in range(40):
        solo = all_roots(coefficients[:, m])
        assert solo.roots[:, 0].tolist() == batch.roots[:, m].tolist()
        assert solo.iterations[:, 0].tolist() == batch.iterations[:, m].tolist()


def test_non_finite_column_does_not_spread():
    rng = np.random.default_rng(223)
    healthy = rng.uniform(-1, 1, (81, 3)) + 1j * rng.uniform(-1, 1, (81, 3))
    healthy[-1] = 1.0
    batch = np.column_stack([healthy[:, 0], OVERFLOWING, healthy[:, 1], healthy[:, 2]])
    result = all_roots(batch)
    assert not result.converged
    assert np.isnan(result.max_residual)
    assert result.column_converged.tolist() == [True, False, True, True]
    assert np.isnan(result.column_residual[1])
    for m in (0, 2, 3):
        solo = all_roots(batch[:, m])
        assert solo.converged
        assert result.column_residual[m] == solo.max_residual
        assert solo.roots[:, 0].tolist() == result.roots[:, m].tolist()


def test_rows_sorted_like_sort_roots(monkeypatch):
    # few distinct parts force ties: equal real parts, conjugate pairs and
    # roots that differ only in the sign of a zero part; rows of 40 are past
    # the length up to which even numpy's unstable sort keeps ties in order
    rng = np.random.default_rng(307)
    parts = np.array([-1.0, -0.0, 0.0, 0.5])
    columns = np.empty((40, 200), dtype=complex)
    columns.real = rng.choice(parts, (40, 200))
    columns.imag = rng.choice(parts, (40, 200))  # z + 1j*y would lose y = -0.0
    converged = np.arange(200) != 3
    residual = np.where(converged, 1e-15, 2.5e-3)
    lams = [0.25 * m for m in range(200)]
    result = RootSet(columns, 2.5e-3, False, converged, residual,
                     np.full(columns.shape, 7))
    monkeypatch.setattr(secres.secular, "all_roots", lambda coefficients: result)
    poly = MonicPolynomial((Polynomial((0.0,)),) * 40)
    rows, failures = eigenvalues_at(poly, lams)
    assert rows.shape == (200, 40)
    for m in range(200):
        want = sort_roots(columns[:, m].tolist())
        got = rows[m].tolist()
        assert got == want
        assert [(np.signbit(z.real), np.signbit(z.imag)) for z in got] == [
            (np.signbit(z.real), np.signbit(z.imag)) for z in want
        ]
    assert list(failures) == [3]
    assert failures[3] == (
        "root iteration did not converge at lambda=0.75 (max residual 2.500e-03)"
    )


def test_sort_roots_convention():
    values = [1.0 + 1.0j, 1.0 - 1.0j, 0.5 + 0.0j]
    assert sort_roots(values) == [0.5 + 0.0j, 1.0 - 1.0j, 1.0 + 1.0j]


def _signed_parts(rng, shape, decades):
    """Complex values whose parts have magnitudes 10^-decades to 10^decades,
    with about one part in seven +0.0 or -0.0."""
    parts = rng.standard_normal((2, *shape)) * 10.0 ** rng.uniform(
        -decades, decades, (2, *shape)
    )
    zeros = rng.random((2, *shape)) < 0.15
    parts[zeros] = np.where(rng.random(zeros.sum()) < 0.5, 0.0, -0.0)
    out = np.empty(shape, dtype=complex)
    out.real, out.imag = parts
    return out


@pytest.mark.parametrize("columns", [1, 7, 1001])
def test_horner_workspace_matches_textbook_loop(columns):
    # the window must reproduce the textbook loop bit for bit: signed zeros,
    # overflow (parts up to 1e8) and the single-point case (one column, degree 1)
    # included; parts of one size let a product's rounding show in the sum.
    # numpy multiplies a one-element array in place without the fused
    # multiply-add of its vector loop, so a single column is stacked twice to
    # run the reference in the vector loop, as every batch does
    rng = np.random.default_rng(columns)
    degrees = range(1, 81) if columns < 1001 else range(1, 13)
    for degree in degrees:
        for decades in (0, 8):
            coeffs = _signed_parts(rng, (degree + 1, columns), decades)
            evaluate = _horner(coeffs, (degree, columns))
            # later calls reuse the workspace; degree 1 has a single
            # product per call, so it gets more points
            for _ in range(50 if degree == 1 else 2):
                z = _signed_parts(rng, (degree, columns), decades)
                z[rng.random(z.shape) < 0.1] = 0.0
                with np.errstate(all="ignore"):
                    # the oracle takes one polynomial per row
                    if columns == 1:
                        twice = horner_pair(np.hstack([coeffs] * 2).T, np.hstack([z] * 2).T)
                        want = [plane[:1].T for plane in twice]
                    else:
                        want = [plane.T for plane in horner_pair(coeffs.T, z.T)]
                    got = evaluate(z)
                assert got[0].tobytes() == want[0].tobytes()
                assert got[1].tobytes() == want[1].tobytes()


def test_iteration_cap_golden():
    # a degree-80 discriminant that runs into MAX_ITERATIONS; any change in
    # rounding moves its unconverged iterates
    golden = json.loads(
        (Path(__file__).parent / "golden" / "aberth_iteration_cap.json").read_text()
    )
    result = all_roots([float.fromhex(c) for c in golden["coefficients"]])
    assert golden["converged"] is False
    assert result.converged is False
    assert (result.iterations == MAX_ITERATIONS).any()
    assert result.max_residual.hex() == golden["max_residual"]
    assert [[z.real.hex(), z.imag.hex()] for z in result.roots[:, 0].tolist()] == (
        golden["roots"]
    )


# Iteration counts pin the speed of the Newton-polygon starts without
# timing; the counts from the Cauchy circle they replaced are in comments.

@pytest.mark.parametrize("order", [None, 10, 20, 30, 40])
def test_zheng3_discriminants_take_at_most_20_iterations(zheng3, order):
    # Cauchy circle: 9, 17, 21, 54 and 83 iterations
    poly = (characteristic_polynomial(zheng3) if order is None
            else reconstruct(p_space_series(zheng3, order)))
    result = all_roots(discriminant(poly).coefficients)
    assert result.converged
    assert result.iterations.shape == (len(result.roots), 1)
    assert 1 <= result.iterations.min() and result.iterations.max() <= 20


def test_seeded_exact_discriminants_take_at_most_20_iterations():
    # Cauchy circle: 39 to 121 iterations on these twelve D=5 models
    for seed in range(100, 112):
        h0, interaction = random_model_data(np.random.default_rng(seed), 5)
        model = MatrixModel(5, h0, interaction, (1, 2))
        result = all_roots(discriminant(characteristic_polynomial(model)).coefficients)
        assert result.converged
        assert result.iterations.max() <= 20, seed


def test_sweep_batch_takes_no_more_iterations_than_the_cauchy_circle(zheng3):
    # the order-6 roots of `sweep --steps 1001` on [0, 0.5]: the Cauchy
    # circle took at most 8 iterations per column and 6724 in all
    grid = np.arange(1001) * 0.5 / 1000
    poly = reconstruct(p_space_series(zheng3, 6))
    values = [p.evaluate(grid) for p in reversed(poly.coefficients)]
    result = all_roots(values + [np.ones(grid.shape)])
    assert result.converged
    per_column = result.iterations.max(axis=0)
    assert per_column.max() <= 8 and per_column.sum() <= 6724
    # a root's count depends on its own column only
    batch = np.array(values + [np.ones(grid.shape)])
    for m in range(0, 1001, 100):
        assert all_roots(batch[:, m]).iterations[:, 0].tolist() == (
            result.iterations[:, m].tolist())
