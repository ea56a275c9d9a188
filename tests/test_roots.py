import json
from pathlib import Path

import numpy as np
import pytest

from secres import RootSet, ZeroPolynomial, all_roots
from secres.roots import _horner, roots_by_coupling

from oracles import horner_pair, poly_mul, sort_roots


def test_factored_quadratic():
    # W^2 - 3W + 2 = (W - 1)(W - 2)
    result = all_roots([2.0, -3.0, 1.0])
    assert result.converged
    roots = sort_roots(result.roots)
    assert roots[0] == pytest.approx(1.0, abs=1e-12)
    assert roots[1] == pytest.approx(2.0, abs=1e-12)


def test_toy_cubic_at_zero_coupling():
    # E^3 - 4.1 E^2 + 5.3 E - 2.2 has roots 1, 1.1, 2
    result = all_roots([-2.2, 5.3, -4.1, 1.0])
    roots = sort_roots(result.roots)
    assert [z.real for z in roots] == pytest.approx([1.0, 1.1, 2.0], abs=1e-9)


def test_constructed_double_root():
    center = 0.3 + 0.4j
    coefficients = [center * center, -2.0 * center, 1.0]
    result = all_roots(coefficients)
    assert abs(result.roots[0] - result.roots[1]) < 1e-6
    for z in result.roots:
        assert abs(z - center) < 1e-6


def test_zero_polynomial_raises():
    with pytest.raises(ZeroPolynomial):
        all_roots([0.0, 0.0])


def test_constant_has_no_roots():
    result = all_roots([3.0])
    assert result.roots == ()
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
        total = sum(result.roots)
        expected_sum = -coefficients[-2] / coefficients[-1]
        assert abs(total - expected_sum) <= 1e-10 * max(1.0, abs(expected_sum))
        product = 1.0 + 0.0j
        for z in result.roots:
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
        for z in found.roots:
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
        result = all_roots(coefficients)
        for z in result.roots:
            assert min(abs(z.conjugate() - w) for w in result.roots) < 1e-9


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
        mine = sort_roots(all_roots(coefficients).roots)
        # numpy.roots wants descending coefficients
        reference = sort_roots(np.roots(list(reversed(coefficients))))
        for a, b in zip(mine, reference):
            assert abs(a - b) < 1e-8


def test_max_residual_finite_and_small():
    result = all_roots([-2.2, 5.3, -4.1, 1.0])
    assert np.isfinite(result.max_residual)
    assert result.max_residual < 1e-10


def test_non_finite_iterate_is_not_converged():
    # the Cauchy circle of radius 1e8 overflows z^80 and the first step is
    # NaN; max() would skip it, so the failure must be reported explicitly
    result = all_roots([1.0] + [0.0] * 79 + [1e-8])
    assert not result.converged
    assert np.isnan(result.max_residual)


@pytest.mark.parametrize("degree", [1, 6])
def test_batch_columns_match_solo_solves(degree):
    rng = np.random.default_rng(211)
    shape = (degree + 1, 1001)
    # a leading coefficient other than 1 makes every Horner product round
    coefficients = rng.uniform(-1, 1, shape) + 1j * rng.uniform(-1, 1, shape)
    batch = all_roots(coefficients)
    assert batch.roots.shape == (degree, 1001)
    assert batch.column_converged.shape == batch.column_residual.shape == (1001,)
    for m in range(1001):
        solo = all_roots(coefficients[:, m])
        assert solo.roots == tuple(batch.roots[:, m].tolist())
        assert batch.column_converged[m] == solo.converged
        assert batch.column_residual[m] == solo.max_residual


def test_non_finite_column_does_not_spread():
    overflowing = [1.0] + [0.0] * 79 + [1e-8]
    rng = np.random.default_rng(223)
    healthy = rng.uniform(-1, 1, (81, 3)) + 1j * rng.uniform(-1, 1, (81, 3))
    healthy[-1] = 1.0
    batch = np.column_stack([healthy[:, 0], overflowing, healthy[:, 1], healthy[:, 2]])
    result = all_roots(batch)
    assert not result.converged
    assert np.isnan(result.max_residual)
    assert result.column_converged.tolist() == [True, False, True, True]
    assert np.isnan(result.column_residual[1])
    for m in (0, 2, 3):
        solo = all_roots(batch[:, m])
        assert solo.converged
        assert result.column_residual[m] == solo.max_residual
        assert solo.roots == tuple(result.roots[:, m].tolist())


def test_rows_sorted_like_sort_roots():
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
    result = RootSet(columns, 2.5e-3, False, converged, residual)
    rows, failures = roots_by_coupling(result, lams)
    assert rows.shape == (200, 40)
    for m in range(200):
        want = sort_roots(columns[:, m].tolist())
        got = rows[m].tolist()
        assert got == want
        assert [(np.signbit(z.real), np.signbit(z.imag)) for z in got] == [
            (np.signbit(z.real), np.signbit(z.imag)) for z in want
        ]
    assert list(failures) == [3]
    assert str(failures[3]) == (
        "root iteration did not converge at lambda=0.75 (max residual 2.500e-03)"
    )
    assert failures[3].roots == tuple(columns[:, 3].tolist())


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


@pytest.mark.parametrize("rows", [1, 7, 1001])
def test_horner_workspace_matches_textbook_loop(rows):
    # the window must reproduce the textbook loop bit for bit: signed zeros,
    # overflow (parts up to 1e8) and the single-point case (rows 1, degree 1)
    # included; parts of one size let a product's rounding show in the sum.
    # numpy multiplies a one-element array in place without the fused
    # multiply-add of its vector loop, so a single row is stacked twice to
    # run the reference in the vector loop, as every batch does
    rng = np.random.default_rng(rows)
    degrees = range(1, 81) if rows < 1001 else range(1, 13)
    for degree in degrees:
        for decades in (0, 8):
            coeffs = _signed_parts(rng, (rows, degree + 1), decades)
            evaluate = _horner(coeffs, (rows, degree))
            # later calls reuse the workspace; degree 1 has a single
            # product per call, so it gets more points
            for _ in range(50 if degree == 1 else 2):
                z = _signed_parts(rng, (rows, degree), decades)
                z[rng.random(z.shape) < 0.1] = 0.0
                with np.errstate(all="ignore"):
                    if rows == 1:
                        twice = horner_pair(np.vstack([coeffs] * 2), np.vstack([z] * 2))
                        want = [plane[:1] for plane in twice]
                    else:
                        want = horner_pair(coeffs, z)
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
    assert result.max_residual.hex() == golden["max_residual"]
    assert [[z.real.hex(), z.imag.hex()] for z in result.roots] == golden["roots"]
