import itertools
import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from secres import (
    MatrixModel,
    MonicPolynomial,
    Polynomial,
    characteristic_polynomial,
    discriminant,
    eigenvalue_gap,
    exact_exceptional_points,
    exceptional_points,
    load_model,
    nearest_exceptional_point,
    p_space_series,
    perturbation_series,
    reconstruct,
)
import secres
import secres.errors
from secres import cli
from secres.cli import SweepSpec, main

from conftest import ZHENG3_PATH, benchmark_models
from oracles import hamiltonian_at, jacobi_eigenvalues, model_to_dict, random_model_data

MODEL = str(ZHENG3_PATH)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_public_names_resolve():
    for name in secres.__all__:
        assert getattr(secres, name) is not None, name


def test_validate_ok(capsys):
    code, out, _ = run(capsys, "validate", "--model", MODEL)
    assert code == 0
    assert out.strip() == "OK"


def test_validate_duplicate_entry(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {
                "dimension": 2,
                "h0_diagonal": [0.0, 1.0],
                "interaction": [[1, 2, 1.0], [1, 2, 0.5]],
                "p_space": [1],
            }
        )
    )
    code, _, err = run(capsys, "validate", "--model", str(bad))
    assert code == 2
    assert "DuplicateEntry" in err


@pytest.mark.parametrize("overrides, message", [
    ({"p_space": None}, "malformed model data: 'p_space'"),
    ({"dimension": 0, "h0_diagonal": []}, "dimension must be positive, got 0"),
    ({"h0_diagonal": [2, float("nan"), 1]}, "non-finite diagonal entry nan"),
    ({"interaction": [[1, 2, float("inf")], [2, 3, 1]]},
     "non-finite interaction value at (1, 2)"),
])
def test_validate_model_format_errors(tmp_path, capsys, overrides, message):
    # json writes NaN and Infinity, and reads them back
    data = {**model_to_dict(load_model(MODEL)), **overrides}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({k: v for k, v in data.items() if v is not None}))
    code, out, err = run(capsys, "validate", "--model", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: ModelFormatError: {message}\n"


@pytest.mark.parametrize("command", ["validate", "ep", "table1"])
def test_deeply_nested_model_file_exits_2(tmp_path, capsys, command):
    # a thousand '[' exhaust the JSON decoder, which raises RecursionError
    path = tmp_path / "deep.json"
    path.write_text("[" * 1000)
    code, out, err = run(capsys, command, "--model", str(path))
    assert (code, out) == (2, "")
    assert err == "error: ModelFormatError: model file nests too deeply\n"


FAULT_TYPES = sorted(
    {value for value in map(secres.__dict__.get, secres.__all__)
     if isinstance(value, type) and issubclass(value, Exception)}
    | {ValueError, OSError},
    key=lambda error: error.__name__,
)


@pytest.mark.parametrize("error", FAULT_TYPES, ids=lambda error: error.__name__)
def test_exit_code_follows_the_fault_rule(capsys, monkeypatch, error):
    # 2 for every ValueError (the input is at fault), 1 for I/O, else 3
    def fail(path):
        raise error("boom")

    monkeypatch.setattr(cli, "load_model", fail)
    code, out, err = run(capsys, "validate", "--model", MODEL)
    if issubclass(error, ValueError):
        assert (code, err) == (2, f"error: {error.__name__}: boom\n")
    elif issubclass(error, OSError):
        assert (code, err) == (1, "error: boom\n")
    else:
        assert (code, err) == (3, f"error: {error.__name__}: boom\n")
    assert out == ""


def test_only_arithmetic_failures_escape_the_input_fault_rule():
    # every exception type the package defines is exported, so the case
    # above covers it
    defined = {value for value in vars(secres.errors).values()
               if isinstance(value, type) and issubclass(value, Exception)}
    assert defined <= set(FAULT_TYPES)
    arithmetic = {error for error in FAULT_TYPES
                  if issubclass(error, secres.SecresError)
                  and not issubclass(error, ValueError)}
    assert arithmetic == {
        secres.SecresError, secres.InvariantViolation, secres.RootFindingFailure}


def test_validate_missing_file(capsys):
    code, _, err = run(capsys, "validate", "--model", "/no/such/file.json")
    assert code == 1
    assert err


def test_validate_corrupt_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, _ = run(capsys, "validate", "--model", str(bad))
    assert code == 2


def test_series_output(capsys, zheng3):
    code, out, _ = run(capsys, "series", "--model", MODEL, "--order", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "state 2"
    engine_value = perturbation_series(zheng3, 2, 2).coefficients[2]
    assert f"{engine_value:.16e}" in lines[3]
    assert float(lines[3].split()[-1]) == engine_value


def test_series_order_zero(capsys):
    code, out, _ = run(capsys, "series", "--model", MODEL, "--order", "0")
    assert code == 0
    rows = [line for line in out.splitlines() if line.startswith("  order")]
    assert len(rows) == 2
    assert float(rows[0].split()[-1]) == 1.1
    assert float(rows[1].split()[-1]) == 1.0


def test_series_high_order_parity(capsys):
    code, out, _ = run(capsys, "series", "--model", MODEL, "--order", "10")
    assert code == 0
    for line in out.splitlines():
        parts = line.split()
        if parts[0] == "order" and int(parts[1]) % 2 == 1:
            assert abs(float(parts[2])) < 1e-12


def test_charpoly_output(capsys):
    code, out, _ = run(capsys, "charpoly", "--model", MODEL)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("p_1(lambda) = ")
    assert float(lines[0].split("=")[1].strip().split(" + ")[0]) == pytest.approx(
        -4.1, abs=1e-12
    )


def test_charpoly_coefficients_17_digits(capsys, monkeypatch):
    cp = MonicPolynomial((Polynomial((1.0, 0.0, -10.0 / 9.0)),))
    monkeypatch.setattr(cli, "characteristic_polynomial", lambda model: cp)
    code, out, _ = run(capsys, "charpoly", "--model", MODEL)
    assert code == 0 and out.startswith("p_1(lambda) = ")
    text = out.removeprefix("p_1(lambda) = ").removesuffix("\n")
    assert text == "1 + 0*lambda + -1.1111111111111112*lambda^2"
    assert float(text.rsplit(" + ", 1)[1].split("*")[0]) == -10.0 / 9.0


def test_reconstruct_json_schema(capsys):
    code, out, _ = run(capsys, "reconstruct", "--model", MODEL, "--order", "4")
    assert code == 0
    data = json.loads(out)
    assert data["degree"] == 2
    assert data["order"] == 4
    assert len(data["coefficients"]) == 2
    assert all(len(row) == 5 for row in data["coefficients"])


def test_sweep_basic(tmp_path, capsys, zheng3):
    out_path = tmp_path / "sweep.csv"
    code, _, _ = run(
        capsys,
        "sweep",
        "--model",
        MODEL,
        "--orders",
        "6",
        "--steps",
        "2",
        "--out",
        str(out_path),
    )
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "lambda,exact_1,exact_2,exact_3,eff_K6_1,eff_K6_2,error"
    assert len(lines) == 3  # header + 2 data rows
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert [float(x) for x in first[1:4]] == pytest.approx(
        [1.0, 1.1, 2.0], abs=1e-9
    )


def test_sweep_error_grows_with_coupling(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    code, _, _ = run(
        capsys,
        "sweep",
        "--model",
        MODEL,
        "--orders",
        "6",
        "--steps",
        "5",
        "--lambda-min",
        "0.0",
        "--lambda-max",
        "0.4",
        "--out",
        str(out_path),
    )
    assert code == 0
    rows = [line.split(",") for line in out_path.read_text().splitlines()[1:]]
    table = {float(r[0]): r for r in rows}
    err_small = abs(float(table[0.1][4]) - float(table[0.1][1]))
    err_large = abs(float(table[0.4][4]) - float(table[0.4][1]))
    assert err_small < err_large


def test_sweep_deterministic(tmp_path, capsys):
    paths = []
    for name in ("a.csv", "b.csv"):
        out_path = tmp_path / name
        code, _, _ = run(
            capsys,
            "sweep",
            "--model",
            MODEL,
            "--orders",
            "4,6",
            "--steps",
            "21",
            "--out",
            str(out_path),
        )
        assert code == 0
        paths.append(out_path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_sweep_rejects_bad_spec(capsys):
    code, _, err = run(
        capsys, "sweep", "--model", MODEL, "--steps", "1"
    )
    assert code == 2
    assert "steps" in err


def test_sweep_spec_invariants():
    with pytest.raises(ValueError):
        SweepSpec(lambda_min=0.5, lambda_max=0.0, steps=10, orders=(6,))


@pytest.mark.parametrize("bounds", [
    ("--lambda-max", "inf"),
    ("--lambda-min=-inf",),
    ("--lambda-min=-1e308", "--lambda-max", "1e308"),
    ("--lambda-max", "1e308", "--steps", "3"),
])
def test_bad_sweep_bounds_exit_2(capsys, bounds):
    # non-finite bounds, or a grid whose width times (steps - 1) overflows
    code, out, err = run(capsys, "sweep", "--model", MODEL, *bounds)
    assert code == 2 and out == ""
    assert err.startswith("error: ValueError: no finite grid from lambda_min")


def test_sweep_overflowing_coefficients_mark_rows(capsys, zheng3):
    # at lambda ~ 1e200 the secular coefficients overflow and those rows fail
    # quietly; H(lambda) itself is finite, so the exact cells stay
    code, out, err = run(
        capsys, "sweep", "--model", MODEL, "--orders", "2,10",
        "--lambda-min", "0", "--lambda-max", "1e200", "--steps", "3",
    )
    assert code == 0 and err == ""
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert len(rows) == 3
    assert float(rows[0][0]) == 0.0 and rows[0][-1] == ""
    assert "nan" not in rows[0]
    for row in rows[1:]:
        lam = float(row[0])
        exact = np.linalg.eigvalsh(hamiltonian_at(zheng3, lam).real)
        assert row[1:4] == ["%.16e" % e for e in exact]
        assert row[4:-1] == ["nan"] * 4
        assert row[-1] == (
            f"root iteration reached a non-finite value at lambda={lam!r}"
        )


def test_sweep_overflowing_hamiltonian_marks_row(tmp_path, capsys):
    # with |V_ij| = 2, lambda*V overflows at lambda = 1e308: that row's exact
    # cells and every later one read nan, and the message names lambda
    code, out, err = run(
        capsys, "sweep", "--model", scaled_model(tmp_path, 2.0), "--orders", "2",
        "--lambda-min", "0", "--lambda-max", "1e308", "--steps", "2",
    )
    assert code == 0 and err == ""
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert rows[0][-1] == "" and "nan" not in rows[0]
    assert rows[1] == ["1.0000000000000000e+308"] + ["nan"] * 5 + [
        "non-finite eigenvalue at lambda=1e+308"
    ]


def seeded_model_path(tmp_path, dim, p_space):
    h0, interaction = random_model_data(np.random.default_rng(100 + dim), dim)
    path = tmp_path / f"d{dim}.json"
    path.write_text(json.dumps(model_to_dict(MatrixModel(dim, h0, interaction, p_space))))
    return path


@pytest.mark.parametrize("name", ["zheng3", "d6"])
def test_sweep_rows_match_dense_oracles(tmp_path, capsys, name):
    """Every row of a 201-step sweep against eigvalsh and companion roots."""
    path = ZHENG3_PATH if name == "zheng3" else seeded_model_path(tmp_path, 6, (1, 2, 3))
    model = load_model(path)
    orders = (2, 4, 6, 8, 10)
    out_path = tmp_path / "sweep.csv"
    code, _, _ = run(
        capsys, "sweep", "--model", str(path), "--orders", "2,4,6,8,10",
        "--steps", "201", "--out", str(out_path),
    )
    assert code == 0
    rows = [line.split(",") for line in out_path.read_text().splitlines()[1:]]
    assert len(rows) == 201
    polys = [reconstruct(p_space_series(model, k)) for k in orders]
    dim, n = model.dimension, len(model.p_space)
    for row in rows:
        assert row[-1] == ""
        lam = float(row[0])
        reference = np.linalg.eigvalsh(hamiltonian_at(model, lam).real)
        rho = np.max(np.abs(reference))
        exact = np.array([float(x) for x in row[1:1 + dim]])
        assert np.max(np.abs(exact - reference)) <= 1e-12 * (1.0 + rho)
        for i, poly in enumerate(polys):
            start = 1 + dim + i * n
            mine = [complex(x) for x in row[start:start + n]]
            companion = np.roots([1.0] + [p.evaluate(lam) for p in poly.coefficients])
            best = min(
                max(abs(a - b) / (1.0 + abs(b)) for a, b in zip(mine, perm))
                for perm in itertools.permutations(companion)
            )
            assert best <= 1e-10, (lam, orders[i])


def test_sweep_exact_cells_at_dimension_10(tmp_path, capsys):
    # the charpoly's roots failed 40 of these 101 rows
    path = seeded_model_path(tmp_path, 10, (1, 2))
    model = load_model(path)
    code, out, err = run(capsys, "sweep", "--model", str(path))
    assert code == 0 and err == ""
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert len(rows) == 101
    for row in rows:
        assert row[-1] == ""
        reference = jacobi_eigenvalues(hamiltonian_at(model, float(row[0])).real)
        exact = np.array([float(x) for x in row[1:11]])
        assert np.max(np.abs(exact - reference)) <= 1e-14 * np.max(np.abs(reference))


def sweep_rows(capsys, tmp_path):
    out_path = tmp_path / "sweep.csv"
    code, _, _ = run(
        capsys, "sweep", "--model", MODEL, "--orders", "2,4,6", "--steps", "3",
        "--out", str(out_path),
    )
    assert code == 0
    return [line.split(",") for line in out_path.read_text().splitlines()]


def failing_at(solve, bad_lambda, order=None):
    """solve, but with a failure message at one coupling (and order)."""
    def patched(poly, lams):
        roots, failures = solve(poly, lams)
        if order is None or poly.coefficients[0].degree == order:
            failures[lams.index(bad_lambda)] = "a, b"
        return roots, failures
    return patched


def test_sweep_failure_marks_row(tmp_path, capsys, monkeypatch):
    want = sweep_rows(capsys, tmp_path)
    failing = failing_at(cli.eigenvalues_at, 0.25, order=4)
    monkeypatch.setattr(cli, "eigenvalues_at", failing)
    got = sweep_rows(capsys, tmp_path)
    assert got[:2] + got[3:] == want[:2] + want[3:]
    # lambda, exact_1..3 and eff_K2_1..2 stay; eff_K4 and eff_K6 are nan
    assert float(got[2][0]) == 0.25 and want[2][-1] == ""
    assert got[2] == want[2][:6] + ["nan"] * 4 + ["a; b"]


def test_sweep_exact_failure_marks_row(tmp_path, capsys, monkeypatch):
    want = sweep_rows(capsys, tmp_path)
    failing = failing_at(cli.exact_eigenvalues_at, 0.25)
    monkeypatch.setattr(cli, "exact_eigenvalues_at", failing)
    got = sweep_rows(capsys, tmp_path)
    assert got[:2] + got[3:] == want[:2] + want[3:]
    assert got[2] == want[2][:1] + ["nan"] * 9 + ["a; b"]


def test_sweep_failure_marks_a_complex_row(capsys, monkeypatch):
    # eff_K4 shows imaginary parts from lambda = 1.05 on: its failed cells,
    # and the later eff_K6 ones, read bare nan with no imaginary part
    want = (GOLDEN / "sweep.csv").read_text().splitlines()
    failing = failing_at(cli.eigenvalues_at, 1.5, order=4)
    monkeypatch.setattr(cli, "eigenvalues_at", failing)
    code, out, err = run(capsys, "sweep", "--model", MODEL, "--orders", "2,4,6",
                         "--steps", "41", "--lambda-min", "0", "--lambda-max", "2")
    assert code == 0 and err == ""
    got = out.splitlines()
    row = 31  # the header, then lambda = 0, 0.05, ..., 1.5
    assert got[:row] + got[row + 1:] == want[:row] + want[row + 1:]
    cells, golden = got[row].split(","), want[row].split(",")
    assert float(cells[0]) == 1.5 and golden[6].endswith("j") and golden[-1] == ""
    assert cells == golden[:6] + ["nan"] * 4 + ["a; b"]


@pytest.mark.parametrize("argv", [
    ("series", "--model", MODEL, "--order", "-1"),
    ("ep", "--model", MODEL, "--orders", "2,x"),
])
def test_bad_order_arguments_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ValueError: ")


@pytest.mark.parametrize("command", ["ep", "sweep"])
@pytest.mark.parametrize("orders, message", [
    ("6,", "--orders takes comma-separated integers, got '6,'"),
    (",6", "--orders takes comma-separated integers, got ',6'"),
    ("2,,4", "--orders takes comma-separated integers, got '2,,4'"),
    ("2,x", "--orders takes comma-separated integers, got '2,x'"),
    ("4.5", "--orders takes comma-separated integers, got '4.5'"),
    ("1_0", "--orders takes comma-separated integers, got '1_0'"),
    ("+4", "--orders takes comma-separated integers, got '+4'"),
    ("\u0664", "--orders takes comma-separated integers, got '\u0664'"),
    ("007", "--orders takes comma-separated integers, got '007'"),
    ("2,+3", "--orders takes comma-separated integers, got '2,+3'"),
    ("4,4", "--orders repeats an order in '4,4'"),
    ("2, 4,2", "--orders repeats an order in '2, 4,2'"),
])
def test_malformed_orders_exit_2_naming_the_flag(capsys, command, orders, message):
    # an empty item is not order 0, a repeated order would repeat its sweep
    # columns or ep entry, and an order is ASCII digits with an optional
    # minus: no digit separators, plus signs or other scripts' digits
    code, out, err = run(capsys, command, "--model", MODEL, "--orders", orders)
    assert (code, out) == (2, "")
    assert err == f"error: ValueError: {message}\n"


@pytest.mark.parametrize("command, message", [
    ("ep", "order must be non-negative, got -2"),
    ("sweep", "order must be non-negative, got -2"),
])
def test_negative_order_exits_2(capsys, command, message):
    code, out, err = run(capsys, command, "--model", MODEL, "--orders", "4,-2")
    assert (code, out) == (2, "")
    assert err == f"error: ValueError: {message}\n"


@pytest.mark.parametrize("command, flag", [
    ("series", "--order"), ("reconstruct", "--order"), ("sweep", "--steps"),
])
@pytest.mark.parametrize("value", [
    "1_0", "+3", "\u0663", "007", pytest.param("[" * 1000, id="nested"),
])
def test_integer_flags_read_integers_as_model_files_do(capsys, command, flag, value):
    # Python's int() takes the first four; JSON, and so a model file, takes
    # none, and brackets nested past the decoder's depth are no integer either
    with pytest.raises(SystemExit) as exc:
        main([command, "--model", MODEL, flag, value])
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert err.endswith(f"error: argument {flag}: invalid integer value: {value!r}\n")


@pytest.mark.parametrize("argv, message", [
    (("series", "--order", "-1"), "order must be non-negative, got -1"),
    (("ep", "--orders", "-1"), "order must be non-negative, got -1"),
    (("sweep", "--steps", "-1"), "steps must be >= 2, got -1"),
])
def test_negative_integer_flags_reach_their_checks(capsys, argv, message):
    code, out, err = run(capsys, argv[0], "--model", MODEL, *argv[1:])
    assert (code, out) == (2, "")
    assert err == f"error: ValueError: {message}\n"


def test_orders_keep_their_given_order(capsys):
    # spaces around an order are allowed and the orders need not ascend
    code, out, err = run(capsys, "ep", "--model", MODEL, "--orders", " 4, 2 ")
    assert (code, err) == (0, "")
    assert [entry["order"] for entry in json.loads(out)["orders"]] == [4, 2]
    code, out, err = run(
        capsys, "sweep", "--model", MODEL, "--orders", " 4, 2 ", "--steps", "3"
    )
    assert (code, err) == (0, "")
    assert out.split("\n")[0] == (
        "lambda,exact_1,exact_2,exact_3,eff_K4_1,eff_K4_2,eff_K2_1,eff_K2_2,error"
    )


def test_ep_report_matches_library(capsys, zheng3):
    code, out, _ = run(
        capsys, "ep", "--model", MODEL, "--orders", "2,4", "--exact"
    )
    assert code == 0
    report = json.loads(out)

    groups = exact_exceptional_points(zheng3)
    nearest = nearest_exceptional_point(groups)
    assert float(report["exact"]["nearest_modulus"]) == abs(nearest)
    assert len(report["exact"]["points"]) == sum(len(g) for g in groups)
    assert report["exact"]["nearest"]["multiplicity"] == len(groups[0])
    # with no discriminant, exact points carry no residual; the nearest has a gap
    assert float(report["exact"]["nearest"]["gap"]) == eigenvalue_gap(zheng3, nearest)
    assert not any("residual" in point for point in report["exact"]["points"])

    for entry in report["orders"]:
        k = entry["order"]
        disc = discriminant(reconstruct(p_space_series(zheng3, k)))
        best = nearest_exceptional_point(exceptional_points([disc])[0])
        assert float(entry["nearest_modulus"]) == abs(best)
        assert float(entry["nearest"]["residual"]) == abs(disc.evaluate(best))
        assert entry["nearest"]["source"] == f"order-{k}"


def test_ep_exact_only(capsys):
    code, out, _ = run(capsys, "ep", "--model", MODEL, "--exact")
    assert code == 0
    report = json.loads(out)
    assert report["orders"] == []
    assert "exact" in report
    # the quartet value appears among the exact points
    found = any(
        abs(abs(float(p["re"])) - 0.2381164319) < 1e-8
        and abs(abs(float(p["im"])) - 0.5028706167) < 1e-8
        for p in report["exact"]["points"]
    )
    assert found


ONE_STATE = {
    "dimension": 3, "h0_diagonal": [2, 1.1, 1],
    "interaction": [[1, 2, 1], [2, 3, 1]], "p_space": [2],
}
ONE_LEVEL = {"dimension": 1, "h0_diagonal": [0.5], "interaction": [], "p_space": [1]}
NO_PAIR = "no exceptional point exists: energy degree 1 has fewer than 2 eigenvalues to meet"
NO_ROOT = "no exceptional point exists: a discriminant of lambda degree 0 has no root"


@pytest.mark.parametrize("data, argv", [
    (ONE_STATE, ("ep", "--orders", "4")),
    (ONE_STATE, ("ep", "--orders", "2", "--exact")),
    (ONE_STATE, ("table1",)),
    (ONE_LEVEL, ("ep", "--exact")),
], ids=["one-state-orders", "one-state-orders-exact", "one-state-table1",
        "one-level-exact"])
def test_ep_without_a_pair_of_levels_exits_2(tmp_path, capsys, data, argv):
    # nothing numerical failed: no two eigenvalues were there to meet
    path = tmp_path / "model.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, *argv, "--model", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: DegreeTooSmall: {NO_PAIR}\n"
    # a sweep of the same model still has its one resummed column
    code, out, _ = run(capsys, "sweep", "--model", str(path), "--steps", "2")
    assert code == 0 and out.splitlines()[1].endswith(",")


NO_COUPLING = {"dimension": 2, "h0_diagonal": [0, 1], "interaction": [], "p_space": [1, 2]}
# the model space never feels the one coupling, between states 3 and 4
UNREACHED = {
    "dimension": 4, "h0_diagonal": [0, 1, 2, 3],
    "interaction": [[3, 4, 0.5]], "p_space": [1, 2],
}


@pytest.mark.parametrize("data, argv", [
    (None, ("ep", "--orders", "0")),
    (None, ("ep", "--orders", "1")),
    (NO_COUPLING, ("ep", "--orders", "4")),
    (NO_COUPLING, ("ep", "--exact")),
    (NO_COUPLING, ("table1",)),
    (UNREACHED, ("ep", "--orders", "4")),
    (UNREACHED, ("table1",)),
], ids=["zheng3-order0", "zheng3-order1", "no-coupling-order4", "no-coupling-exact",
        "no-coupling-table1", "unreached-order4", "unreached-table1"])
def test_ep_with_a_constant_discriminant_exits_2(tmp_path, capsys, data, argv):
    # zheng3 has no diagonal coupling, so its order-0 and order-1 energies
    # are constant; the other models never couple their model space
    path = ZHENG3_PATH
    if data is not None:
        path = tmp_path / "model.json"
        path.write_text(json.dumps(data))
    code, out, err = run(capsys, *argv, "--model", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: DegreeTooSmall: {NO_ROOT}\n"


def test_block_model_exact_ep_is_the_coupled_pair_s_branch_point(tmp_path, capsys):
    # the exact discriminant also has double roots at +-sqrt(8) and
    # +-sqrt(24), where a level of the coupled pair crosses h0 = 1 or 0;
    # the EPs are the simple roots +-i, where 0.25 + 0.25 lambda^2 = 0;
    # the double roots stop by chance at the rounding floor (iterations
    # 40-439 of 500), so a change to Aberth's rounding can fail this test
    path = tmp_path / "model.json"
    path.write_text(json.dumps(UNREACHED))
    code, out, err = run(capsys, "ep", "--exact", "--model", str(path))
    assert (code, err) == (0, "")
    nearest = json.loads(out)["exact"]["nearest"]
    assert abs(complex(float(nearest["re"]), float(nearest["im"])) - 1j) <= 1e-14
    assert float(nearest["modulus"]) == pytest.approx(1.0, abs=1e-14)
    assert nearest["multiplicity"] == 2


def exact_nearest(capsys, path):
    """The exact nearest EP of `ep --exact` on a model file, and its record."""
    code, out, err = run(capsys, "ep", "--exact", "--model", str(path))
    assert (code, err) == (0, "")
    nearest = json.loads(out)["exact"]["nearest"]
    return complex(float(nearest["re"]), float(nearest["im"])), nearest


@pytest.mark.parametrize("dim, modulus, rel", [
    # the verified true nearest moduli: D=7 and D=9 from a 30-digit sampled
    # discriminant, good to ~2e-9 at D=9; D=10 from a 40-digit Newton solve
    (7, 0.0772951185, 1e-9),
    (9, 0.0377509534, 1e-8),
    (10, 0.051163051563, 1e-11),
    # a regression value only: no independent nearest-EP check reaches D=12
    (12, 0.043503660473, 1e-11),
])
def test_exact_nearest_ep_of_seeded_models(tmp_path, capsys, dim, modulus, rel):
    z, nearest = exact_nearest(capsys, seeded_model_path(tmp_path, dim, (1, 2)))
    assert abs(z) == pytest.approx(modulus, rel=rel)
    assert float(nearest["gap"]) <= 1e-7


def write_model(tmp_path, h0, interaction):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"dimension": len(h0), "h0_diagonal": h0,
                                "interaction": interaction, "p_space": [1, 2]}))
    return path


def test_exact_nearest_ep_invariant_under_power_of_two_units(tmp_path, capsys):
    data = json.loads(Path(MODEL).read_text())
    want, _ = exact_nearest(capsys, MODEL)
    for a in (2.0 ** 20, 2.0 ** -20, 2.0 ** 60, 2.0 ** -60):
        path = write_model(tmp_path, [a * e for e in data["h0_diagonal"]],
                           [[i, j, a * v] for i, j, v in data["interaction"]])
        got, _ = exact_nearest(capsys, path)
        assert abs(got - want) <= 1e-14 * abs(want), a


def test_exact_nearest_ep_invariant_under_integer_shifts(tmp_path, capsys):
    # with dyadic h0 every shifted difference h_i - h_j is exact
    h0, interaction = random_model_data(np.random.default_rng(105), 5)
    h0 = [round(e * 64) / 64 for e in h0]
    interaction = [list(entry) for entry in interaction]
    want, _ = exact_nearest(capsys, write_model(tmp_path, h0, interaction))
    for b in (1.0, -7.0, 100.0, 1000.0):
        got, _ = exact_nearest(capsys, write_model(tmp_path, [e + b for e in h0], interaction))
        assert abs(got - want) <= 1e-14 * abs(want), b


@pytest.mark.parametrize("argv", [("ep", "--exact"), ("table1",)])
def test_exact_nearest_ep_off_the_ep_exits_3(capsys, monkeypatch, argv):
    # a point 1% off the nearest EP leaves two eigenvalues of H apart by a
    # gap far above GAP_BOUND (~1e-8 at the true point), so the guard trips
    true = exact_exceptional_points(load_model(MODEL))
    wrong = [[1.01 * z for z in group] for group in true]
    monkeypatch.setattr(cli, "exact_exceptional_points", lambda model: wrong)
    code, out, err = run(capsys, *argv, "--model", MODEL)
    assert (code, out) == (3, "")
    assert err.startswith("error: InvariantViolation: exact exceptional point ")
    assert "fails its check: eigenvalue gap" in err and err.endswith(" > 0.001\n")


def test_ep_floats_are_round_trip_strings(capsys):
    code, out, _ = run(capsys, "ep", "--model", MODEL, "--orders", "2")
    assert code == 0
    report = json.loads(out)
    point = report["orders"][0]["points"][0]
    for key in ("re", "im", "modulus", "residual"):
        assert isinstance(point[key], str)
        float(point[key])


def test_table1_output(capsys):
    code, out, _ = run(capsys, "table1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("K")
    values = {}
    for line in lines[1:]:
        label, value = line.split()
        values[label] = float(value)
    assert set(values) == {"2", "4", "6", "8", "10", "exact"}
    assert values["2"] == pytest.approx(0.05147186257, abs=1e-9)
    assert values["exact"] == pytest.approx(0.05139217757, abs=1e-9)


def model_files(tmp_path):
    """zheng3 and every benchmark_models() model, as model file paths."""
    paths = [MODEL]
    for index, model in enumerate(benchmark_models()):
        path = tmp_path / f"bench{index}.json"
        path.write_text(json.dumps(model_to_dict(model)))
        paths.append(str(path))
    return paths


def test_table1_rows_are_ep_nearest_moduli(tmp_path, capsys):
    # table1 builds no EP records, yet prints ep's strings, exact row included
    for path in model_files(tmp_path):
        code, out, err = run(capsys, "table1", "--model", path)
        want_code, report, want_err = run(
            capsys, "ep", "--model", path, "--orders", "2,4,6,8,10", "--exact")
        assert (code, err) == (want_code, want_err), path
        if code == 0:
            report = json.loads(report)
            want = [(str(entry["order"]), entry["nearest_modulus"])
                    for entry in report["orders"]]
            want.append(("exact", report["exact"]["nearest_modulus"]))
            assert [tuple(line.split()) for line in out.splitlines()[1:]] == want, path


def test_multi_order_ep_blocks_equal_one_order_runs(tmp_path, capsys):
    # the orders are prefixes of one top-order series, bit for bit, so each
    # block is the one-order report's, and a failing order fails the report
    # with the error of the first order to fail alone
    orders = (10, 20, 30, 40)
    for path in model_files(tmp_path):
        code, out, err = run(capsys, "ep", "--model", path,
                             "--orders", ",".join(map(str, orders)))
        alone = [run(capsys, "ep", "--model", path, "--orders", str(k)) for k in orders]
        failed = [result for result in alone if result[0] != 0]
        if failed:
            assert (code, out, err) == (failed[0][0], "", failed[0][2]), path
        else:
            assert (code, err) == (0, ""), path
            assert [json.dumps(block) for block in json.loads(out)["orders"]] == [
                json.dumps(json.loads(one)["orders"][0]) for _, one, _ in alone], path


def test_multi_order_exact_ep_blocks_equal_one_order_runs(tmp_path, capsys):
    # the exact discriminant comes first and is solved beside every order's
    # in one root solve, yet each block is its one-discriminant report's,
    # and a failing report fails with the error of the first to fail alone
    orders = (10, 40)
    for path in model_files(tmp_path):
        code, out, err = run(capsys, "ep", "--model", path, "--exact",
                             "--orders", ",".join(map(str, orders)))
        alone = [run(capsys, "ep", "--model", path, "--exact")]
        alone += [run(capsys, "ep", "--model", path, "--orders", str(k)) for k in orders]
        failed = [result for result in alone if result[0] != 0]
        if failed:
            assert (code, out, err) == (failed[0][0], "", failed[0][2]), path
        else:
            assert (code, err) == (0, ""), path
            report = json.loads(out)
            assert report["exact"] == json.loads(alone[0][1])["exact"], path
            assert [json.dumps(block) for block in report["orders"]] == [
                json.dumps(json.loads(one)["orders"][0]) for _, one, _ in alone[1:]], path


def test_an_earlier_failed_solve_comes_before_a_later_build_error(tmp_path, capsys):
    # order -1 cannot be built; an order before it whose solve fails still
    # raises first, as when each order was solved before the next was built
    cases = 0
    for path in model_files(tmp_path):
        failing = run(capsys, "ep", "--model", path, "--orders", "40")
        if "RootFindingFailure" not in failing[2]:
            continue
        cases += 1
        assert run(capsys, "ep", "--model", path, "--orders", "40,-1") == failing, path
        if run(capsys, "ep", "--model", path, "--exact")[0] == 0:
            assert run(capsys, "ep", "--model", path, "--exact",
                       "--orders", "40,-1") == failing, path
        if cases == 3:
            break
    assert cases == 3
    # with no earlier failure, the build error is the one raised
    assert run(capsys, "ep", "--model", MODEL, "--exact", "--orders", "10,-1") == (
        2, "", "error: ValueError: order must be non-negative, got -1\n")


def test_multi_order_sweep_columns_equal_one_order_runs(tmp_path, capsys):
    orders = (2, 4, 6, 8, 10)
    for path in model_files(tmp_path):
        code, out, err = run(capsys, "sweep", "--model", path, "--steps", "41",
                             "--orders", ",".join(map(str, orders)))
        assert (code, err) == (0, ""), path
        header, *rows = [line.split(",") for line in out.splitlines()]
        for k in orders:
            code, one, err = run(capsys, "sweep", "--model", path, "--steps", "41",
                                 "--orders", str(k))
            assert (code, err) == (0, ""), path
            # lambda, the exact columns, this order's and the error column
            kept = [i for i, name in enumerate(header)
                    if not name.startswith("eff_") or name.startswith(f"eff_K{k}_")]
            want = [",".join(row[i] for i in kept) for row in [header] + rows]
            assert one.splitlines() == want, (path, k)


# a near-degenerate pair: the order-2 series is finite, the order-40 one not
OVERFLOW_AT_TOP = {
    "dimension": 3,
    "h0_diagonal": [0.0, 1e-10, 1.0],
    "interaction": [[1, 2, 0.5], [1, 3, 0.3], [2, 3, 0.4]],
    "p_space": [1, 2],
}


@pytest.mark.parametrize("argv, code, message", [
    (("ep", "--orders", "2"), 0, ""),
    (("ep", "--orders", "2,40"), 3, "InvariantViolation: non-finite coefficient -inf"),
    (("sweep", "--orders", "2,40"), 3, "InvariantViolation: non-finite coefficient -inf"),
    (("table1",), 0, ""),
    # the order-0 discriminant is constant, and order 0 comes first
    (("ep", "--orders", "0,40"), 2, "DegreeTooSmall: no exceptional point exists: "
                                    "a discriminant of lambda degree 0 has no root"),
    (("ep", "--orders", "40,0"), 3, "InvariantViolation: non-finite coefficient -inf"),
])
def test_an_overflow_at_the_top_order_keeps_each_error(tmp_path, capsys, argv, code, message):
    path = tmp_path / "overflow_at_top.json"
    path.write_text(json.dumps(OVERFLOW_AT_TOP))
    got_code, _, err = run(capsys, argv[0], "--model", str(path), *argv[1:])
    assert (got_code, err) == (code, message and f"error: {message}\n")


def table1_values(capsys, *argv):
    code, out, err = run(capsys, "table1", *argv)
    assert code == 0 and err == ""
    return {label: float(value) for label, value in
            (line.split() for line in out.splitlines()[1:])}


def scaled_model(tmp_path, scale):
    """zheng3 with H -> aH, written to a model file."""
    data = json.loads(Path(MODEL).read_text())
    data["h0_diagonal"] = [scale * e for e in data["h0_diagonal"]]
    data["interaction"] = [[i, j, scale * v] for i, j, v in data["interaction"]]
    path = tmp_path / "scaled.json"
    path.write_text(json.dumps(data))
    return str(path)


@pytest.mark.parametrize("scale", [1e-6, 1e-4, 1e4, 1e6])
def test_table1_invariant_under_change_of_units(tmp_path, capsys, scale):
    # H -> aH keeps every coupling where two eigenvalues coalesce
    want = table1_values(capsys)
    got = table1_values(capsys, "--model", scaled_model(tmp_path, scale))
    assert got.keys() == want.keys()
    for label, value in want.items():
        assert got[label] == pytest.approx(value, rel=1e-10), label


def sweep_cells(capsys, model):
    """The data rows of a 41-step sweep on [0, 2], split into cells."""
    code, out, err = run(
        capsys, "sweep", "--model", model, "--orders", "2,4,6", "--steps", "41",
        "--lambda-min", "0", "--lambda-max", "2",
    )
    assert code == 0 and err == ""
    return [line.split(",") for line in out.splitlines()[1:]]


def sweep_cell_kinds(capsys, model):
    """Per data row, which cells print an imaginary part."""
    return [[cell.endswith("j") for cell in row] for row in sweep_cells(capsys, model)]


@pytest.mark.parametrize("scale", [1e-16, 1e-14, 1e-12, 1e-10, 1e-6, 1e6])
def test_sweep_cell_kinds_invariant_under_change_of_units(tmp_path, capsys, scale):
    # H -> aH scales every eigenvalue by a, so a root is complex in all units
    # or in none
    want = sweep_cell_kinds(capsys, MODEL)
    assert sum(map(sum, want)) == 40
    assert sweep_cell_kinds(capsys, scaled_model(tmp_path, scale)) == want


def sweep_exact_cells(capsys, model):
    return np.array([[float(x) for x in row[1:4]] for row in sweep_cells(capsys, model)])


@pytest.mark.parametrize("scale", [1e-12, 1e40])
def test_sweep_exact_cells_scale_with_units(tmp_path, capsys, scale):
    # H -> aH scales every eigenvalue by a, in tiny units and huge ones
    want = scale * sweep_exact_cells(capsys, MODEL)
    got = sweep_exact_cells(capsys, scaled_model(tmp_path, scale))
    bound = 1e-14 * np.max(np.abs(want), axis=1)
    assert (np.max(np.abs(got - want), axis=1) <= bound).all()


@pytest.mark.parametrize("scale", [1e-100, 1e100])
def test_sweep_resummed_cells_scale_with_units(tmp_path, capsys, scale):
    # the start circles and the stop rule scale with the units, so the
    # resummed roots neither overflow nor stop early in far units.  Far
    # outside the convergence radius their polynomials are ill-conditioned:
    # rounding them in other units (a = 3 as well) moves roots by ~5e-11.
    def resummed(model):
        return np.array([[complex(x) for x in row[4:-1]]
                         for row in sweep_cells(capsys, model)])
    want = scale * resummed(MODEL)
    got = resummed(scaled_model(tmp_path, scale))
    bound = 1e-9 * np.max(np.abs(want), axis=1)
    assert (np.max(np.abs(got - want), axis=1) <= bound).all()


def test_sweep_complex_cells_kept_in_tiny_units(tmp_path, capsys):
    # at a=1e-12 every imaginary part is below 1e-10 in absolute terms
    want = sweep_cell_kinds(capsys, MODEL)
    got = sweep_cell_kinds(capsys, scaled_model(tmp_path, 1e-12))
    kept = [g for want_row, got_row in zip(want, got)
            for w, g in zip(want_row, got_row) if w]
    assert len(kept) == 40 and all(kept)


def test_sweep_zero_level_prints_real_at_zero_coupling():
    # at lambda=0 the resummed roots are the P-space levels of H0; a level
    # at 0.0 comes out as rounding noise around zero (|z| ~ 1e-92 on some of
    # these models), with an imaginary part as large as its real part
    rng = np.random.default_rng(1)
    for _ in range(10):
        h0, interaction = random_model_data(rng, 4)
        h0 = tuple(e - h0[1] for e in h0)
        model = MatrixModel(4, h0, interaction, (2, 3))
        lines = cli.sweep_csv_lines(model, SweepSpec(0.0, 1.0, 11, (2, 4, 6)))
        assert lines[1].split(",")[0] == "0.0000000000000000e+00"
        assert not any(cell.endswith("j") for cell in lines[1].split(","))


def test_reconstruct_overflow_exits_3(tmp_path, capsys):
    # a 1e-200 gap makes the order-4 series overflow: the model is valid, so
    # this is a numerical failure
    path = tmp_path / "tiny_gap.json"
    path.write_text(json.dumps({
        "dimension": 2,
        "h0_diagonal": [0.0, 1e-200],
        "interaction": [[1, 2, 1.0]],
        "p_space": [1],
    }))
    code, _, err = run(capsys, "reconstruct", "--model", str(path), "--order", "4")
    assert code == 3
    assert err == "error: InvariantViolation: non-finite coefficient inf\n"


def test_ep_nan_discriminant_roots_exit_3(tmp_path, capsys):
    # in units of 1e100 the order-40 discriminant of this D=3 model has
    # coefficients up to 1.4e200, and the root iteration overflows to NaN;
    # that is a root-finding failure, not a bad model.  In units of 1 the
    # same solve runs into the iteration cap instead.
    unit = 1e100
    path = tmp_path / "model.json"
    path.write_text(json.dumps({
        "dimension": 3,
        "h0_diagonal": [unit * e for e in (
            0.08908619624126235, -0.48167990866046884, -1.982383759125323)],
        "interaction": [
            [2, 1, unit * 0.5095400181377714],
            [3, 2, unit * -0.37821667639322565],
            [3, 1, unit * 0.8776836689221061],
        ],
        "p_space": [2, 1],
    }))
    code, out, err = run(capsys, "ep", "--model", str(path), "--orders", "40")
    assert code == 3
    assert out == ""
    assert err == (
        "error: RootFindingFailure: discriminant root iteration reached a "
        "non-finite value\n"
    )


# every entry is +-1e150: p_3 and p_4 overflow to nan
OVERFLOW_D4 = {
    "dimension": 4,
    "h0_diagonal": [1e150, 2e150, -1e150, 3e150],
    "interaction": [[1, 2, 1e150], [2, 3, 1e150], [3, 4, 1e150], [1, 4, 1e150]],
    "p_space": [1, 2],
}
# p_2 = -lambda^2 * 8e199^2 overflows to -inf, which trimmed() must not drop
OVERFLOW_D2 = {
    "dimension": 2, "h0_diagonal": [0.0, 1.5e200],
    "interaction": [[1, 2, 8e199]], "p_space": [1],
}
# zheng3 times 1e80: finite p_j, but the discriminant overflows to nan
OVERFLOW_DISC = {
    "dimension": 3, "h0_diagonal": [2e80, 1.1e80, 1e80],
    "interaction": [[1, 2, 1e80], [2, 3, 1e80]], "p_space": [2, 3],
}


@pytest.mark.parametrize("data, argv, value", [
    (OVERFLOW_D4, ("charpoly",), "nan"),
    (OVERFLOW_D2, ("charpoly",), "-inf"),
])
def test_non_finite_exact_coefficients_exit_3(tmp_path, capsys, data, argv, value):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, *argv, "--model", str(path))
    assert (code, out) == (3, "")
    assert err == f"error: InvariantViolation: non-finite coefficient {value}\n"


@pytest.mark.parametrize("data, unit", [(OVERFLOW_D4, 1e150), (OVERFLOW_DISC, 1e80)])
@pytest.mark.parametrize("command", ["ep", "table1"])
def test_exact_eps_of_overflowing_charpolys_are_the_unscaled_model_s(
        tmp_path, capsys, data, unit, command):
    # the charpoly of these models overflows, the exact pencil, built from
    # differences of h0 and from V, does not: the nearest EP is that of the
    # model in units of `unit`
    scaled, plain = tmp_path / "scaled.json", tmp_path / "plain.json"
    scaled.write_text(json.dumps(data))
    plain.write_text(json.dumps({
        **data, "h0_diagonal": [e / unit for e in data["h0_diagonal"]],
        "interaction": [[i, j, value / unit] for i, j, value in data["interaction"]]}))
    moduli = []
    for path in (scaled, plain):
        if command == "ep":
            code, out, err = run(capsys, "ep", "--exact", "--model", str(path))
            moduli.append(float(json.loads(out)["exact"]["nearest_modulus"]))
        else:
            code, out, err = run(capsys, "table1", "--model", str(path))
            moduli.append(float(out.split()[-1]))
        assert (code, err) == (0, "")
    assert moduli[0] == pytest.approx(moduli[1], rel=1e-14)


def test_sweep_exact_cells_need_no_charpoly(tmp_path, capsys):
    # the charpoly of this model overflows, H(lambda) on the grid does not
    path = tmp_path / "model.json"
    path.write_text(json.dumps(OVERFLOW_D4))
    model = load_model(path)
    code, out, err = run(capsys, "sweep", "--model", str(path), "--steps", "3")
    assert code == 0 and err == ""
    for line in out.splitlines()[1:]:
        row = line.split(",")
        exact = np.linalg.eigvalsh(hamiltonian_at(model, float(row[0])).real)
        assert row[1:5] == ["%.16e" % e for e in exact]


EVERY_COMMAND = [
    ("validate",),
    ("series", "--order", "6"),
    ("charpoly",),
    ("reconstruct", "--order", "6"),
    ("sweep", "--orders", "2,6", "--steps", "11"),
    ("ep", "--orders", "2,6", "--exact"),
    ("table1",),
]


@pytest.mark.parametrize("argv", EVERY_COMMAND, ids=lambda argv: argv[0])
def test_out_file_holds_stdout_and_empty_model_is_missing(tmp_path, capsys, argv):
    if argv[0] != "validate":  # the one command without --out
        code, out, err = run(capsys, *argv, "--model", MODEL)
        assert code == 0 and err == ""
        path = tmp_path / "out"
        assert run(capsys, *argv, "--model", MODEL, "--out", str(path)) == (0, "", "")
        assert path.read_bytes() == out.encode("utf-8")
    # only an absent --model falls back to the bundled fixture
    code, out, err = run(capsys, *argv, "--model", "")
    assert (code, out) == (1, "")
    assert err.startswith("error: ")


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize(
    "name, argv",
    [
        ("charpoly.txt", ("charpoly", "--model", MODEL)),
        ("ep.json", ("ep", "--model", MODEL, "--orders", "2,4,6,8,10,20,40", "--exact")),
        ("reconstruct30.json", ("reconstruct", "--model", MODEL, "--order", "30")),
        ("table1.txt", ("table1",)),
        ("sweep.csv", ("sweep", "--model", MODEL, "--orders", "2,4,6", "--steps", "41",
                       "--lambda-min", "0", "--lambda-max", "2")),
        ("series30.txt", ("series", "--model", MODEL, "--order", "30")),
    ],
)
def test_golden_output(capsys, name, argv):
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    assert out.encode("utf-8") == (GOLDEN / name).read_bytes()


def test_parser_built_once_for_many_commands(capsys):
    # a caller that drives main in a loop pays for one parser, not one per
    # command, and a reused parser gives every command its own arguments
    cli.build_parser.cache_clear()
    for name, argv in [
        ("table1.txt", ("table1",)),
        ("charpoly.txt", ("charpoly", "--model", MODEL)),
        ("table1.txt", ("table1",)),
    ]:
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert out.encode("utf-8") == (GOLDEN / name).read_bytes()
    assert cli.build_parser.cache_info().misses == 1


def run_module(*argv):
    """Run python -m secres.cli in a fresh interpreter on the source tree."""
    root = Path(__file__).parent.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    return subprocess.run([sys.executable, "-m", "secres.cli", *argv], cwd=root,
                          env=env, capture_output=True, check=False)


def test_module_entry_point_exits_with_main_s_code(tmp_path):
    # console_main and the __main__ guard pass main's exit code to the
    # shell, and its output through unchanged
    done = run_module("validate", "--model", MODEL)
    assert (done.returncode, done.stdout, done.stderr) == (0, b"OK\n", b"")
    path = tmp_path / "degenerate.json"
    path.write_text(json.dumps({"dimension": 2, "h0_diagonal": [1, 1],
                                "interaction": [[1, 2, 0.5]], "p_space": [1]}))
    done = run_module("validate", "--model", str(path))
    assert (done.returncode, done.stdout) == (2, b"")
    assert done.stderr == (b"error: DegenerateUnperturbed: "
                           b"h0_diagonal entries 1 and 2 are both 1.0\n")
    done = run_module("table1")
    assert (done.returncode, done.stderr) == (0, b"")
    assert done.stdout == (GOLDEN / "table1.txt").read_bytes()


def test_sweeps_and_ep_reports_run_concurrently(zheng3):
    # everything is immutable and pure, so threads sharing the library
    # give each call the result it gives alone
    spec = SweepSpec(0.0, 0.5, 1001, (2, 4, 6, 8, 10))
    sweep = cli.sweep_csv_lines(zheng3, spec)
    report = cli.ep_report(zheng3, (10, 20, 30, 40), True)
    with ThreadPoolExecutor(max_workers=4) as pool:
        sweeps = [pool.submit(cli.sweep_csv_lines, zheng3, spec) for _ in range(16)]
        reports = [pool.submit(cli.ep_report, zheng3, (10, 20, 30, 40), True)
                   for _ in range(16)]
        assert all(future.result() == sweep for future in sweeps)
        assert all(future.result() == report for future in reports)
