import json
from pathlib import Path

import pytest

from secres import (
    characteristic_polynomial,
    discriminant,
    exceptional_points,
    nearest_exceptional_point,
    p_space_series,
    perturbation_series,
    reconstruct,
    reconstruction_source,
)
from secres.cli import SweepSpec, main

from conftest import ZHENG3_PATH

MODEL = str(ZHENG3_PATH)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
    engine_value = perturbation_series(zheng3, 2, 2).energy_series.coefficients[2]
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
    with pytest.raises(ValueError):
        SweepSpec(lambda_min=0.0, lambda_max=0.5, steps=10, orders=(-2,))


def test_ep_report_matches_library(capsys, zheng3):
    code, out, _ = run(
        capsys, "ep", "--model", MODEL, "--orders", "2,4", "--exact"
    )
    assert code == 0
    report = json.loads(out)

    exact_points = exceptional_points(
        discriminant(characteristic_polynomial(zheng3)), "exact"
    )
    nearest = nearest_exceptional_point(exact_points)
    assert float(report["exact"]["nearest_modulus"]) == nearest.modulus
    assert len(report["exact"]["points"]) == len(exact_points)

    for entry in report["orders"]:
        k = entry["order"]
        points = exceptional_points(
            discriminant(reconstruct(p_space_series(zheng3, k))),
            reconstruction_source(k),
        )
        best = nearest_exceptional_point(points)
        assert float(entry["nearest_modulus"]) == best.modulus
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


def table1_values(capsys, *argv):
    code, out, err = run(capsys, "table1", *argv)
    assert code == 0 and err == ""
    return {label: float(value) for label, value in
            (line.split() for line in out.splitlines()[1:])}


@pytest.mark.parametrize("scale", [1e-6, 1e-4, 1e4, 1e6])
def test_table1_invariant_under_change_of_units(tmp_path, capsys, scale):
    # H -> aH keeps every coupling where two eigenvalues coalesce
    data = json.loads(Path(MODEL).read_text())
    data["h0_diagonal"] = [scale * e for e in data["h0_diagonal"]]
    data["interaction"] = [[i, j, scale * v] for i, j, v in data["interaction"]]
    path = tmp_path / "scaled.json"
    path.write_text(json.dumps(data))
    want = table1_values(capsys)
    got = table1_values(capsys, "--model", str(path))
    assert got.keys() == want.keys()
    for label, value in want.items():
        assert got[label] == pytest.approx(value, rel=1e-10), label


def test_reconstruct_overflow_exits_2(tmp_path, capsys):
    # a 1e-200 gap makes the order-4 series overflow: a validation-class error
    path = tmp_path / "tiny_gap.json"
    path.write_text(json.dumps({
        "dimension": 2,
        "h0_diagonal": [0.0, 1e-200],
        "interaction": [[1, 2, 1.0]],
        "p_space": [1],
    }))
    code, _, err = run(capsys, "reconstruct", "--model", str(path), "--order", "4")
    assert code == 2
    assert err == "error: ValueError: non-finite coefficient inf\n"


def test_ep_nan_discriminant_roots_exit_3(tmp_path, capsys):
    # the order-40 discriminant of this D=3 model overflows the root
    # iteration to NaN; that is a root-finding failure, not a bad model
    path = tmp_path / "model.json"
    path.write_text(json.dumps({
        "dimension": 3,
        "h0_diagonal": [0.08908619624126235, -0.48167990866046884, -1.982383759125323],
        "interaction": [
            [2, 1, 0.5095400181377714],
            [3, 2, -0.37821667639322565],
            [3, 1, 0.8776836689221061],
        ],
        "p_space": [2, 1],
    }))
    code, out, err = run(capsys, "ep", "--model", str(path), "--orders", "40")
    assert code == 3
    assert out == ""
    assert "RootFindingFailure" in err


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize(
    "name, argv",
    [
        ("charpoly.txt", ("charpoly", "--model", MODEL)),
        ("ep.json", ("ep", "--model", MODEL, "--orders", "2,4,6,8,10,20,40", "--exact")),
        ("reconstruct30.json", ("reconstruct", "--model", MODEL, "--order", "30")),
        ("table1.txt", ("table1",)),
    ],
)
def test_golden_output(capsys, name, argv):
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    assert out.encode("utf-8") == (GOLDEN / name).read_bytes()
