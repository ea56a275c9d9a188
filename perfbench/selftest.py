"""Self-tests of the benchmark: seeded inputs, output checks, tracer.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps the repository's own test run from collecting it.
"""

from __future__ import annotations

import json
import sys

import numpy as np
import pytest

import checks
import reference
import run
import workloads
from tracer import LAYERS, Tracer

sys.path.insert(0, str(run.SRC))
from secres import cli  # noqa: E402

ZHENG3 = cli.bundled_model_path()
ZHENG3_EP = "0.0513921775780513527"  # 30-digit reference, purely imaginary


def call(*argv) -> int:
    code, err = run.run_command(list(map(str, argv)))
    assert code == 0, err
    return code


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(tmp_path, workload):
    first = workloads.write_models(workload, 7, tmp_path / "a")
    second = workloads.write_models(workload, 7, tmp_path / "b")
    other = workloads.write_models(workload, 8, tmp_path / "c")
    assert [p.read_bytes() for p in first] == [p.read_bytes() for p in second]
    assert [p.read_bytes() for p in first] != [p.read_bytes() for p in other]
    cmds_a = workloads.commands(workload, first, ZHENG3, tmp_path / "out")
    cmds_b = workloads.commands(workload, second, ZHENG3, tmp_path / "out")
    assert [c.label for c in cmds_a] == [c.label for c in cmds_b]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_presentations_keep_the_spectrum(workload):
    """Every seed shows the same Hamiltonians and the same model-space energies."""
    for model, shown in zip(workloads.population(workload), workloads.seeded_models(workload, 3)):
        for lam in (0.3, 1.7):
            want = np.linalg.eigvalsh(checks.hamiltonian(model, lam))
            got = np.linalg.eigvalsh(checks.hamiltonian(shown, lam))
            assert np.allclose(got, want, atol=1e-12)
        p_energies = sorted(shown["h0_diagonal"][n - 1] for n in shown["p_space"])
        assert p_energies == sorted(model["h0_diagonal"][n - 1] for n in model["p_space"])


def test_zheng3_reference_matches_the_30_digit_value():
    ref = checks.reference_ep(json.loads(ZHENG3.read_text()), 0.0514j)
    assert abs(float(ref[0])) < 1e-30
    assert ref[1].startswith(ZHENG3_EP)
    assert checks.nearest_ep_modulus(json.loads(ZHENG3.read_text())).startswith(ZHENG3_EP[:22])


def test_sweep_check_rejects_corrupted_cells(tmp_path):
    out = tmp_path / "sweep.csv"
    call("sweep", "--model", ZHENG3, "--orders", "4,6", "--steps", "21", "--out", out)
    checker = run.Checker(ZHENG3, tmp_path, run.References(tmp_path / "refs.json"))
    polys = {k: checker.secular(ZHENG3, k) for k in (4, 6)}
    model = json.loads(ZHENG3.read_text())
    problems, value, error_rows = checks.check_sweep(out, model, polys)
    assert problems == [] and error_rows == 0 and value > 13
    lines = out.read_text().splitlines()
    for column in (1, 5):  # an exact column, then a resummed one
        cells = lines[7].split(",")
        cells[column] = f"{float(cells[column]) * (1 + 1e-5):.16e}"
        bad = tmp_path / f"bad{column}.csv"
        bad.write_text("\n".join(lines[:7] + [",".join(cells)] + lines[8:]) + "\n")
        assert checks.check_sweep(bad, model, polys)[0]


def test_companion_check_rejects_a_moved_ep(tmp_path):
    out = tmp_path / "ep.json"
    call("ep", "--model", ZHENG3, "--orders", "10,30", "--out", out)
    checker = run.Checker(ZHENG3, tmp_path, run.References(tmp_path / "refs.json"))
    for k, ep in checks.parse_ep_report(out)["orders"].items():
        secular = checker.secular(ZHENG3, k)
        assert checks.check_companion_ep("ok", ep, secular) == []
        assert checks.check_companion_ep("moved", ep * (1 + 1e-6), secular)


def test_exact_check_rejects_wrong_eps(tmp_path):
    out = tmp_path / "ep.json"
    call("ep", "--model", ZHENG3, "--exact", "--out", out)
    refs = run.References(tmp_path / "refs.json")
    nearest = refs.nearest(ZHENG3)
    ep = checks.parse_ep_report(out)["exact"]
    problems, value = checks.check_exact_ep("ok", ep, refs.ep(ZHENG3, ep), nearest)
    assert problems == [] and 9.5 < value < 12
    report = json.loads(out.read_text())
    further = [complex(float(p["re"]), float(p["im"])) for p in report["exact"]["points"]
               if float(p["modulus"]) > abs(ep) * 1.01][0]
    for wrong in (ep.conjugate(), ep * 1.01, further):
        assert checks.check_exact_ep("wrong", wrong, refs.ep(ZHENG3, wrong), nearest)[0]


def test_table1_check_rejects_corrupted_rows(tmp_path):
    out = tmp_path / "table1.txt"
    call("table1", "--out", out)
    checker = run.Checker(ZHENG3, tmp_path, run.References(tmp_path / "refs.json"))
    cmd = workloads.Command(("table1",), None, out, "table1")
    checker.check(cmd)
    assert checker.problems == []
    lines = out.read_text().splitlines()
    for index in (1, len(lines) - 1):  # the K=2 row, then the exact row
        key, value = lines[index].split()
        bad = lines[:index] + [f"{key}  {float(value) * 1.01!r}"] + lines[index + 1:]
        out.write_text("\n".join(bad))
        checker.problems = []
        checker.check(cmd)
        assert checker.problems
        out.write_text("\n".join(lines))


def test_p90_interpolates_between_samples():
    assert run.p90([float(v) for v in range(11)]) == pytest.approx(9.0)
    assert run.p90([float(v) for v in range(10, 0, -1)]) == pytest.approx(9.1)


def test_pass_time_is_divided_by_the_reference_loops_around_each_command(monkeypatch):
    clock = iter(range(100))
    loops = iter([1.0, 3.0, 1.0])
    monkeypatch.setattr(run, "perf_counter", lambda: float(next(clock)))
    monkeypatch.setattr(run, "reference_seconds", lambda: next(loops))
    monkeypatch.setattr(run, "run_command", lambda argv: (0, ""))
    cmds = [workloads.Command(("a",), None, ZHENG3, "ep")] * 2
    # each command takes one clock tick; the loops around them average 2 and 2
    assert run.run_pass(cmds) == (2.0, 1.0, [0, 0])


def test_reference_loop_calls_nothing_of_secres():
    tracer = Tracer()
    tracer.install()
    try:
        reference.reference_seconds()
    finally:
        tracer.remove()
    assert all(entry["calls"] == 0 for entry in tracer.layer_totals().values())


def test_tracer_wraps_and_restores(tmp_path):
    before = {(m, a): getattr(sys.modules[m], a) for b in LAYERS.values() for m, a in b}
    tracer = Tracer()
    tracer.install()
    try:
        call("ep", "--model", ZHENG3, "--orders", "6", "--exact", "--out", tmp_path / "ep.json")
    finally:
        tracer.remove()
    assert {(m, a): getattr(sys.modules[m], a) for b in LAYERS.values() for m, a in b} == before
    totals = tracer.layer_totals()
    assert totals["cli.main"]["calls"] == 1
    assert totals["discriminant.discriminant"]["calls"] == 2
    assert totals["roots.all_roots"]["calls"] == 2
    for entry in totals.values():
        assert 0.0 <= entry["self_s"] <= entry["busy_s"] + 1e-12
    assert totals["cli.main"]["busy_s"] >= totals["discriminant.discriminant"]["busy_s"]
    assert tracer.counters["discriminant.discriminant.sylvester_n_max"] == 5
