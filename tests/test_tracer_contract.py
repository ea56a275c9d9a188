"""The benchmark tracer's contract with the library, checked from outside.

``perfbench/tracer.py`` wraps pipeline functions by the module attributes
the library calls them through.  A renamed or moved function would leave
``--trace 1`` recording nothing for its layer without any error, so these
tests read the tracer's binding table and run it on one command.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from secres import cli, discriminant, p_space_series, reconstruct

from conftest import ZHENG3_PATH

TRACER_PATH = Path(__file__).parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bindings(tracer):
    return {
        (module, attr): getattr(sys.modules[module], attr)
        for pairs in tracer.LAYERS.values()
        for module, attr in pairs
    }


def test_every_layer_binding_resolves():
    for (module, attr), fn in bindings(load_tracer()).items():
        assert callable(fn), f"{module}.{attr}"


@pytest.mark.parametrize("argv, layers", [
    (("ep", "--model", str(ZHENG3_PATH), "--orders", "6", "--exact"),
     ("discriminant.discriminant", "discriminant.exceptional_points", "roots.all_roots")),
    (("charpoly", "--model", str(ZHENG3_PATH)), ("charpoly.characteristic_polynomial",)),
], ids=["ep-exact", "charpoly"])
def test_run_records_each_layer(tmp_path, argv, layers):
    """The exact EPs come from a pencil, with no characteristic polynomial:
    the charpoly layer is recorded by the command that prints it."""
    tracer = load_tracer()
    before = bindings(tracer)
    recorder = tracer.Tracer()
    recorder.install()
    try:
        code = cli.main([*argv, "--out", str(tmp_path / "out")])
    finally:
        recorder.remove()
    assert code == 0
    assert bindings(tracer) == before
    totals = recorder.layer_totals()
    for layer in ("cli.main", *layers):
        assert totals[layer]["calls"] >= 1, layer
    if argv[0] == "ep":
        assert totals["charpoly.characteristic_polynomial"]["calls"] == 0


def test_sweep_run_records_one_root_solve_per_column(tmp_path):
    """One root solve per order, none for the exact column, which comes
    from an eigensolve of H(lambda); a batch RootSet keeps the summary the
    tracer's observer reads."""
    tracer = load_tracer()
    calls = []
    observe = tracer._OBSERVERS["roots.all_roots"]

    def recording(counters, args, result):
        calls.append((len(result.roots), result.max_residual, result.converged))
        observe(counters, args, result)

    tracer._OBSERVERS["roots.all_roots"] = recording
    recorder = tracer.Tracer()
    recorder.install()
    try:
        code = cli.main([
            "sweep", "--model", str(ZHENG3_PATH), "--orders", "2,4",
            "--steps", "5", "--out", str(tmp_path / "sweep.csv"),
        ])
    finally:
        recorder.remove()
    assert code == 0
    assert recorder.layer_totals()["roots.all_roots"]["calls"] == 2
    assert len(calls) == 2
    for degree, max_residual, converged in calls:
        assert degree == 2
        assert type(max_residual) is float
        assert converged is True


def test_ep_run_records_the_discriminant_solve(tmp_path, zheng3):
    """A lone solve is a batch of one: the degree the tracer reads,
    len(result.roots), is the discriminant's lambda degree, and the
    summaries are a float and a bool."""
    tracer = load_tracer()
    calls = []
    observe = tracer._OBSERVERS["roots.all_roots"]

    def recording(counters, args, result):
        calls.append((len(result.roots), result.max_residual, result.converged))
        observe(counters, args, result)

    tracer._OBSERVERS["roots.all_roots"] = recording
    recorder = tracer.Tracer()
    recorder.install()
    try:
        code = cli.main([
            "ep", "--model", str(ZHENG3_PATH), "--orders", "6",
            "--out", str(tmp_path / "ep.json"),
        ])
    finally:
        recorder.remove()
    assert code == 0
    ((degree, max_residual, converged),) = calls
    assert degree == discriminant(reconstruct(p_space_series(zheng3, 6))).degree
    assert type(max_residual) is float
    assert type(converged) is bool


@pytest.mark.parametrize("argv", [
    ("ep", "--model", str(ZHENG3_PATH), "--orders", "6"),
    ("table1",),
], ids=["ep", "table1-bundled"])
def test_each_command_loads_its_model_once(tmp_path, argv):
    """main loads the model through secres.cli's load_model binding, once
    per command, the bundled fixture included."""
    tracer = load_tracer()
    recorder = tracer.Tracer()
    recorder.install()
    try:
        code = cli.main([*argv, "--out", str(tmp_path / "out")])
    finally:
        recorder.remove()
    assert code == 0
    assert recorder.layer_totals()["model.load_model"]["calls"] == 1


@pytest.mark.parametrize("argv, orders", [
    (("table1",), (2, 4, 6, 8, 10)),
    (("ep", "--model", str(ZHENG3_PATH), "--orders", "6", "--exact"), (6,)),
], ids=["table1", "ep-exact"])
def test_each_ep_command_records_one_root_solve(tmp_path, zheng3, argv, orders):
    """All the order-K discriminants of a command go to one all_roots call,
    whose degree, as the tracer reads it, is the largest of theirs; the
    exact EPs take no charpoly, discriminant or root solve."""
    tracer = load_tracer()
    calls = []
    observe = tracer._OBSERVERS["roots.all_roots"]

    def recording(counters, args, result):
        calls.append((len(result.roots), result.max_residual, result.converged))
        observe(counters, args, result)

    tracer._OBSERVERS["roots.all_roots"] = recording
    recorder = tracer.Tracer()
    recorder.install()
    try:
        code = cli.main([*argv, "--out", str(tmp_path / "out")])
    finally:
        recorder.remove()
    assert code == 0
    totals = recorder.layer_totals()
    assert totals["roots.all_roots"]["calls"] == 1
    assert totals["discriminant.exceptional_points"]["calls"] == 1
    assert totals["discriminant.discriminant"]["calls"] == len(orders)
    assert totals["charpoly.characteristic_polynomial"]["calls"] == 0
    polys = [reconstruct(p_space_series(zheng3, k)) for k in orders]
    ((degree, max_residual, converged),) = calls
    assert degree == max(discriminant(poly).degree for poly in polys)
    assert type(max_residual) is float
    assert type(converged) is bool
