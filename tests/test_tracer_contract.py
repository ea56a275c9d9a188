"""The benchmark tracer's contract with the library, checked from outside.

``perfbench/tracer.py`` wraps pipeline functions by the module attributes
the library calls them through.  A renamed or moved function would leave
``--trace 1`` recording nothing for its layer without any error, so these
tests read the tracer's binding table and run it on one command.
"""

import importlib.util
import sys
from pathlib import Path

from secres import cli

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


def test_ep_exact_run_records_each_layer(tmp_path):
    tracer = load_tracer()
    before = bindings(tracer)
    recorder = tracer.Tracer()
    recorder.install()
    try:
        code = cli.main([
            "ep", "--model", str(ZHENG3_PATH), "--orders", "6", "--exact",
            "--out", str(tmp_path / "ep.json"),
        ])
    finally:
        recorder.remove()
    assert code == 0
    assert bindings(tracer) == before
    totals = recorder.layer_totals()
    for layer in (
        "cli.main",
        "charpoly.characteristic_polynomial",
        "discriminant.discriminant",
        "discriminant.exceptional_points",
        "roots.all_roots",
    ):
        assert totals[layer]["calls"] >= 1, layer


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
