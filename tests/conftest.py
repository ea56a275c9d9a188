import importlib.util
import sys
from pathlib import Path

import pytest

from secres import MatrixModel, load_model
from secres.cli import bundled_model_path

TESTS_DIR = Path(__file__).parent
sys.path.insert(0, str(TESTS_DIR))

ZHENG3_PATH = bundled_model_path()


def roots_at(solve, source, lam):
    """The sorted roots at one coupling from eigenvalues_at(poly, ...) or
    exact_eigenvalues_at(model, ...), as a list; fails unless the solve
    succeeded."""
    roots, failures = solve(source, [lam])
    assert not failures, failures[0]
    return roots[0].tolist()


def benchmark_models():
    """The seeded models of every benchmark workload, seeds 1-3."""
    path = TESTS_DIR.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    # its dataclass looks the module up by name while it is defined
    sys.modules[spec.name] = workloads
    spec.loader.exec_module(workloads)
    return [MatrixModel.from_dict(data)
            for workload in workloads.WORKLOADS for seed in (1, 2, 3)
            for data in workloads.seeded_models(workload, seed)]


def pytest_collection_modifyitems(items):
    """A warning in any test here fails it, as if pytest ran with -W error.

    Scoped to this directory so that tools collected alongside keep their
    own warning settings.
    """
    for item in items:
        if TESTS_DIR in item.path.parents:
            item.add_marker(pytest.mark.filterwarnings("error"))


@pytest.fixture(scope="session")
def zheng3() -> MatrixModel:
    """The tridiagonal 3x3 fixture: diag (2, 1.1, 1), couplings on (1,2), (2,3)."""
    return load_model(ZHENG3_PATH)


@pytest.fixture()
def small_model() -> MatrixModel:
    """2x2 single-coupling model with an exact hand determinant."""
    return MatrixModel(2, (0.0, 1.0), ((1, 2, 1.0),), (1,))
