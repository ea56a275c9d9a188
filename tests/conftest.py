import sys
from pathlib import Path

import pytest

from secres import MatrixModel, all_roots, load_model
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


def charpoly_roots_at(cp, lam):
    """The roots of a characteristic polynomial at one coupling, real or
    complex, from all_roots on its coefficients there, sorted by real part,
    then imaginary part; fails unless the solve converged.  Tests of the
    polynomial itself use this, not exact_eigenvalues_at, which never forms
    it."""
    result = all_roots([p.evaluate(lam) for p in reversed(cp.coefficients)] + [1.0])
    assert result.converged, result.max_residual
    return sorted(result.roots[:, 0].tolist(), key=lambda z: (z.real, z.imag))


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
