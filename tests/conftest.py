import sys
from pathlib import Path

import pytest

from secres import MatrixModel, load_model, validate
from secres.cli import bundled_model_path

sys.path.insert(0, str(Path(__file__).parent))

ZHENG3_PATH = bundled_model_path()


@pytest.fixture(scope="session")
def zheng3() -> MatrixModel:
    """The tridiagonal 3x3 fixture: diag (2, 1.1, 1), couplings on (1,2), (2,3)."""
    return load_model(ZHENG3_PATH)


@pytest.fixture()
def small_model() -> MatrixModel:
    """2x2 single-coupling model with an exact hand determinant."""
    return validate(MatrixModel(2, (0.0, 1.0), ((1, 2, 1.0),), (1,)))
