"""Finite matrix Hamiltonians H0 + lambda*V with a declared model space.

The model stores the diagonal part (unperturbed energies), the strictly
off-diagonal coupling entries, and the ordered list of model-space (P)
basis indices.  Indices are 1-based in files and reports; conversion to
0-based happens only where matrices are assembled.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import isfinite
from pathlib import Path
from typing import Any

import numpy as np

from .errors import (
    DegenerateUnperturbed,
    DiagonalInteraction,
    DuplicateEntry,
    EmptyPSpace,
    IndexOutOfRange,
    ModelFormatError,
)


@dataclass(frozen=True)
class MatrixModel:
    """Immutable finite Hamiltonian H(lambda) = H0 + lambda*V.

    dimension    -- total number of basis states
    h0_diagonal  -- diagonal of H0 (unperturbed energies)
    interaction  -- off-diagonal entries (i, j, value), stored symmetrically
    p_space      -- ordered 1-based indices of the model-space states
    """

    dimension: int
    h0_diagonal: tuple[float, ...]
    interaction: tuple[tuple[int, int, float], ...]
    p_space: tuple[int, ...]

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "MatrixModel":
        """Build a model from the JSON-file representation (unvalidated)."""
        try:
            dimension = int(data["dimension"])
            h0 = tuple(float(x) for x in data["h0_diagonal"])
            interaction = tuple(
                (int(i), int(j), float(v)) for i, j, v in data["interaction"]
            )
            p_space = tuple(int(n) for n in data["p_space"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ModelFormatError(f"malformed model data: {exc}") from exc
        if len(h0) != dimension:
            raise ModelFormatError(
                f"h0_diagonal has {len(h0)} entries, expected dimension={dimension}"
            )
        return cls(dimension, h0, interaction, p_space)

    def to_dict(self) -> dict[str, Any]:
        return {
            "dimension": self.dimension,
            "h0_diagonal": list(self.h0_diagonal),
            "interaction": [[i, j, v] for i, j, v in self.interaction],
            "p_space": list(self.p_space),
        }


def validate(model: MatrixModel) -> MatrixModel:
    """Check every structural invariant; return the model unchanged if valid.

    Raises a ValidationError subclass naming the violated invariant and the
    offending indices.  Validating an already-valid model returns the
    identical object, so the operation is idempotent.
    """
    dim = model.dimension
    if dim < 1:
        raise ModelFormatError(f"dimension must be positive, got {dim}")
    for value in model.h0_diagonal:
        if not isfinite(value):
            raise ModelFormatError(f"non-finite diagonal entry {value!r}")
    for a in range(dim):
        for b in range(a + 1, dim):
            if model.h0_diagonal[a] == model.h0_diagonal[b]:
                raise DegenerateUnperturbed(
                    f"h0_diagonal entries {a + 1} and {b + 1} are both "
                    f"{model.h0_diagonal[a]!r}"
                )
    seen: set[tuple[int, int]] = set()
    for i, j, value in model.interaction:
        if not isfinite(value):
            raise ModelFormatError(f"non-finite interaction value at ({i}, {j})")
        if i == j:
            raise DiagonalInteraction(f"interaction entry ({i}, {j}) is diagonal")
        if not (1 <= i <= dim) or not (1 <= j <= dim):
            raise IndexOutOfRange(
                f"interaction entry ({i}, {j}) outside 1..{dim}"
            )
        pair = (min(i, j), max(i, j))
        if pair in seen:
            raise DuplicateEntry(f"interaction pair ({i}, {j}) appears twice")
        seen.add(pair)
    if not model.p_space:
        raise EmptyPSpace("p_space must contain at least one state")
    seen_p: set[int] = set()
    for n in model.p_space:
        if not (1 <= n <= dim):
            raise IndexOutOfRange(f"p_space index {n} outside 1..{dim}")
        if n in seen_p:
            raise DuplicateEntry(f"p_space index {n} appears twice")
        seen_p.add(n)
    return model


def load_model(path: str | Path) -> MatrixModel:
    """Read a model JSON file and validate it."""
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if not isinstance(data, dict):
        raise ModelFormatError("model file must contain a JSON object")
    return validate(MatrixModel.from_dict(data))


def interaction_matrix(model: MatrixModel) -> np.ndarray:
    """Dense real symmetric coupling matrix V (the lambda-free part)."""
    v = np.zeros((model.dimension, model.dimension))
    for i, j, value in model.interaction:
        v[i - 1, j - 1] = value
        v[j - 1, i - 1] = value
    return v

