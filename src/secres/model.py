"""Finite matrix Hamiltonians H0 + lambda*V with a declared model space.

The model stores the diagonal part (unperturbed energies), the strictly
off-diagonal coupling entries, and the ordered list of model-space (P)
basis indices.  Indices are 1-based in files and reports; conversion to
0-based happens only where matrices are assembled.
"""

from __future__ import annotations

import json
from contextlib import suppress
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


def _array(value: Any, field: str) -> list | tuple:
    if not isinstance(value, (list, tuple)):
        raise ModelFormatError(f"{field} must be an array, got {value!r}")
    return value


def _number(value: Any, field: str, kind: type) -> Any:
    """value as kind, which takes an int, or for float an int or a float.  A
    bool is no number here, nor is an integer beyond the range of a double."""
    with suppress(OverflowError):
        if isinstance(value, (kind, int)) and not isinstance(value, bool):
            return kind(value)
    wanted = "an integer" if kind is int else "a real number"
    raise ModelFormatError(f"{field} must be {wanted}, got {value!r}")


def _coupling(entry: Any) -> tuple[int, int, float]:
    if len(_array(entry, "interaction entry")) != 3:
        raise ModelFormatError(f"interaction entry must have 3 items, got {entry!r}")
    i, j, value = entry
    return (_number(i, "interaction index", int), _number(j, "interaction index", int),
            _number(value, "interaction value", float))


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

    def __post_init__(self):
        """Check every structural invariant, so that building a model is
        validating it.

        Raises a ValidationError subclass naming the violated invariant and
        the offending indices.
        """
        dim = self.dimension
        if len(self.h0_diagonal) != dim:
            raise ModelFormatError(f"h0_diagonal has {len(self.h0_diagonal)} "
                                   f"entries, expected dimension={dim}")
        if dim < 1:
            raise ModelFormatError(f"dimension must be positive, got {dim}")
        for value in self.h0_diagonal:
            if not isfinite(value):
                raise ModelFormatError(f"non-finite diagonal entry {value!r}")
        for a in range(dim):
            for b in range(a + 1, dim):
                if self.h0_diagonal[a] == self.h0_diagonal[b]:
                    raise DegenerateUnperturbed(
                        f"h0_diagonal entries {a + 1} and {b + 1} are both "
                        f"{self.h0_diagonal[a]!r}"
                    )
        seen: set[tuple[int, int]] = set()
        for i, j, value in self.interaction:
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
        if not self.p_space:
            raise EmptyPSpace("p_space must contain at least one state")
        seen_p: set[int] = set()
        for n in self.p_space:
            if not (1 <= n <= dim):
                raise IndexOutOfRange(f"p_space index {n} outside 1..{dim}")
            if n in seen_p:
                raise DuplicateEntry(f"p_space index {n} appears twice")
            seen_p.add(n)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "MatrixModel":
        """Build a model from the JSON-file representation.

        The dimension and every index must be integers, the energies and
        couplings numbers, and the three lists arrays; anything else raises
        ModelFormatError naming the field: 3.9 is no dimension and 2.0 no
        index, and a string is not split into entries.  The model's own
        invariants are then checked at construction.
        """
        try:
            dimension = _number(data["dimension"], "dimension", int)
            h0 = tuple(_number(x, "h0_diagonal entry", float)
                       for x in _array(data["h0_diagonal"], "h0_diagonal"))
            interaction = tuple(
                _coupling(entry) for entry in _array(data["interaction"], "interaction")
            )
            p_space = tuple(_number(n, "p_space entry", int)
                            for n in _array(data["p_space"], "p_space"))
        except KeyError as exc:
            raise ModelFormatError(f"malformed model data: {exc}") from exc
        return cls(dimension, h0, interaction, p_space)


def load_model(path: str | Path) -> MatrixModel:
    """Read a model JSON file; the model checks its own invariants.  A file
    nested too deeply for the JSON decoder raises ModelFormatError."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except RecursionError:  # a thousand '[' exhaust the JSON decoder
            raise ModelFormatError("model file nests too deeply") from None
    if not isinstance(data, dict):
        raise ModelFormatError("model file must contain a JSON object")
    return MatrixModel.from_dict(data)


def interaction_matrix(model: MatrixModel) -> np.ndarray:
    """Dense real symmetric coupling matrix V (the lambda-free part)."""
    v = np.zeros((model.dimension, model.dimension))
    for i, j, value in model.interaction:
        v[i - 1, j - 1] = value
        v[j - 1, i - 1] = value
    return v

