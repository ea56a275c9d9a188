"""Secular-polynomial resummation of matrix perturbation series.

Pipeline: eigenvalue perturbation series for the model-space states of a
finite Hamiltonian -> truncated secular polynomial of the implicit
effective Hamiltonian -> discriminant in the coupling -> exceptional points
(eigenvalue-coalescence couplings) whose nearest member sets the series'
radius of convergence.
"""

from .charpoly import (characteristic_polynomial, eigenvalue_gap, exact_eigenvalues_at,
                       exact_exceptional_points)
from .discriminant import discriminant, exceptional_points, nearest_exceptional_point
from .errors import (
    DegenerateUnperturbed,
    DegreeTooSmall,
    DiagonalInteraction,
    DuplicateEntry,
    EmptyPSpace,
    IndexOutOfRange,
    InvariantViolation,
    ModelFormatError,
    RootFindingFailure,
    SecresError,
    ValidationError,
)
from .model import MatrixModel, interaction_matrix, load_model
from .roots import RootSet, all_roots
from .rspt import p_space_series, perturbation_series
from .secular import eigenvalues_at, reconstruct
from .series import MonicPolynomial, Polynomial

__version__ = "0.1.0"

__all__ = [
    "DegenerateUnperturbed",
    "DegreeTooSmall",
    "DiagonalInteraction",
    "DuplicateEntry",
    "EmptyPSpace",
    "IndexOutOfRange",
    "InvariantViolation",
    "MatrixModel",
    "ModelFormatError",
    "MonicPolynomial",
    "Polynomial",
    "RootFindingFailure",
    "RootSet",
    "SecresError",
    "ValidationError",
    "all_roots",
    "characteristic_polynomial",
    "discriminant",
    "eigenvalue_gap",
    "eigenvalues_at",
    "exact_eigenvalues_at",
    "exact_exceptional_points",
    "exceptional_points",
    "interaction_matrix",
    "load_model",
    "nearest_exceptional_point",
    "p_space_series",
    "perturbation_series",
    "reconstruct",
]
