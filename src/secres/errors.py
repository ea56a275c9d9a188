"""Exception types shared across the package and the wording of a failed solve.

One rule sorts every fault: an input at fault raises a ValueError (a
ValidationError, or a plain ValueError for a bad argument), and a failure
of the arithmetic raises one of the other SecresError subclasses."""

from math import isnan


class SecresError(Exception):
    """Base class for the exception types defined here."""


class ValidationError(SecresError, ValueError):
    """The input is at fault: a matrix model violates a structural
    invariant, or no exceptional point can exist for it.

    Subclasses name the fault; the message carries the offending indices
    or values.
    """


class DegenerateUnperturbed(ValidationError):
    """Two diagonal unperturbed energies are exactly equal."""


class DiagonalInteraction(ValidationError):
    """An interaction entry sits on the diagonal (i == j)."""


class IndexOutOfRange(ValidationError):
    """A basis index lies outside 1..dimension."""


class DuplicateEntry(ValidationError):
    """An interaction pair or model-space index appears more than once."""


class EmptyPSpace(ValidationError):
    """The model-space index list is empty."""


class ModelFormatError(ValidationError):
    """A model file or dict is structurally malformed."""


class DegreeTooSmall(ValidationError):
    """No exceptional point can exist: an energy polynomial of degree < 2
    has no two eigenvalues to meet, and a discriminant constant in lambda
    has no root."""


class InvariantViolation(SecresError):
    """An internal numerical invariant does not hold for a model.

    Raised for a non-finite coefficient or exact pencil, for a discriminant
    degree above its bound and for an exact nearest exceptional point whose
    eigenvalue gap fails its check: failures of the arithmetic, not of the
    input.
    """


class RootFindingFailure(SecresError):
    """The simultaneous root iteration failed to converge."""


def failed_solve(subject: str, where: str, max_residual: float) -> str:
    """The message for one failed solve, worded from its residual: NaN means
    the iteration reached a non-finite iterate, any other value that its
    budget ran out.  where follows the verb, e.g. " at lambda=0.5"."""
    reason = (f"reached a non-finite value{where}" if isnan(max_residual) else
              f"did not converge{where} (max residual {max_residual:.3e})")
    return f"{subject} {reason}"
