"""Exception types shared across the library.

Every error raised by netsync derives from :class:`NetsyncError`, so callers
can catch the package's failures with a single except clause while still
distinguishing the specific condition by type.  The checks at the end
decide the type: a non-finite entry is InvalidInput, a shape that does not
fit DimensionMismatch, a scalar outside its domain PreconditionViolation.
"""

import numpy as np

__all__ = [
    "NetsyncError",
    "InvalidInput",
    "EigensolverFailure",
    "PreconditionViolation",
    "DefectiveMatrix",
    "ArgumentMarginViolation",
    "RealizationResidue",
    "DimensionMismatch",
    "RankDeficient",
    "ZeroGain",
]


class NetsyncError(Exception):
    """Base class for all netsync errors."""


class InvalidInput(NetsyncError):
    """Malformed or invariant-violating user input (files, matrices)."""


class EigensolverFailure(NetsyncError):
    """The dense eigensolver failed to converge on a numerically
    pathological input."""


class PreconditionViolation(NetsyncError):
    """An operation was called outside its documented domain."""


class DefectiveMatrix(NetsyncError):
    """A matrix could not be reduced to a well-conditioned modal form."""


class ArgumentMarginViolation(PreconditionViolation):
    """A requested modal-entry argument does not clear the required
    phase margin over the topology's worst eigenvalue argument."""


class RealizationResidue(NetsyncError):
    """The imaginary residue of a realized coupling matrix exceeded
    tolerance; the modal entries are not conjugate-closed."""


class DimensionMismatch(NetsyncError):
    """Operand shapes are incompatible."""


class RankDeficient(NetsyncError):
    """A matrix required to have full column rank does not."""


class ZeroGain(NetsyncError):
    """Gain recovery produced an identically zero gain: the coupling
    matrix has no component in the range of the input matrix."""


def _require_finite(what: str, *arrays) -> None:
    for a in arrays:
        if not np.isfinite(a).all():
            raise InvalidInput(f"{what} must be finite")


def _require_positive(name: str, value) -> None:
    if not 0.0 < value < np.inf:  # NaN fails too
        raise PreconditionViolation(f"{name} must be positive and finite")


def _square_matrices(what: str, *arrays, dtype=float) -> list:
    """Finite square matrices of one shape; dtype None keeps each type."""
    ms = [np.atleast_2d(np.asarray(a, dtype=dtype)) for a in arrays]
    if any(m.shape != ms[0].shape[:1] * 2 for m in ms):
        raise DimensionMismatch(f"{what}: need square matrices of one "
                                f"shape, got {[m.shape for m in ms]}")
    _require_finite(what, *ms)
    return ms
