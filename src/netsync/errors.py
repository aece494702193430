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


def _numeric_array(what: str, a, dtype=float) -> np.ndarray:
    """a as a numeric array; dtype None keeps its type.  A ragged or
    non-numeric input is InvalidInput, and so is a complex one for a
    real dtype, which would drop its imaginary part."""
    try:
        if dtype is not None and np.iscomplexobj(a):
            raise TypeError("a complex matrix where a real one is needed")
        m = np.asarray(a, dtype=dtype)
        if m.dtype.kind not in "biufc":
            raise TypeError(f"non-numeric dtype {m.dtype}")
    except (ValueError, TypeError) as exc:
        raise InvalidInput(f"{what}: {exc}") from exc
    return m


def _square_matrices(what: str, *arrays, dtype=float) -> list:
    """Finite square matrices of one shape, each read by _numeric_array."""
    ms = [np.atleast_2d(_numeric_array(what, a, dtype)) for a in arrays]
    if any(m.shape != ms[0].shape[:1] * 2 for m in ms):
        raise DimensionMismatch(f"{what}: need square matrices of one "
                                f"shape, got {[m.shape for m in ms]}")
    _require_finite(what, *ms)
    return ms


def _json_matrix(what: str, payload) -> np.ndarray:
    """A parsed JSON array, or array of arrays, of numbers as a float
    array.  Any entry that is not a JSON int or float is InvalidInput, a
    string or a boolean too, which ``np.array(..., dtype=float)`` would
    coerce; so is a ragged array or an int beyond the float range."""
    for row in payload if isinstance(payload, list) else [payload]:
        for entry in row if isinstance(row, list) else [row]:
            if type(entry) not in (int, float):
                raise InvalidInput(f"{what}: {entry!r} is not a number")
    try:
        return np.array(payload, dtype=float)
    except (ValueError, OverflowError) as exc:
        raise InvalidInput(f"{what} is not a numeric matrix: {exc}") from exc
