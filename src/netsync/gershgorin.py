"""Geršgorin disc geometry for complex matrices.

Two facts about disc placement drive the coupling designs in this
package:

* multiplying a matrix whose discs all sit in the open left half-plane
  by a right-half-plane scalar rho rotates the disc centers by at most
  arg(rho) while leaving radii unchanged (up to the common scale |rho|),
  so a sufficient phase/radius margin certifies that every eigenvalue of
  ``rho * Z`` stays in the open left half-plane;

* taking entrywise real parts can only shrink disc radii, so it never
  moves eigenvalues across the imaginary axis when all discs already sit
  strictly inside one half-plane.

Both are exposed as cheap predicates/transforms on immutable values.
A matrix's disc rows (each center with its modulus and argument, and
the radius) come from one scalar pass over ``Z.tolist()`` in Python
floats: on the small mode matrices a design certifies, numpy's per-call
overhead would cost several times the arithmetic.  Each radius is a
``math.fsum``, rounded once the same way on every Python version, and a
radius beyond the float range is infinite, with no floating-point
warning.  ``rotation_admissible`` keeps the rows of the last matrix it
certified, keyed by its content, so certifying one design against each
of its N - 1 transverse modes builds them once.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, PreconditionViolation, _numeric_array

__all__ = [
    "DiscSet",
    "HalfPlane",
    "discs",
    "half_plane",
    "rotation_admissible",
    "real_projection",
]


class HalfPlane(enum.Enum):
    LEFT = "left"
    RIGHT = "right"
    MIXED = "mixed"


@dataclass(frozen=True)
class DiscSet:
    """Geršgorin discs of a square matrix.

    centers[i] is the diagonal entry z_ii; radii[i] is the i-th row sum
    of off-diagonal moduli.  center_arguments holds the principal
    argument of each center and center_moduli its modulus.
    """

    centers: np.ndarray
    radii: np.ndarray

    @property
    def center_arguments(self) -> np.ndarray:
        return np.arctan2(self.centers.imag, self.centers.real)

    @property
    def center_moduli(self) -> np.ndarray:
        return np.abs(self.centers)


def _square_complex(Z) -> np.ndarray:
    """Z as one square complex128 matrix: InvalidInput unless numeric,
    then PreconditionViolation unless square."""
    try:
        Z = np.asarray(Z, dtype=complex)
    except (TypeError, ValueError) as exc:  # ragged or not numeric
        raise InvalidInput(f"Z is not a numeric matrix: {exc}") from exc
    if Z.ndim < 2:
        Z = Z.reshape(1, -1)
    if Z.ndim != 2 or Z.shape[0] != Z.shape[1]:
        raise PreconditionViolation(f"matrix must be square, got {Z.shape}")
    return Z


def _disc_rows(Z: np.ndarray) -> list:
    """(center, modulus, argument, radius) of each row of a square
    complex matrix, in Python numbers; InvalidInput unless Z is finite.
    A non-finite entry makes its row's modulus or radius non-finite, so
    only such a row needs the entrywise check."""
    rows = []
    for i, row in enumerate(Z.tolist()):
        try:
            moduli = list(map(abs, row))
        except OverflowError:  # finite parts, modulus beyond the float range
            moduli = [math.hypot(z.real, z.imag) for z in row]
        center, modulus = row[i], moduli[i]
        moduli[i] = 0.0
        try:
            radius = math.fsum(moduli)
        except OverflowError:
            radius = math.inf
        if not (math.isfinite(modulus) and math.isfinite(radius)
                or all(map(cmath.isfinite, row))):
            raise InvalidInput("Z must be finite")
        rows.append((center, modulus,
                     math.atan2(center.imag, center.real), radius))
    return rows


def discs(Z) -> DiscSet:
    """Geršgorin discs of a complex square matrix.

    Raises PreconditionViolation unless Z is one square matrix, and
    InvalidInput unless its entries are numbers and finite.
    """
    rows = _disc_rows(_square_complex(Z))
    return DiscSet(centers=np.array([r[0] for r in rows], dtype=complex),
                   radii=np.array([r[3] for r in rows], dtype=float))


def half_plane(d: DiscSet) -> HalfPlane:
    """Classify where the discs sit: strictly left, strictly right, or mixed."""
    if np.all(d.centers.real + d.radii < 0.0):
        return HalfPlane.LEFT
    if np.all(d.centers.real - d.radii > 0.0):
        return HalfPlane.RIGHT
    return HalfPlane.MIXED


# (shape, bytes) of the last Z that rotation_admissible certified, with
# its disc rows: a design certifies one Z against every transverse mode.
# One tuple, read and replaced whole, so threads never pair a key with
# another matrix's rows.
_last = (None, [])


def rotation_admissible(Z, rho: complex) -> bool:
    """Certify that every eigenvalue of ``rho * Z`` has negative real part.

    Requires a number rho (:class:`InvalidInput` otherwise), finite and
    in the open right half-plane, and all discs of Z strictly in the
    left half-plane (:class:`PreconditionViolation` otherwise).
    With theta = arg(rho) and, per row, center modulus r_ii, center
    argument magnitude |phi_ii| in (pi/2, pi], and radius R_i, the
    certificate is

        r_ii * sin|theta| >= R_i   and   |phi_ii| - 2|theta| > pi/2

    for every i: the rotation by theta moves each disc center by the
    rotation angle while the radius is unchanged, and the two conditions
    keep the rotated disc inside the open left half-plane in the worst
    case.  A False return is inconclusive, not a disproof.

    The disc rows come from one scalar pass over Z, and the rows of the
    last certified Z are kept, keyed by the shape and bytes of its
    complex128 copy: a repeat call with equal entries, as when a design
    is certified once per mode, only checks rho and compares n pairs of
    floats.  The key is the content, so a Z changed in place is seen.
    """
    global _last
    try:
        rho = complex(rho)
    except (TypeError, ValueError) as exc:
        raise InvalidInput(f"rho is not a number: {exc}") from exc
    if not (rho.real > 0.0 and cmath.isfinite(rho)):
        raise PreconditionViolation(
            "rho must be finite and lie in the open right half-plane")
    Z = _square_complex(Z)
    key = (Z.shape, Z.tobytes())
    last_key, rows = _last
    if last_key != key:
        rows = _disc_rows(Z)
        if not all(c.real + radius < 0.0 for c, _, _, radius in rows):
            raise PreconditionViolation("all discs of Z must lie strictly left")
        _last = (key, rows)
    theta = abs(math.atan2(rho.imag, rho.real))
    sin_theta = math.sin(theta)
    return all(modulus * sin_theta >= radius
               and abs(phi) - 2.0 * theta > math.pi / 2.0
               for _, modulus, phi, radius in rows)


def real_projection(Z) -> np.ndarray:
    """Entrywise real part of Z.

    When all discs of Z sit strictly in one half-plane, the projection's
    eigenvalues stay in that same open half-plane: the projected disc
    radii never exceed the originals while center real parts are kept.
    Raises InvalidInput unless Z is numeric.
    """
    return _numeric_array("Z", Z, dtype=None).real.copy()
