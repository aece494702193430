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
"""

from __future__ import annotations

import cmath
import enum
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, PreconditionViolation, _require_finite

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


def discs(Z) -> DiscSet:
    """Geršgorin discs of a complex square matrix.

    Raises PreconditionViolation unless Z is one square matrix, and
    InvalidInput unless its entries are numbers and finite.
    """
    try:
        Z = np.atleast_2d(np.asarray(Z, dtype=complex))
    except (TypeError, ValueError) as exc:  # ragged or not numeric
        raise InvalidInput(f"Z is not a numeric matrix: {exc}") from exc
    if Z.ndim != 2 or Z.shape[0] != Z.shape[1]:
        raise PreconditionViolation(f"matrix must be square, got {Z.shape}")
    _require_finite("Z", Z)
    centers = np.diag(Z).copy()
    return DiscSet(centers=centers,
                   radii=np.abs(Z).sum(axis=1) - np.abs(centers))


def half_plane(d: DiscSet) -> HalfPlane:
    """Classify where the discs sit: strictly left, strictly right, or mixed."""
    if np.all(d.centers.real + d.radii < 0.0):
        return HalfPlane.LEFT
    if np.all(d.centers.real - d.radii > 0.0):
        return HalfPlane.RIGHT
    return HalfPlane.MIXED


def rotation_admissible(Z, rho: complex) -> bool:
    """Certify that every eigenvalue of ``rho * Z`` has negative real part.

    Requires a finite rho in the open right half-plane and all discs of Z
    strictly in the left half-plane (:class:`PreconditionViolation`
    otherwise).
    With theta = arg(rho) and, per row, center modulus r_ii, center
    argument magnitude |phi_ii| in (pi/2, pi], and radius R_i, the
    certificate is

        r_ii * sin|theta| >= R_i   and   |phi_ii| - 2|theta| > pi/2

    for every i: the rotation by theta moves each disc center by the
    rotation angle while the radius is unchanged, and the two conditions
    keep the rotated disc inside the open left half-plane in the worst
    case.  A False return is inconclusive, not a disproof.
    """
    rho = complex(rho)
    if not (rho.real > 0.0 and cmath.isfinite(rho)):
        raise PreconditionViolation(
            "rho must be finite and lie in the open right half-plane")
    d = discs(Z)
    if half_plane(d) is not HalfPlane.LEFT:
        raise PreconditionViolation("all discs of Z must lie strictly left")
    theta = abs(np.arctan2(rho.imag, rho.real))
    phi = np.abs(d.center_arguments)
    radial_ok = d.center_moduli * np.sin(theta) >= d.radii
    angular_ok = phi - 2.0 * theta > np.pi / 2.0
    return bool(np.all(radial_ok) and np.all(angular_ok))


def real_projection(Z) -> np.ndarray:
    """Entrywise real part of Z.

    When all discs of Z sit strictly in one half-plane, the projection's
    eigenvalues stay in that same open half-plane: the projected disc
    radii never exceed the originals while center real parts are kept.
    """
    return np.asarray(Z).real.copy()
