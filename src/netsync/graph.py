"""Weighted network topologies, their Laplacians, and Laplacian spectra.

A topology is a weighted digraph on N >= 2 nodes with nonnegative edge
weights and no self-loops; ``weights[i, j]`` is the weight of the edge
from node j into node i.  Its Laplacian is L = D - A with the in-degree
matrix D on the diagonal, so every row of L sums to zero and the all-ones
vector is always a right eigenvector with eigenvalue zero.

All types here are immutable values; the operations are pure functions
and safe to call from concurrent readers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import (EigensolverFailure, InvalidInput, _json_matrix,
                     _numeric_array)

__all__ = [
    "Topology",
    "Laplacian",
    "LaplacianSpectrum",
    "build_laplacian",
    "spectrum",
    "is_connected",
    "load_topology",
]


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Topology:
    """A weighted digraph.  ``weights[i, j]`` weights the edge j -> i."""

    n_nodes: int
    directed: bool
    weights: np.ndarray

    def __post_init__(self):
        w = _numeric_array("weights", self.weights)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise InvalidInput(f"weights must be square, got shape {w.shape}")
        if self.n_nodes != w.shape[0]:
            raise InvalidInput(
                f"n_nodes={self.n_nodes} disagrees with weights shape {w.shape}"
            )
        if self.n_nodes < 2:
            raise InvalidInput("a topology needs at least 2 nodes")
        if not np.isfinite(w).all():
            raise InvalidInput("weights must be finite")
        if np.any(np.diag(w) != 0.0):
            raise InvalidInput("self-loop weights must be zero")
        if np.any(w < 0.0):
            raise InvalidInput("edge weights must be nonnegative")
        if not self.directed and not np.array_equal(w, w.T):
            raise InvalidInput("undirected topology requires symmetric weights")
        object.__setattr__(self, "weights", _freeze(w))


@dataclass(frozen=True)
class Laplacian:
    """An N x N Laplacian, N >= 2: zero row sums, nonpositive off-diagonal."""

    matrix: np.ndarray

    def __post_init__(self):
        m = _numeric_array("Laplacian", self.matrix)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InvalidInput(f"Laplacian must be square, got shape {m.shape}")
        n = m.shape[0]
        if n < 2:
            raise InvalidInput("a Laplacian needs at least 2 nodes")
        magnitude = np.abs(m)
        # ||L||_inf bounds every eigenvalue; an overflowing degree makes it
        # infinite, and the spectrum would hold inf or fail to converge
        with np.errstate(over="ignore"):
            norm = magnitude.sum(axis=1).max(initial=0.0)
        if not np.isfinite(norm):
            raise InvalidInput("Laplacian row norms must be finite: a node "
                               "degree is non-finite or too large")
        scale = max(1.0, magnitude.max())
        row_sums = m.sum(axis=1)
        if np.abs(row_sums).max() > 1e-12 * n * scale:
            raise InvalidInput("Laplacian rows must sum to zero")
        off = m - np.diag(np.diag(m))
        if off.max(initial=0.0) > 1e-12 * scale:
            raise InvalidInput("Laplacian off-diagonal entries must be <= 0")
        if np.diag(m).min(initial=0.0) < -1e-12 * scale:
            raise InvalidInput("Laplacian diagonal entries must be >= 0")
        object.__setattr__(self, "matrix", _freeze(m))

    @property
    def n_nodes(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class LaplacianSpectrum:
    """Sorted eigenvalues of a Laplacian.

    Eigenvalues are sorted by ascending real part, ties broken by
    ascending imaginary part, so the zero eigenvalue of a connected
    topology is always first and mode indices are reproducible.

    Attributes
    ----------
    eigenvalues : (N,) complex
        Sorted spectrum.
    lambda2 : complex
        Second eigenvalue in the sort: the algebraic connectivity for
        an undirected topology, and the smallest-real-part transverse
        mode in general.
    theta_max : float
        Largest absolute argument (radians) over eigenvalues of modulus
        above ``zero_tolerance``.
    zero_tolerance : float
        Modulus threshold under which an eigenvalue is treated as zero.
    """

    eigenvalues: np.ndarray
    lambda2: complex
    theta_max: float
    zero_tolerance: float


def build_laplacian(topology: Topology) -> Laplacian:
    """Build L = D - A from a topology.

    The in-degree d_ii is the i-th row sum of the weight matrix, so the
    rows of the result sum to zero exactly (up to float addition).
    """
    a = topology.weights
    with np.errstate(over="ignore"):     # Laplacian rejects an inf degree
        degrees = a.sum(axis=1)
    return Laplacian(matrix=np.diag(degrees) - a)


def spectrum(lap: Laplacian) -> LaplacianSpectrum:
    """The eigenvalues of a Laplacian in a deterministic mode order.

    A symmetric L (an undirected topology) is solved by the symmetric
    eigensolver, whose spectrum is real by construction: every imaginary
    part is exactly 0 and so is theta_max, whatever the rounding.  Any
    other L takes the general eigensolver.  The eigenvalues are complex
    either way.

    The zero tolerance, the modulus below which an eigenvalue counts as
    zero, is ``1e-9 * ||L||_inf`` with a floor of 1e-12 for the zero
    matrix.

    Raises
    ------
    EigensolverFailure
        If the dense eigensolver does not converge.
    """
    m = lap.matrix
    solver = np.linalg.eigvalsh if np.array_equal(m, m.T) else np.linalg.eigvals
    try:
        vals = solver(m)
    except np.linalg.LinAlgError as exc:
        raise EigensolverFailure(f"eigendecomposition failed: {exc}") from exc

    vals = vals.astype(complex, copy=False)
    vals = vals[np.lexsort((vals.imag, vals.real))]

    scale = np.abs(m).sum(axis=1).max()
    zero_tolerance = max(1e-9 * scale, 1e-12)

    nonzero = vals[np.abs(vals) > zero_tolerance]
    if nonzero.size:
        theta_max = float(np.abs(np.arctan2(nonzero.imag, nonzero.real)).max())
    else:
        theta_max = 0.0

    return LaplacianSpectrum(
        eigenvalues=_freeze(vals),
        lambda2=complex(vals[1]),
        theta_max=theta_max,
        zero_tolerance=float(zero_tolerance),
    )


def is_connected(spec: LaplacianSpectrum) -> bool:
    """True iff exactly one eigenvalue is zero (modulus <= tol) and all
    others have real part > tol, with tol the spectrum's zero_tolerance."""
    tol = spec.zero_tolerance
    vals = spec.eigenvalues
    n_zero = int(np.count_nonzero(np.abs(vals) <= tol))
    others = vals[np.abs(vals) > tol]
    return n_zero == 1 and bool((others.real > tol).all())


def load_topology(path) -> Topology:
    """Read a topology from a JSON file.

    Expected format::

        {"directed": bool, "weights": [[...], ...]}

    with a row-major N x N array.  Raises :class:`InvalidInput` on
    malformed files or invariant violations.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InvalidInput(f"cannot read topology file {path}: {exc}") from exc
    if not isinstance(payload, dict) or "weights" not in payload:
        raise InvalidInput("topology JSON must be an object with a 'weights' key")
    directed = payload.get("directed", False)
    if not isinstance(directed, bool):
        raise InvalidInput("'directed' must be a JSON boolean")
    w = _json_matrix("'weights'", payload["weights"])
    if w.ndim != 2:
        raise InvalidInput("'weights' must be a 2-D array")
    return Topology(n_nodes=w.shape[0], directed=directed, weights=w)

