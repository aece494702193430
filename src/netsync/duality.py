"""Synchronization <-> consensus duality.

A diffusively coupled network with inner coupling ``H_paper`` (the
connection-matrix sign convention, ``H_paper = -H_eff``) evolves exactly
like a multi-agent system whose agents run the distributed feedback

    u_i = c * K * sum_j a_ij (x_i - x_j),

under the correspondence ``H_paper = -B K`` with coupling strength
``sigma = c``.  This module converts in both directions and provides the
rank gates that make the inverse direction well-posed: B must have full
column rank, (A, B) should be controllable, and the recovered gain must
be nonzero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidInput,
    PreconditionViolation,
    RankDeficient,
    ZeroGain,
)

__all__ = [
    "AgentModel",
    "h_from_gain",
    "pseudo_inverse",
    "gain_from_h",
    "recovery_residual",
    "controllability",
]

_RANK_TOL = 1e-10  # relative singular-value threshold for both rank gates


def _as_matrix(M, name: str) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim == 1:
        M = M.reshape(-1, 1)
    if M.ndim != 2:
        raise DimensionMismatch(f"{name} must be a matrix, got ndim={M.ndim}")
    return M


def _require_finite(what: str, *arrays: np.ndarray) -> None:
    if not all(np.isfinite(a).all() for a in arrays):
        raise InvalidInput(f"{what} must be finite")


def _as_gain(K) -> np.ndarray:
    """A gain matrix; a flat K is one row."""
    K = np.asarray(K, dtype=float)
    return K.reshape(1, -1) if K.ndim == 1 else K


@dataclass(frozen=True)
class AgentModel:
    """Agent dynamics dx_i/dt = A x_i + B u_i with feedback gain K and
    coupling strength c."""

    A: np.ndarray
    B: np.ndarray
    K: np.ndarray | None = None
    c: float = 1.0

    def __post_init__(self):
        A = _as_matrix(self.A, "A")
        B = _as_matrix(self.B, "B")
        if A.shape[0] != A.shape[1]:
            raise DimensionMismatch(f"A must be square, got {A.shape}")
        if B.shape[0] != A.shape[0]:
            raise DimensionMismatch("B must have as many rows as A")
        if B.shape[1] > B.shape[0]:
            raise DimensionMismatch("B must have at most n columns")
        if not 0.0 < self.c < np.inf:
            raise PreconditionViolation(
                "coupling strength c must be positive and finite")
        _require_finite("A and B", A, B)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        if self.K is not None:
            K = _as_gain(self.K)
            if K.shape != (B.shape[1], A.shape[0]):
                raise DimensionMismatch(
                    f"K must be {B.shape[1]} x {A.shape[0]}, got {K.shape}"
                )
            _require_finite("K", K)
            object.__setattr__(self, "K", K)

    @property
    def n(self) -> int:
        return self.A.shape[0]


def h_from_gain(B, K) -> np.ndarray:
    """Inner coupling matrix (connection-matrix convention) from a gain.

    Returns ``H_paper = -B @ K``; the Laplacian-form coupling is its
    negation, ``H_eff = B @ K``.
    """
    B = _as_matrix(B, "B")
    K = _as_gain(K)
    if K.shape[0] != B.shape[1]:
        raise DimensionMismatch(
            f"K has {K.shape[0]} rows but B has {B.shape[1]} columns"
        )
    return -B @ K


def pseudo_inverse(B) -> np.ndarray:
    """Moore-Penrose pseudoinverse (B^T B)^-1 B^T of a full-column-rank B.

    Raises :class:`RankDeficient` when the numerical rank of B (singular
    values above 1e-10 relative) is below its column count.
    """
    B = _as_matrix(B, "B")
    svals = np.linalg.svd(B, compute_uv=False)
    if svals.size == 0 or np.count_nonzero(svals > _RANK_TOL * svals[0]) < B.shape[1]:
        raise RankDeficient(
            f"B has numerical rank below its column count {B.shape[1]}"
        )
    return np.linalg.solve(B.T @ B, B.T)


def gain_from_h(B, H_paper) -> np.ndarray:
    """Recover a feedback gain from an inner coupling matrix: K = -B^+ H.

    Exact whenever H_paper = -B K0 for some K0 (then K = K0); otherwise
    this is the least-squares gain and :func:`recovery_residual` reports
    how much of H_paper it fails to reproduce.

    Raises
    ------
    RankDeficient
        If B lacks full column rank.
    ZeroGain
        If B^+ H_paper vanishes: the coupling carries no component in
        the input range, so no feedback can reproduce it.
    """
    B = _as_matrix(B, "B")
    H = _as_matrix(H_paper, "H_paper")
    if H.shape != (B.shape[0], B.shape[0]):
        raise DimensionMismatch(
            f"H_paper must be {B.shape[0]} x {B.shape[0]}, got {H.shape}"
        )
    B_plus = pseudo_inverse(B)
    projected = B_plus @ H
    scale = max(1.0, np.abs(B_plus).max() * np.abs(H).max(initial=0.0))
    if np.abs(projected).max(initial=0.0) <= 1e-12 * scale:
        raise ZeroGain("B^+ H_paper = 0: coupling is orthogonal to the input range")
    return -projected


def recovery_residual(B, H_paper, K) -> float:
    """Max-norm residual ||H_paper + B K||_inf of a recovered gain."""
    B = _as_matrix(B, "B")
    H = _as_matrix(H_paper, "H_paper")
    K = _as_gain(K)
    return float(np.abs(H + B @ K).max(initial=0.0))


def controllability(A, B) -> int:
    """Numerical rank of the controllability matrix [B, AB, ..., A^(n-1)B].

    Singular values above ``1e-10 * sigma_max`` count toward the rank;
    the pair (A, B) is controllable iff the result equals n.
    """
    A = _as_matrix(A, "A")
    B = _as_matrix(B, "B")
    if A.shape[0] != A.shape[1]:
        raise DimensionMismatch(f"A must be square, got {A.shape}")
    if B.shape[0] != A.shape[0]:
        raise DimensionMismatch("B must have as many rows as A")
    n = A.shape[0]
    blocks = [B]
    for _ in range(n - 1):
        blocks.append(A @ blocks[-1])
    ctrb = np.hstack(blocks)
    svals = np.linalg.svd(ctrb, compute_uv=False)
    if svals.size == 0 or svals[0] == 0.0:
        return 0
    return int(np.count_nonzero(svals > _RANK_TOL * svals[0]))
