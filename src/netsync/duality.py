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
    RankDeficient,
    ZeroGain,
    _require_finite,
    _require_positive,
    _square_matrices,
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
        A, = _square_matrices("A", self.A)
        B = _as_matrix(self.B, "B")
        if B.shape[0] != A.shape[0]:
            raise DimensionMismatch("B must have as many rows as A")
        if B.shape[1] > B.shape[0]:
            raise DimensionMismatch("B must have at most n columns")
        _require_positive("coupling strength c", self.c)
        _require_finite("B", B)
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
    negation, ``H_eff = B @ K``.  Raises :class:`InvalidInput` when the
    product is not finite.
    """
    B = _as_matrix(B, "B")
    K = _as_gain(K)
    if K.shape[0] != B.shape[1]:
        raise DimensionMismatch(
            f"K has {K.shape[0]} rows but B has {B.shape[1]} columns"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        H = -B @ K
    _require_finite("B @ K", H)
    return H


def pseudo_inverse(B) -> np.ndarray:
    """Moore-Penrose pseudoinverse (B^T B)^-1 B^T of a full-column-rank B.

    Raises :class:`RankDeficient` when the numerical rank of B (singular
    values above 1e-10 relative) is below its column count or B^T B is
    singular in floating point, and :class:`InvalidInput` when B or B^T B
    is not finite.
    """
    B = _as_matrix(B, "B")
    _require_finite("B", B)
    svals = np.linalg.svd(B, compute_uv=False)
    if svals.size == 0 or np.count_nonzero(svals > _RANK_TOL * svals[0]) < B.shape[1]:
        raise RankDeficient(
            f"B has numerical rank below its column count {B.shape[1]}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        gram = B.T @ B
    _require_finite("B^T B", gram)
    try:
        B_plus = np.linalg.solve(gram, B.T)
        singular = not np.isfinite(B_plus).all()
    except np.linalg.LinAlgError:
        singular = True
    if singular:
        raise RankDeficient("B^T B is singular in floating point")
    return B_plus


def gain_from_h(B, H_paper) -> np.ndarray:
    """Recover a feedback gain from an inner coupling matrix: K = -B^+ H.

    Exact whenever H_paper = -B K0 for some K0 (then K = K0); otherwise
    this is the least-squares gain and :func:`recovery_residual` reports
    how much of H_paper it fails to reproduce.

    Raises
    ------
    RankDeficient
        If B lacks full column rank.
    InvalidInput
        If B, H_paper or B^+ H_paper is not finite.
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
    with np.errstate(over="ignore", invalid="ignore"):
        projected = B_plus @ H
        # scaled first, the bound overflows only above every finite value
        tol = max(1e-12, 1e-12 * np.abs(B_plus).max() * np.abs(H).max(initial=0.0))
    _require_finite("B^+ H_paper", projected)
    if np.abs(projected).max(initial=0.0) <= tol:
        raise ZeroGain("B^+ H_paper = 0: coupling is orthogonal to the input range")
    return -projected


def recovery_residual(B, H_paper, K) -> float:
    """Max-norm residual ||H_paper + B K||_inf of a recovered gain.
    Raises :class:`InvalidInput` when it is not finite."""
    B = _as_matrix(B, "B")
    H = _as_matrix(H_paper, "H_paper")
    K = _as_gain(K)
    if H.shape != (B.shape[0],) * 2 or K.shape != B.shape[::-1]:
        raise DimensionMismatch(
            f"H_paper {H.shape} and K {K.shape} do not fit B {B.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        residual = np.abs(H + B @ K).max(initial=0.0)
    _require_finite("H_paper + B K", residual)
    return float(residual)


def controllability(A, B) -> int:
    """Numerical rank of the controllability matrix [B, AB, ..., A^(n-1)B].

    Singular values above ``1e-10 * sigma_max`` count toward the rank;
    the pair (A, B) is controllable iff the result equals n.  Raises
    :class:`InvalidInput` when A, B or that matrix is not finite.
    """
    A, = _square_matrices("A", A)
    B = _as_matrix(B, "B")
    if B.shape[0] != A.shape[0]:
        raise DimensionMismatch("B must have as many rows as A")
    n = A.shape[0]
    blocks = [B]
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(n - 1):
            blocks.append(A @ blocks[-1])
    ctrb = np.hstack(blocks)
    _require_finite("the controllability matrix", ctrb)
    svals = np.linalg.svd(ctrb, compute_uv=False)
    if svals.size == 0 or svals[0] == 0.0:
        return 0
    return int(np.count_nonzero(svals > _RANK_TOL * svals[0]))
