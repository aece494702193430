"""Time-domain simulation and synchronization metrics.

Three simulators, all classical fixed-step 4th-order Runge-Kutta
(reproducibility beats adaptive stepping for regression runs):

* :func:`simulate_linear`, the Laplacian-coupled linear network
  ``dx/dt = (I (x) A) x + sigma (L (x) H_eff) x``;
* :func:`simulate_agents`, the multi-agent closed loop with distributed
  feedback ``u_i = c K sum_j a_ij (x_i - x_j)``, integrated from the
  pairwise-difference form so its step-for-step agreement with
  :func:`simulate_linear` under ``H_eff = B K, sigma = c`` is a genuine
  cross-check rather than a tautology;
* :func:`simulate_nonlinear`, node dynamics F with diffusive
  state-dependent coupling ``sum_j G_ij M(x_j) x_j`` over a zero-row-sum
  connection matrix G, M a callable or, when constant, the matrix itself
  (the chaotic three-oscillator probe lives here).

The nonlinear simulator steps RK4 one state at a time, in Python floats
for every three-oscillator Rossler probe, whatever its coupling: one
closure computes the coupling and the field of each stage.  The two
linear simulators share one stepper over two map builders: RK4 steps of
the simulator's own right-hand side from probe states give B one-step
maps, whose powers advance the run a block of steps per matrix product.
A symmetric Laplacian ``L = U diag(lambda) U^T`` splits the network into
the node mean and N - 1 independent n x n modes, one per eigenvector
orthogonal to 1 (the master-stability split), so B = N maps of size n;
any other Laplacian gives B = 1 dense map of the whole state in
node-mean / disagreement coordinates.  Either way the disagreement
evolves on its own, so the cross-node spread the metrics read stays at
its own scale when the common mode grows without bound.

A non-finite state truncates the trajectory at the last finite step and
flags it; a divergent run still produces a synchronization report.  The
writers of trajectories and reports live in :mod:`netsync.artifacts`.
"""

from __future__ import annotations

import functools
import math
import struct
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .coupling import stiffest_mode_modulus
from .duality import AgentModel
from .errors import (
    DimensionMismatch,
    InvalidInput,
    PreconditionViolation,
    _require_finite,
    _require_positive,
    _square_matrices,
)
from .graph import Laplacian, spectrum

__all__ = [
    "LinearNetworkSystem",
    "Trajectory",
    "SyncReport",
    "NonlinearCouplingSpec",
    "NonlinearNetworkSystem",
    "simulate_linear",
    "simulate_agents",
    "rossler_vector_field",
    "rossler_jacobian_parts",
    "build_three_oscillator",
    "design_nonlinear_coupling",
    "simulate_nonlinear",
    "sync_error",
    "component_settle_times",
    "rms_amplitude",
]

# |stiffest eigenvalue| * dt beyond which explicit RK4 is warned about.
_STABILITY_LIMIT = 2.5
# Relative room below the limit that the stiffness guard's norm bound must
# leave before it skips the eigensolves: covers the rounding of the bound
# and the eigensolvers' backward error.
_STIFFNESS_BOUND_MARGIN = 1e-6
# Entries of the stacked map powers [Z, ..., Z^s] of the linear stepper:
# bounds their memory and the work of one block of steps.
_BLOCK_ELEMENTS = 1 << 16
# Entries that one Python-level iteration hands to numpy: the basis states
# stepped at once to build the dense map, the group of states the linear
# stepper advances before rebuilding and checking them, and the chunk of
# samples the CSV writer of :mod:`netsync.artifacts` formats at once.
# Enough to amortise the per-iteration calls, small enough to bound the
# buffers, RK4 temporaries and text.
_CHUNK_ELEMENTS = 1 << 12


@dataclass(frozen=True)
class LinearNetworkSystem:
    """Linear network: node dynamic A, coupling H_eff, strength sigma,
    and the topology Laplacian."""

    A: np.ndarray
    H_eff: np.ndarray
    sigma: float
    laplacian: Laplacian

    def __post_init__(self):
        A, H = _square_matrices("A and H_eff", self.A, self.H_eff)
        _require_positive("sigma", self.sigma)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "H_eff", H)

    @property
    def n_nodes(self) -> int:
        return self.laplacian.n_nodes

    @property
    def node_dim(self) -> int:
        return self.A.shape[0]


@dataclass(frozen=True)
class Trajectory:
    """Simulated node states on a uniform time grid.

    states[t, i, :] is node i at times[t].  ``diverged`` marks a run
    truncated at the last finite step.  ``spread[t, c]``, when set, is
    the cross-node spread ``max_i x_i[c] - min_i x_i[c]`` at times[t]
    computed from the disagreement coordinates; the metrics read it in
    place of the spread of the states.
    """

    times: np.ndarray
    states: np.ndarray
    diverged: bool = False
    spread: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.states.ndim != 3 or self.times.shape != self.states.shape[:1]:
            raise DimensionMismatch(
                "states must be (times, nodes, node_dim), one row per time")
        if self.states.shape[0] == 0:
            raise PreconditionViolation("trajectory is empty")
        if self.spread is not None and self.spread.shape != (
                self.states.shape[0], self.states.shape[2]):
            raise DimensionMismatch("spread must be (times, node_dim)")

    @property
    def n_nodes(self) -> int:
        return self.states.shape[1]

    @property
    def node_dim(self) -> int:
        return self.states.shape[2]


@dataclass(frozen=True)
class SyncReport:
    """Synchronization-error summary of a trajectory.

    error_series[t] = max_{i,j} ||x_i(t) - x_j(t)||_inf; sync_time is the
    first grid time after which the error stays below tol for the rest of
    the horizon (None when it never does), and converged mirrors that.
    """

    error_series: np.ndarray
    sync_time: Optional[float]
    converged: bool
    tol: float

    @property
    def final_error(self) -> float:
        return float(self.error_series[-1])


def _time_grid(t_end: float, dt: float) -> np.ndarray:
    """The grid 0, dt, ..., round(t_end / dt) * dt; InvalidInput unless
    0 < dt <= t_end < inf and the grid fits in one array."""
    if not 0.0 < dt <= t_end < np.inf:
        raise InvalidInput(
            f"need 0 < dt <= t_end < inf, got t_end={t_end}, dt={dt}")
    try:
        return dt * np.arange(int(round(t_end / dt)) + 1)
    except (OverflowError, ValueError, MemoryError) as exc:
        raise InvalidInput(
            f"t_end / dt = {t_end / dt:.3g} steps: {exc}") from exc


def _integrate_rk4(rhs: Callable[[np.ndarray], np.ndarray],
                   x0: np.ndarray, times: np.ndarray) -> tuple:
    """Classical RK4 over a uniform grid with divergence truncation:
    ``(times, states, diverged)``, the fields of a :class:`Trajectory`
    when x0 is one (N, n) state and not a batch of them.

    Overflow is not an error here: a non-finite state ends the run at
    the last finite step with the diverged flag set.
    """
    dt = float(times[1] - times[0])
    half, sixth = 0.5 * dt, dt / 6.0
    out = np.empty((times.shape[0],) + x0.shape)
    out[0] = x0
    X = x0
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(times.shape[0] - 1):
            k1 = rhs(X)
            k2 = rhs(X + half * k1)
            k3 = rhs(X + half * k2)
            k4 = rhs(X + dt * k3)
            X = np.add(X, sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4),
                       out=out[k + 1])
            # one reduction screens the step; a finite state whose sum
            # overflows still passes the exact check
            if not math.isfinite(X.sum()) and not np.isfinite(X).all():
                return times[:k + 1].copy(), out[:k + 1].copy(), True
    return times, out, False


def _integrate_linear(rhs: Callable[[np.ndarray], np.ndarray],
                      L: np.ndarray, x0: np.ndarray,
                      times: np.ndarray) -> Trajectory:
    """RK4 over a uniform grid for a linear network coupled through L.

    rhs must be linear, accept a leading batch axis, and vanish on the
    coupling of identical rows (``L 1 = 0``); the maps are RK4 steps of
    probe states through it, so each simulator is checked by its own
    right-hand side.  A symmetric L with finite ``2 ||L||_inf`` steps
    mode by mode, any other L densely.
    """
    if np.array_equal(L, L.T) and math.isfinite(2.0 * _inf_norm(L)):
        return _step_maps(*_mode_maps(rhs, L, x0, times), x0, times)
    return _step_maps(*_dense_maps(rhs, x0, times), x0, times)


def _block_length(T: int, size: int, elements: int) -> int:
    """Steps per block for T time samples, one-step maps of size x size
    and ``elements`` entries of stacked maps per step of the block.

    Doubling up to ``[Z, ..., Z^s]`` costs about ``(s - 1) size^3``
    flops per map, which then stays below the ``T size^2`` of stepping
    the run, so a short run is not charged for powers it cannot repay;
    the stack of powers stays within ``_BLOCK_ELEMENTS``.
    """
    return max(1, min(T - 1, _BLOCK_ELEMENTS // elements,
                      1 + (T - 1) // size))


def _fill_powers(powers: np.ndarray, s: int, m: int) -> None:
    """Fill ``powers[..., (j-1) m : j m] = Z^j`` for j up to s from
    ``Z = powers[..., :m]`` by doubling."""
    j = 1
    while j < s:
        r = min(j, s - j)
        powers[..., j * m:(j + r) * m] = (powers[..., (j - 1) * m:j * m]
                                          @ powers[..., :r * m])
        j += r


@np.errstate(over="ignore", invalid="ignore")
def _step_maps(Z: np.ndarray, start, rebuild, x0: np.ndarray,
               times: np.ndarray) -> Trajectory:
    """The run from x0 under B one-step maps ``Z[i]`` of size b, truncated
    at its last finite sample and then flagged diverged.

    ``start(y, mean, e)`` writes the (B, b) coordinates y of x0 from its
    node mean and ``e = x0 - 1 mean``; ``rebuild(y, e)`` writes the
    disagreement of the (B, c b) coordinates of c samples, nodes first,
    into the (N, c n) array e and returns their means as (c, 1, n).  Row
    i advances by Z[i] (``y_{k+1} = y_k Z``), a block of s steps per
    product with ``[Z, ..., Z^s]``, a group of blocks at a time; each
    group writes ``x = 1 xbar + e`` and the spread of e.
    """
    N, n = x0.shape
    B, b = Z.shape[:2]
    T = times.shape[0]
    s = _block_length(T, b, B * b * b)
    powers = np.empty((B, b, s * b))
    powers[..., :b] = Z
    _fill_powers(powers, s, b)
    states, spread = np.empty((T, N, n)), np.empty((T, n))
    mean = x0.mean(axis=0)
    if not np.isfinite(mean).all():
        # the node sum overflowed: the mean of x0 times 2^-k, 2^k >= N,
        # scaled back keeps every bit of a mean in range
        up = 2.0 ** (N - 1).bit_length()
        mean = (x0 / up).mean(axis=0) * up
    e = x0 - mean
    states[0] = x0
    spread[0] = e.max(axis=0) - e.min(axis=0)
    g = max(1, _CHUNK_ELEMENTS // (s * B * b))
    # coords[:, :b] is y; the blocks of a group fill the rest
    coords = np.empty((B, (g * s + 1) * b))
    start(coords[:, :b], mean, e)
    disagreement = np.empty((N, g * s * n))
    k = 0
    while k < T - 1:
        c = min(g * s, T - 1 - k)
        for j in range(0, c, s):
            np.matmul(coords[:, None, j * b:(j + 1) * b], powers,
                      out=coords[:, None, (j + 1) * b:(j + 1 + s) * b])
        xbar = rebuild(coords[:, b:(c + 1) * b], disagreement[:, :c * n])
        e = disagreement[:, :c * n].reshape(N, c, n)
        x = states[k + 1:k + 1 + c]
        np.add(xbar, e.transpose(1, 0, 2), out=x)
        # the node axis leads e, so max and min run over contiguous rows
        spread[k + 1:k + 1 + c] = e.max(axis=0) - e.min(axis=0)
        coords[:, :b] = coords[:, c * b:(c + 1) * b]
        if not np.isfinite(x).all():
            last = k + 1 + int(np.argmin(np.isfinite(x).all(axis=(1, 2))))
            return Trajectory(times[:last].copy(), states[:last].copy(),
                              True, spread[:last].copy())
        k += c
    return Trajectory(times, states, spread=spread)


@np.errstate(over="ignore", invalid="ignore")
def _mode_maps(rhs: Callable[[np.ndarray], np.ndarray], L: np.ndarray,
               x0: np.ndarray, times: np.ndarray) -> tuple:
    """:func:`_step_maps`'s N maps of size n for a symmetric L.

    With ``L = U diag(lambda) U^T``, the network splits into the node
    mean and N - 1 n x n systems, one per eigenvector orthogonal to 1 (a
    disconnected graph keeps its other zero modes).  U holds only those,
    so the rounding of a large node mean, which grows with the mean,
    never enters y.  Two sets of n probe states give every map: the mean
    of the step of ``1 e_i^T`` is row i of the mean's map Z_0, and row k
    of ``U^T`` times the step of ``(U 1) e_i^T``, whose every modal
    coordinate is ``e_i^T``, is row i of mode k's map Z_k.  The
    coordinates are xbar and ``y = U^T e 2^-k`` with ``4^k >= N``, as a
    modal coordinate can hold sqrt(N) times the largest disagreement,
    and x is rebuilt as ``1 xbar + U y 2^k``: powers of two scale
    exactly, so no coordinate overflows before the states do.
    """
    N, n = x0.shape
    # shifted by this multiple of 1 1^T / N, 1 / sqrt(N) has an eigenvalue
    # above all of L's (they lie within ||L||_inf of 0), so eigh puts it
    # last, separated, and the other columns are orthogonal to 1
    shift = 1.0 + 2.0 * _inf_norm(L)
    U = np.linalg.eigh(L + shift / N)[1][:, :-1]
    probes = np.zeros((2, n, N, n))
    diagonal = np.arange(n)
    probes[0, diagonal, :, diagonal] = 1.0
    probes[1, diagonal, :, diagonal] = U.sum(axis=1)
    _, step, diverged = _integrate_rk4(rhs, probes.reshape(2 * n, N, n),
                                       times[:2])
    step = (np.full((2, n, N, n), np.inf) if diverged
            else step[1].reshape(2, n, N, n))
    Z = np.empty((N, n, n))     # the mean's map, then mode k's at 1 + k
    Z[0] = step[0].mean(axis=1)
    Z[1:] = (U.T @ step[1]).transpose(1, 0, 2)
    up = 2.0 ** (((N - 1).bit_length() + 1) // 2)   # least 2^k, 4^k >= N

    def start(y, mean, e):
        y[0] = mean
        y[1:] = U.T @ (e / up)

    def rebuild(y, e):
        np.matmul(U, y[1:], out=e)
        e *= up
        return y[0].reshape(-1, 1, n)

    return Z, start, rebuild


@np.errstate(over="ignore", invalid="ignore")
def _dense_maps(rhs: Callable[[np.ndarray], np.ndarray], x0: np.ndarray,
                times: np.ndarray) -> tuple:
    """:func:`_step_maps`'s one map of size n + Nn, for any L.

    The RK4 map of basis states is rewritten in the coordinates
    ``(xbar, e)``, the node mean and ``e = x - 1 xbar``, and x rebuilt as
    ``1 xbar + e``.  Since the coupling annihilates ``1 xbar``, e evolves
    under its own closed block and the rounding of a large xbar never
    enters it.
    """
    N, n = x0.shape
    D = N * n
    m = n + D
    Z = np.zeros((m, m))
    P = Z[n:, n:]
    chunk = max(1, _CHUNK_ELEMENTS // D)
    for j in range(0, D, chunk):
        rows = min(chunk, D - j)
        basis = np.eye(rows, D, j).reshape(rows, N, n)
        _, step, diverged = _integrate_rk4(rhs, basis, times[:2])
        P[j:j + rows] = np.inf if diverged else step[1].reshape(rows, D)
    # e -> xbar is the node mean of the step; e -> e removes it; xbar ->
    # xbar is the step of the mean alone; xbar -> e is exactly zero
    Z[n:, :n] = P.reshape(D, N, n).mean(axis=1)
    P.reshape(D, N, n)[...] -= Z[n:, None, :n]
    Z[:n, :n] = Z[n:, :n].reshape(N, n, n).sum(axis=0)

    def start(y, mean, e):
        y[0, :n] = mean
        y[0, n:] = e.ravel()

    def rebuild(y, e):
        y = y.reshape(-1, m)
        np.copyto(e.reshape(N, -1, n),
                  y[:, n:].reshape(-1, N, n).transpose(1, 0, 2))
        return y[:, None, :n]

    return Z[None], start, rebuild


def _check_x0(x0, n_nodes: int, node_dim: int | None = None) -> np.ndarray:
    """x0 as a finite (n_nodes, node_dim) array; any node_dim when None."""
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim != 2 or x0.shape[0] != n_nodes or node_dim not in (
            None, x0.shape[1]):
        raise DimensionMismatch(
            f"x0 must be ({n_nodes}, {node_dim or 'node_dim'}), got {x0.shape}"
        )
    _require_finite("x0", x0)
    return x0


def _inf_norm(M: np.ndarray) -> float:
    """The largest absolute row sum of M, inf when it overflows."""
    with np.errstate(over="ignore"):
        return float(np.abs(M).sum(axis=1).max())


def _warn_if_stiff(A, H_eff, sigma: float, laplacian: Laplacian,
                   dt: float) -> None:
    """Warn when the stiffest mode modulus times dt reaches the limit.

    Certificate first: every Laplacian eigenvalue has modulus at most
    ``||L||_inf``, so every mode matrix ``A + sigma lambda H_eff`` has
    spectral radius at most ``beta = ||A||_inf + sigma ||L||_inf
    ||H_eff||_inf``.  When ``beta * dt`` is below the limit by the relative
    ``_STIFFNESS_BOUND_MARGIN`` no mode can reach it and nothing is
    solved.  Only otherwise, or for a non-finite beta, are the Laplacian
    spectrum and the exact modulus computed, so the guard warns exactly
    when the exact modulus times dt reaches the limit.
    """
    # Python floats: an overflow gives inf (or NaN) without a warning
    beta = _inf_norm(A) + (float(sigma) * _inf_norm(laplacian.matrix)
                           * _inf_norm(H_eff))
    if beta * float(dt) < _STABILITY_LIMIT * (1.0 - _STIFFNESS_BOUND_MARGIN):
        return
    worst = stiffest_mode_modulus(A, H_eff, sigma,
                                  spectrum(laplacian).eigenvalues)
    if worst * dt >= _STABILITY_LIMIT:
        warnings.warn(
            f"stiffest mode modulus {worst:.3g} * dt {dt:.3g} = "
            f"{worst * dt:.3g} >= {_STABILITY_LIMIT}; expect instability",
            stacklevel=3,
        )


def simulate_linear(sys: LinearNetworkSystem, x0, t_end: float,
                    dt: float) -> Trajectory:
    """Integrate the Laplacian-coupled linear network.

    Warns when the stiffest mode modulus times dt reaches 2.5 (the edge
    of RK4's stability region on the negative real axis); the run still
    proceeds and divergence, if any, is flagged on the trajectory.  The
    guard first bounds every mode modulus by
    ``||A||_inf + sigma ||L||_inf ||H_eff||_inf``; only when that bound
    times dt does not clear the limit does it run the exact eigensolves.
    """
    x0 = _check_x0(x0, sys.n_nodes, sys.node_dim)
    times = _time_grid(t_end, dt)
    _warn_if_stiff(sys.A, sys.H_eff, sys.sigma, sys.laplacian, dt)
    A_T = sys.A.T.copy()
    H_T = sys.H_eff.T.copy()
    L = sys.laplacian.matrix
    sigma = sys.sigma

    def rhs(X):
        return X @ A_T + sigma * (L @ X) @ H_T

    return _integrate_linear(rhs, L, x0, times)


def simulate_agents(model: AgentModel, laplacian: Laplacian, x0,
                    t_end: float, dt: float) -> Trajectory:
    """Integrate the multi-agent closed loop.

    Each agent runs dx_i/dt = A x_i + c B K sum_j a_ij (x_i - x_j) with
    the adjacency weights a_ij recovered from the Laplacian off-diagonal.
    The trajectory coincides with :func:`simulate_linear` under
    ``H_eff = B K, sigma = c``; asserted in the test suite, not assumed
    here: the right-hand side below is evaluated from degrees and
    adjacency, not from L itself.  Warns as :func:`simulate_linear` does.
    """
    if model.K is None:
        raise PreconditionViolation("agent model has no feedback gain K")
    x0 = _check_x0(x0, laplacian.n_nodes, model.n)
    times = _time_grid(t_end, dt)
    L = laplacian.matrix
    adjacency = -(L - np.diag(np.diag(L)))
    degrees = adjacency.sum(axis=1)
    BK = model.B @ model.K
    BK_T = BK.T.copy()
    A_T = model.A.T.copy()
    c = model.c
    _warn_if_stiff(model.A, BK, c, laplacian, dt)

    def rhs(X):
        consensus_error = degrees[:, None] * X - adjacency @ X
        return X @ A_T + c * consensus_error @ BK_T

    return _integrate_linear(rhs, L, x0, times)


# ---------------------------------------------------------------------------
# chaotic three-oscillator probe
# ---------------------------------------------------------------------------

def rossler_vector_field(state, a: float = 0.2, b: float = 0.2,
                         c: float = 7.0) -> np.ndarray:
    """Rossler flow (dx, dy, dz) = (-(y+z), x + a*y, b + z*(x-c)).

    Broadcasts over leading axes: an (N, 3) stack of node states maps to
    (N, 3) derivatives; a last axis not of length 3 is a DimensionMismatch.
    """
    state = _rossler_state(state)
    x, y, z = state[..., 0], state[..., 1], state[..., 2]
    out = np.empty(state.shape[:-1] + (3,))
    out[..., 0] = -(y + z)
    out[..., 1] = x + a * y
    out[..., 2] = b + z * (x - c)
    return out


def _rossler_state(state) -> np.ndarray:
    """state as a float array whose last axis holds x, y and z."""
    state = np.asarray(state, dtype=float)
    if state.shape[-1:] != (3,):
        raise DimensionMismatch(
            f"a Rossler state has 3 components, got shape {state.shape}")
    return state


def rossler_jacobian_parts(a: float = 0.2, b: float = 0.2, c: float = 7.0):
    """Constant/state-dependent split of the Rossler Jacobian.

    Returns ``(Phi1, Phi2)`` with Phi1 the constant part and Phi2 a
    callable mapping a state (broadcastable over leading axes) to the
    state-dependent part, so that ``Phi1 + Phi2(s)`` is the Jacobian of
    :func:`rossler_vector_field` at s.
    """
    Phi1 = np.array([
        [0.0, -1.0, -1.0],
        [1.0, a, 0.0],
        [0.0, 0.0, -c],
    ])
    return Phi1, _rossler_phi2


def _rossler_phi2(state) -> np.ndarray:
    """State-dependent part of the Rossler Jacobian: z and x in columns 1
    and 3 of row 3.  a, b and c do not enter it, so every call of
    :func:`rossler_jacobian_parts` returns this one function."""
    state = _rossler_state(state)
    out = np.zeros(state.shape[:-1] + (3, 3))
    out[..., 2, 0] = state[..., 2]
    out[..., 2, 2] = state[..., 0]
    return out


@dataclass(frozen=True)
class NonlinearCouplingSpec:
    """Ingredients for a state-dependent coupling design.

    The node Jacobian is split as DF(s) = Phi1 + Phi2(s) with Phi1
    constant; the designed coupling is M(x) = Psi1 + Psi2(x) with

        Psi2(x) = -(1/kappa) * Phi2(x),

    with kappa the smallest real part of the nonzero connection-matrix
    eigenvalues mu_k.  Then Phi2(s) + Re(mu_k) * Psi2(s) = 0 on each
    mode with Re(mu_k) = kappa, so the state-dependent part cancels in
    the M(s) term of the transverse linearization.  The full
    linearization of the coupling is D(M(x)x) = M(x) + (DM(x))x, whose
    second term this cancellation drops; for the Rossler Phi2 it is
    Psi1 - (2/kappa) * Phi2(x), not M(x).
    """

    Phi1: np.ndarray
    Phi2: Callable[[np.ndarray], np.ndarray]
    Psi1: np.ndarray
    kappa: float

    def __post_init__(self):
        if not (math.isfinite(self.kappa) and self.kappa != 0.0):
            raise PreconditionViolation("kappa must be finite and nonzero")
        Phi1, Psi1 = _square_matrices("Phi1 and Psi1", self.Phi1, self.Psi1)
        object.__setattr__(self, "Phi1", Phi1)
        object.__setattr__(self, "Psi1", Psi1)


def design_nonlinear_coupling(spec: NonlinearCouplingSpec):
    """Build the state-dependent coupling matrix function
    M(x) = Psi1 - (1/kappa) * Phi2(x).

    The returned callable broadcasts over leading axes whenever the
    spec's Phi2 does.
    """
    return functools.partial(_designed_coupling_matrix, spec)


def _designed_coupling_matrix(spec: NonlinearCouplingSpec,
                              state) -> np.ndarray:
    """M(state) of :func:`design_nonlinear_coupling`."""
    state = np.asarray(state, dtype=float)
    return spec.Psi1 - (1.0 / spec.kappa) * spec.Phi2(state)


@dataclass(frozen=True)
class NonlinearNetworkSystem:
    """Diffusively coupled identical nonlinear nodes.

    node_dynamics maps a state to its uncoupled derivative;
    coupling_matrix_fn maps the transmitting node's state x_j to the
    matrix M(x_j) applied to that same state, so node i receives
    ``sum_j G_ij M(x_j) x_j``.  A constant coupling may be given as the
    matrix itself: a finite (n, n) array-like, stored as a float array
    (DimensionMismatch unless square, InvalidInput unless finite).  G
    must have zero row sums (the coupling vanishes on the synchronization
    manifold); unlike a Laplacian its off-diagonal entries may take
    either sign.
    """

    node_dynamics: Callable[[np.ndarray], np.ndarray]
    coupling_matrix_fn: Callable[[np.ndarray], np.ndarray] | np.ndarray
    connection: np.ndarray

    def __post_init__(self):
        if not callable(self.coupling_matrix_fn):
            M, = _square_matrices("coupling matrix", self.coupling_matrix_fn)
            object.__setattr__(self, "coupling_matrix_fn", M)
        G, = _square_matrices("connection", self.connection)
        # a row sum that overflows fails too
        with np.errstate(over="ignore"):
            row_sums = np.abs(G.sum(axis=1)).max()
        if not row_sums <= 1e-9 * max(1.0, np.abs(G).max()):
            raise PreconditionViolation("connection rows must sum to zero")
        object.__setattr__(self, "connection", G)

    @property
    def n_nodes(self) -> int:
        return self.connection.shape[0]


def build_three_oscillator(eps: float, delta: float, coupling_matrix_fn,
                           a: float = 0.2, b: float = 0.2,
                           c: float = 7.0) -> NonlinearNetworkSystem:
    """Three Rossler oscillators on a cyclic connection matrix.

    The connection is the circulant with diagonal -2*eps/3, forward
    weight eps/3 + delta/sqrt(3) and backward weight eps/3 - delta/sqrt(3);
    its eigenvalues are {0, -eps + i*delta, -eps - i*delta}, so eps sets
    the transverse damping and delta the rotation of the two transverse
    modes.  eps, delta, a, b and c are taken as floats; each must be a
    finite real.  coupling_matrix_fn is a callable M(x_j) or a constant
    (3, 3) matrix, as :class:`NonlinearNetworkSystem` takes it.
    """
    values = [np.asarray(v) for v in (eps, delta, a, b, c)]
    if not all(v.shape == () and v.dtype.kind in "biuf" and np.isfinite(v)
               for v in values):
        raise InvalidInput("eps, delta, a, b and c must be finite reals, "
                           f"got {(eps, delta, a, b, c)}")
    eps, delta, a, b, c = map(float, values)
    fwd = eps / 3.0 + delta / np.sqrt(3.0)
    bwd = eps / 3.0 - delta / np.sqrt(3.0)
    diag = -2.0 * eps / 3.0
    G = np.array([
        [diag, fwd, bwd],
        [bwd, diag, fwd],
        [fwd, bwd, diag],
    ])
    return NonlinearNetworkSystem(
        node_dynamics=functools.partial(_rossler_node, a, b, c),
        coupling_matrix_fn=coupling_matrix_fn,
        connection=G,
    )


def _rossler_node(a, b, c, state) -> np.ndarray:
    """:func:`rossler_vector_field` with its parameters first, for a
    partial that binds them without a keyword dict to merge per call."""
    return rossler_vector_field(state, a, b, c)


def _batched_or_loop(fn, x0: np.ndarray, shape: tuple):
    """``fn`` over a stack of node states: fn itself, called batched, when
    on x0 it runs and returns the shape and values of a per-node loop,
    else that loop; guards against callables that silently broadcast
    wrong.  Raises :class:`DimensionMismatch` once, here, when fn maps a
    node of x0 to anything but ``shape[1:]``."""
    def loop(X):
        out = np.empty(shape)
        for i in range(X.shape[0]):
            out[i] = fn(X[i])
        return out

    nodes = [np.asarray(fn(x), dtype=float) for x in x0]
    if any(node.shape != shape[1:] for node in nodes):
        raise DimensionMismatch(f"one node's output must be {shape[1:]}")
    try:
        got = np.asarray(fn(x0), dtype=float)
    except Exception:
        return loop
    batched = got.shape == shape and np.allclose(
        got, nodes, rtol=1e-12, atol=1e-12)
    return fn if batched else loop


def _make_nonlinear_rhs(sys: NonlinearNetworkSystem, x0: np.ndarray):
    """RHS closure, evaluating node_dynamics and a coupling callable
    batched where :func:`_batched_or_loop` finds that safe; a coupling
    matrix multiplies the stack of states directly."""
    N, n = x0.shape
    G, M = sys.connection, sys.coupling_matrix_fn
    f_eval = _batched_or_loop(sys.node_dynamics, x0, (N, n))
    m_eval = (None if isinstance(M, np.ndarray)
              else _batched_or_loop(M, x0, (N, n, n)))

    def rhs(X):
        out = G @ (X @ M.T if m_eval is None
                   else np.einsum("jab,jb->ja", m_eval(X), X))
        out += f_eval(X)
        return out

    return rhs


def _probe_coefficients(sys: NonlinearNetworkSystem, initial: np.ndarray):
    """The right-hand side of :func:`_integrate_probe` when sys is a probe
    of :func:`build_three_oscillator` and initial is (3, 3), else None:
    one closure from the 9 floats of a state to the 9 floats of
    ``dx_i = F(x_i) + sum_j G_ij M(x_j) x_j``, all in Python floats.

    A coupling of :func:`design_nonlinear_coupling` over the Rossler Phi2
    enters in closed form, ``M(x) x = Psi1 x - k (0, 0, x z)`` with
    ``k = 2/kappa``, since ``Phi2(x) x = (0, 0, 2 x z)``; a coupling matrix
    enters as that form with Psi1 the matrix and k = 0, which is M x
    summed left to right wherever x z is finite.  Any other callable
    is called once per stage on a fresh (3, 3) array, batched or per node
    as :func:`_batched_or_loop` decides, so a callable that keeps its
    argument never sees it change, and each ``M(x_j) x_j`` is summed left
    to right."""
    f, m, G = sys.node_dynamics, sys.coupling_matrix_fn, sys.connection
    if not (isinstance(f, functools.partial) and f.func is _rossler_node
            and G.shape == initial.shape == (3, 3)):
        return None
    a, b, c = f.args
    g00, g01, g02, g10, g11, g12, g20, g21, g22 = G.ravel().tolist()
    designed = (isinstance(m, functools.partial)
                and m.func is _designed_coupling_matrix
                and m.args[0].Phi2 is _rossler_phi2
                and m.args[0].Psi1.shape == (3, 3))
    if designed or isinstance(m, np.ndarray):
        P, k = ((m.args[0].Psi1, 2.0 / float(m.args[0].kappa)) if designed
                else (m, 0.0))
        p00, p01, p02, p10, p11, p12, p20, p21, p22 = P.ravel().tolist()

        def rhs(x0, y0, z0, x1, y1, z1, x2, y2, z2):
            u0 = p00 * x0 + p01 * y0 + p02 * z0
            v0 = p10 * x0 + p11 * y0 + p12 * z0
            w0 = p20 * x0 + p21 * y0 + p22 * z0 - k * (x0 * z0)
            u1 = p00 * x1 + p01 * y1 + p02 * z1
            v1 = p10 * x1 + p11 * y1 + p12 * z1
            w1 = p20 * x1 + p21 * y1 + p22 * z1 - k * (x1 * z1)
            u2 = p00 * x2 + p01 * y2 + p02 * z2
            v2 = p10 * x2 + p11 * y2 + p12 * z2
            w2 = p20 * x2 + p21 * y2 + p22 * z2 - k * (x2 * z2)
            return (g00 * u0 + g01 * u1 + g02 * u2 - (y0 + z0),
                    g00 * v0 + g01 * v1 + g02 * v2 + (x0 + a * y0),
                    g00 * w0 + g01 * w1 + g02 * w2 + (b + z0 * (x0 - c)),
                    g10 * u0 + g11 * u1 + g12 * u2 - (y1 + z1),
                    g10 * v0 + g11 * v1 + g12 * v2 + (x1 + a * y1),
                    g10 * w0 + g11 * w1 + g12 * w2 + (b + z1 * (x1 - c)),
                    g20 * u0 + g21 * u1 + g22 * u2 - (y2 + z2),
                    g20 * v0 + g21 * v1 + g22 * v2 + (x2 + a * y2),
                    g20 * w0 + g21 * w1 + g22 * w2 + (b + z2 * (x2 - c)))
        return rhs
    m_eval, array = _batched_or_loop(m, initial, (3, 3, 3)), np.array

    def rhs(x0, y0, z0, x1, y1, z1, x2, y2, z2):
        X = array((x0, y0, z0, x1, y1, z1, x2, y2, z2)).reshape(3, 3)
        (m00, m01, m02, m10, m11, m12, m20, m21, m22,
         n00, n01, n02, n10, n11, n12, n20, n21, n22,
         o00, o01, o02, o10, o11, o12, o20, o21, o22) = (
             m_eval(X).ravel().tolist())
        u0 = m00 * x0 + m01 * y0 + m02 * z0
        v0 = m10 * x0 + m11 * y0 + m12 * z0
        w0 = m20 * x0 + m21 * y0 + m22 * z0
        u1 = n00 * x1 + n01 * y1 + n02 * z1
        v1 = n10 * x1 + n11 * y1 + n12 * z1
        w1 = n20 * x1 + n21 * y1 + n22 * z1
        u2 = o00 * x2 + o01 * y2 + o02 * z2
        v2 = o10 * x2 + o11 * y2 + o12 * z2
        w2 = o20 * x2 + o21 * y2 + o22 * z2
        return (g00 * u0 + g01 * u1 + g02 * u2 - (y0 + z0),
                g00 * v0 + g01 * v1 + g02 * v2 + (x0 + a * y0),
                g00 * w0 + g01 * w1 + g02 * w2 + (b + z0 * (x0 - c)),
                g10 * u0 + g11 * u1 + g12 * u2 - (y1 + z1),
                g10 * v0 + g11 * v1 + g12 * v2 + (x1 + a * y1),
                g10 * w0 + g11 * w1 + g12 * w2 + (b + z1 * (x1 - c)),
                g20 * u0 + g21 * u1 + g22 * u2 - (y2 + z2),
                g20 * v0 + g21 * v1 + g22 * v2 + (x2 + a * y2),
                g20 * w0 + g21 * w1 + g22 * w2 + (b + z2 * (x2 - c)))
    return rhs


@np.errstate(over="ignore", invalid="ignore")
def _integrate_probe(rhs, initial: np.ndarray, times: np.ndarray) -> tuple:
    """:func:`_integrate_rk4` of a three-oscillator Rossler probe, in
    Python floats: the same grid, stages and truncation, over the
    right-hand side of :func:`_probe_coefficients`.  Faster than numpy on
    3x3 arrays; it rounds the coupling sums differently."""
    dt = float(times[1] - times[0])
    h, sixth = 0.5 * dt, dt / 6.0
    out = np.empty((times.shape[0], 3, 3))
    out[0] = initial
    record = memoryview(out.reshape(-1))
    put = struct.Struct("9d").pack_into     # sample k at byte 72 k
    s0, s1, s2, s3, s4, s5, s6, s7, s8 = initial.ravel().tolist()
    for k in range(1, times.shape[0]):
        a0, a1, a2, a3, a4, a5, a6, a7, a8 = rhs(
            s0, s1, s2, s3, s4, s5, s6, s7, s8)
        b0, b1, b2, b3, b4, b5, b6, b7, b8 = rhs(
            s0 + h * a0, s1 + h * a1, s2 + h * a2, s3 + h * a3, s4 + h * a4,
            s5 + h * a5, s6 + h * a6, s7 + h * a7, s8 + h * a8)
        c0, c1, c2, c3, c4, c5, c6, c7, c8 = rhs(
            s0 + h * b0, s1 + h * b1, s2 + h * b2, s3 + h * b3, s4 + h * b4,
            s5 + h * b5, s6 + h * b6, s7 + h * b7, s8 + h * b8)
        d0, d1, d2, d3, d4, d5, d6, d7, d8 = rhs(
            s0 + dt * c0, s1 + dt * c1, s2 + dt * c2, s3 + dt * c3,
            s4 + dt * c4, s5 + dt * c5, s6 + dt * c6, s7 + dt * c7,
            s8 + dt * c8)
        s0 = s0 + sixth * (a0 + 2.0 * b0 + 2.0 * c0 + d0)
        s1 = s1 + sixth * (a1 + 2.0 * b1 + 2.0 * c1 + d1)
        s2 = s2 + sixth * (a2 + 2.0 * b2 + 2.0 * c2 + d2)
        s3 = s3 + sixth * (a3 + 2.0 * b3 + 2.0 * c3 + d3)
        s4 = s4 + sixth * (a4 + 2.0 * b4 + 2.0 * c4 + d4)
        s5 = s5 + sixth * (a5 + 2.0 * b5 + 2.0 * c5 + d5)
        s6 = s6 + sixth * (a6 + 2.0 * b6 + 2.0 * c6 + d6)
        s7 = s7 + sixth * (a7 + 2.0 * b7 + 2.0 * c7 + d7)
        s8 = s8 + sixth * (a8 + 2.0 * b8 + 2.0 * c8 + d8)
        # as in _integrate_rk4, a finite state whose sum overflows passes
        if (not math.isfinite(s0 + s1 + s2 + s3 + s4 + s5 + s6 + s7 + s8)
                and not all(map(math.isfinite, (s0, s1, s2, s3, s4, s5, s6,
                                                s7, s8)))):
            return times[:k].copy(), out[:k].copy(), True
        put(record, 72 * k, s0, s1, s2, s3, s4, s5, s6, s7, s8)
    return times, out, False


def simulate_nonlinear(sys: NonlinearNetworkSystem, x0, t_end: float,
                       dt: float = 1e-3) -> Trajectory:
    """Integrate dx_i/dt = F(x_i) + sum_j G_ij M(x_j) x_j with fixed-step
    RK4.  Deterministic for fixed inputs; divergence truncates and flags.
    A coupling matrix whose width does not fit x0 is DimensionMismatch.

    Every probe that :func:`build_three_oscillator` builds steps in Python
    floats (:func:`_integrate_probe`), whatever its coupling: a coupling
    matrix, or :func:`design_nonlinear_coupling` over the Phi2 of
    :func:`rossler_jacobian_parts`, enters in closed form, and any other
    callable is called once per stage and its products summed left to
    right.  Every other system steps on numpy arrays."""
    M = sys.coupling_matrix_fn
    x0 = _check_x0(x0, sys.n_nodes,
                   M.shape[0] if isinstance(M, np.ndarray) else None)
    times = _time_grid(t_end, dt)
    rhs = _probe_coefficients(sys, x0)
    if rhs is not None:
        return Trajectory(*_integrate_probe(rhs, x0, times))
    rhs = _make_nonlinear_rhs(sys, x0)
    return Trajectory(*_integrate_rk4(rhs, x0, times))


# ---------------------------------------------------------------------------
# synchronization metrics
# ---------------------------------------------------------------------------

def _settle_time(errors: np.ndarray, times: np.ndarray,
                 tol: float) -> Optional[float]:
    """First grid time after which errors stay below tol (None if never)."""
    above = np.nonzero(errors >= tol)[0]
    if above.size == 0:
        return float(times[0])
    if above[-1] == errors.shape[0] - 1:
        return None
    return float(times[above[-1] + 1])


def _node_spread(traj: Trajectory) -> np.ndarray:
    """Cross-node spread per sample and component: the trajectory's own
    when the simulator recorded one, else that of the states."""
    if traj.spread is not None:
        return traj.spread
    return traj.states.max(axis=1) - traj.states.min(axis=1)


def sync_error(traj: Trajectory, tol: float) -> SyncReport:
    """Pairwise synchronization error and convergence verdict.

    sync_time is the first grid time t such that e(s) < tol for every
    s >= t within the horizon; a trajectory below tol everywhere gets
    sync_time = times[0].
    """
    _require_positive("tol", tol)
    errors = _node_spread(traj).max(axis=1)
    sync_time = _settle_time(errors, traj.times, tol)
    return SyncReport(
        error_series=errors,
        sync_time=sync_time,
        converged=sync_time is not None,
        tol=float(tol),
    )


def component_settle_times(traj: Trajectory, tol: float) -> tuple:
    """Per-state-component settle times of the cross-node spread.

    Entry c is the first grid time after which
    ``max_i x_i[c] - min_i x_i[c]`` stays below tol (None if it never
    does); resolves which components of a design synchronize sooner.
    """
    _require_positive("tol", tol)
    spread = _node_spread(traj)
    return tuple(
        _settle_time(spread[:, c], traj.times, tol)
        for c in range(traj.node_dim)
    )


def rms_amplitude(traj: Trajectory) -> float:
    """Root-mean-square state amplitude over the whole trajectory; the
    reference scale for relative synchronization tolerances of chaotic
    systems.  Scaled by max |x| when the squares would overflow."""
    states = traj.states
    with np.errstate(over="ignore"):
        rms = float(np.sqrt(np.mean(states ** 2)))
    if math.isinf(rms) and np.isfinite(states).all():  # squares overflowed
        scale = np.abs(states).max()
        rms = float(scale * np.sqrt(np.mean((states / scale) ** 2)))
    return rms
