"""Simulator and synchronization-metric tests.

Covers:
  - exact scalar consensus decay e^(-2t) against the integrator
  - synchronization-manifold invariance for all three simulators
  - agent-network trajectory identity (the duality, step for step)
  - open-loop agents against a matrix-exponential oracle
  - the chaotic probe pieces: vector field values, connection-matrix
    eigenvalues, Jacobian split vs finite differences, coupling design
    formula cases
  - sync_error / component settle times / divergence flagging, and a
    converged run settling in every component no later than sync_time
  - trajectory CSV round-trip and its bytes against a csv.writer
    reference, stiffness warning (each simulator's guard calling
    ``stiffest_mode_modulus`` once on a stiff run and never on a run its
    norm bound clears, and warning exactly when the exact modulus
    reaches the limit), step-halving sanity,
    tail log-slope matching the slowest transverse mode
  - the one linear stepper over both map builders (N mode maps on a
    symmetric Laplacian, one dense map otherwise) against a per-step RK4
    loop, also on a short run whose block length the run length caps,
    on a disconnected graph whose two zero modes must both be kept and
    on random symmetric Laplacians, connected or not; the recorded
    spread, also of a symmetric Laplacian's dense map through the same
    loop, truncation inside a block and inside a group of blocks, a
    symmetric run truncated at its states' last finite step without the
    dense map builder, and example3's verdict at a horizon where the raw
    states reach 1e15
  - the nonlinear simulator's numpy path bit for bit against a per-step
    RK4 loop (designed, selector, random zero-row-sum and per-node
    couplings), and a finite state whose sum overflows running to the end
  - the three-oscillator probe's float kernel: taken by every probe of
    build_three_oscillator, bit for bit against a
    Python-float RK4 under the designed closed form, the fixture
    selector, a dense constant and a per-node coupling (the last two
    summed left to right), the constant ones also passed as matrices,
    within 1e-12 relative of the numpy path for both fixture couplings
    and for the selector and a dense matrix, diverging at the same step,
    handing the coupling a fresh array at every stage and passing its
    exception on unchanged
  - a coupling matrix: the rossler-baseline run passing the selector
    matrix and keeping the states of ``lambda state: selector``, a
    malformed or non-finite matrix failing at construction and a list
    stored as floats, a matrix that does not fit x0 failing in the run
  - time-grid validation, NaN in the positive-scalar checks, non-finite
    inputs rejected with no warning (also by the design and duality
    functions), complex, non-numeric and ragged real matrices rejected,
    probe parameters that are not finite reals, malformed and empty
    trajectories, an x0 of the wrong shape, a node width that
    the node dynamic or coupling does not fit, and the per-node fallback
    for callables that broadcast wrong
  - the CSV writer byte for byte against the reference on generated
    64-bit patterns, and its memory bounded by one chunk, each also with
    the file forced onto 1, 2 and 3 processes; its process count bounded
    by the CPUs and the file size, the file split inside a daemonic
    worker too, the range of a killed or unforked worker written by the
    parent, a worker ignoring SIGINT, a failing worker or an interrupt
    leaving no file behind, and no worker left unreaped (checked on
    Linux, the one platform where the writer forks)
"""

import csv
import errno
import math
import multiprocessing
import os
import signal
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from helpers import (
    assert_no_child_left,
    force_csv_processes,
    path_topology,
    random_connected_topology,
    relative_final_state_change,
)

from netsync import (
    AgentModel,
    CouplingMatrices,
    DimensionMismatch,
    InvalidInput,
    Laplacian,
    LinearNetworkSystem,
    ModalCouplingSpec,
    NonlinearCouplingSpec,
    NonlinearNetworkSystem,
    PreconditionViolation,
    Topology,
    build_laplacian,
    build_three_oscillator,
    component_settle_times,
    controllability,
    decompose,
    design_directed,
    design_nonlinear_coupling,
    design_undirected,
    gain_from_h,
    pseudo_inverse,
    recovery_residual,
    rms_amplitude,
    rossler_jacobian_parts,
    rossler_vector_field,
    simulate_agents,
    simulate_linear,
    simulate_nonlinear,
    Trajectory,
    spectrum,
    sync_error,
    sync_report_dict,
    verify,
    write_trajectory_csv,
)
from netsync import artifacts, dynamics, scenarios
from netsync.artifacts import _atomic_write
from netsync.coupling import stiffest_mode_modulus
from netsync.dynamics import _CHUNK_ELEMENTS
from netsync.scenarios import (
    designed_rossler_coupling,
    load_fixture,
    run_example3,
    run_rossler,
)

PAIR_LAPLACIAN = Laplacian(np.array([[1.0, -1.0], [-1.0, 1.0]]))


def _scalar_consensus(t_end=1.0, dt=1e-3):
    sys = LinearNetworkSystem(A=np.zeros((1, 1)), H_eff=np.array([[-1.0]]),
                              sigma=1.0, laplacian=PAIR_LAPLACIAN)
    return simulate_linear(sys, np.array([[1.0], [0.0]]), t_end, dt)


# ── linear simulator ─────────────────────────────────────────────────────────


def test_scalar_consensus_matches_exact_decay():
    traj = _scalar_consensus()
    diff = traj.states[:, 0, 0] - traj.states[:, 1, 0]
    assert abs(diff[-1] - np.exp(-2.0)) < 1e-6
    assert np.abs(diff - np.exp(-2.0 * traj.times)).max() < 1e-6


@pytest.mark.parametrize("t_end, dt", [
    (1.0, float("nan")), (float("inf"), 1e-3), (float("nan"), 1e-3),
    (1.0, 0.0), (1.0, 2.0), (1.0, 1e-300), (1.0, 1e-320)])
def test_time_grid_rejects_bad_horizon(t_end, dt):
    # 1 / 1e-300 steps exceed one array; 1 / 1e-320 overflows to inf
    with pytest.raises(InvalidInput):
        _scalar_consensus(t_end, dt)


def test_manifold_invariance_linear():
    rng = np.random.default_rng(1)
    A = rng.normal(0, 1, (3, 3))
    lap = build_laplacian(random_connected_topology(rng, 4))
    sys = LinearNetworkSystem(A=A, H_eff=-np.eye(3), sigma=1.0, laplacian=lap)
    row = rng.normal(0, 1, 3)
    traj = simulate_linear(sys, np.tile(row, (4, 1)), 2.0, 1e-3)
    spread = (traj.states.max(axis=1) - traj.states.min(axis=1)).max()
    assert spread <= 1e-12 * max(1.0, np.abs(traj.states).max())


def test_stiffness_warning():
    sys = LinearNetworkSystem(A=np.zeros((1, 1)), H_eff=np.array([[-1.0]]),
                              sigma=1.0, laplacian=PAIR_LAPLACIAN)
    with pytest.warns(UserWarning, match="stiffest"):
        simulate_linear(sys, np.array([[1.0], [0.0]]), 10.0, 2.0)
    model = AgentModel(A=np.zeros((1, 1)), B=np.eye(1), K=-np.eye(1), c=1.0)
    with pytest.warns(UserWarning, match="stiffest"):
        simulate_agents(model, PAIR_LAPLACIAN, np.array([[1.0], [0.0]]),
                        10.0, 2.0)


def test_stiffness_guard_calls_stiffest_mode_modulus(monkeypatch):
    # on a stiff run, which the norm bound cannot clear, both simulators'
    # guard goes through the module-level name once per run and warns
    calls = []

    def spy(A, H_eff, sigma, lambdas):
        calls.append(np.sort_complex(lambdas))
        return stiffest_mode_modulus(A, H_eff, sigma, lambdas)

    monkeypatch.setattr(dynamics, "stiffest_mode_modulus", spy)
    test_stiffness_warning()
    assert len(calls) == 2
    for lambdas in calls:
        assert np.allclose(lambdas, [0.0, 2.0])


def test_non_stiff_runs_skip_the_eigensolves(monkeypatch):
    # the norm bound clears these runs, so neither simulator solves an
    # eigenproblem in its guard
    def forbidden(*args):
        raise AssertionError("eigensolve in the guard of a non-stiff run")

    monkeypatch.setattr(dynamics, "spectrum", forbidden)
    monkeypatch.setattr(dynamics, "stiffest_mode_modulus", forbidden)
    rng = np.random.default_rng(5)
    lap = build_laplacian(random_connected_topology(rng, 5))
    A = rng.normal(0, 1, (2, 2))
    x0 = rng.normal(0, 1, (5, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        simulate_linear(LinearNetworkSystem(A=A, H_eff=-np.eye(2), sigma=1.0,
                                            laplacian=lap), x0, 1.0, 1e-2)
        simulate_agents(AgentModel(A=A, B=np.eye(2), K=-np.eye(2), c=1.0),
                        lap, x0, 1.0, 1e-2)


def _guard_laplacian(kind: str, rng, n_nodes: int) -> Laplacian:
    if kind in ("undirected", "directed"):
        return build_laplacian(random_connected_topology(
            rng, n_nodes, directed=kind == "directed"))
    weight = rng.uniform(0.2, 2.0)
    if kind == "chain":
        # one-way chain: L has no full eigenbasis
        w = weight * np.eye(n_nodes, k=-1)
        return build_laplacian(Topology(n_nodes=n_nodes, directed=True,
                                        weights=w))
    # even cycle: its largest eigenvalue is ||L||_inf = 4 * weight
    n_nodes += n_nodes % 2
    w = weight * np.roll(np.eye(n_nodes), 1, axis=1)
    return build_laplacian(Topology(n_nodes=n_nodes, directed=False,
                                    weights=w + w.T))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4),
       n_nodes=st.integers(2, 7),
       kind=st.sampled_from(["undirected", "directed", "chain", "cycle"]),
       tight=st.booleans(),
       dt_from=st.sampled_from(["exact", "bound"]),
       shift=st.sampled_from([-0.5, -1e-3, -1e-7, -5e-7, -1e-9, 0.0, 1e-9,
                              5e-7, 1e-6, 1e-3, 1.0]))
def test_stiffness_guard_warns_iff_exact_modulus_reaches_limit(
        seed, n, n_nodes, kind, tight, dt_from, shift):
    # dt lies on either side of 2.5 / exact modulus, or of the norm
    # bound's own threshold 2.5 (1 - 1e-6) / bound, inside the margin band
    # between them too; a tight draw (A and H_eff negative diagonal on a
    # cycle, whose largest eigenvalue is ||L||_inf) makes the bound exact
    rng = np.random.default_rng(seed)
    lap = _guard_laplacian(kind, rng, n_nodes)
    sigma = float(rng.uniform(0.1, 10.0))
    if tight:
        A = -np.diag(rng.uniform(0.0, 3.0, n))
        H = -rng.uniform(0.1, 3.0) * np.eye(n)
    else:
        A = rng.normal(0, rng.uniform(0.1, 5.0), (n, n))
        H = rng.normal(0, rng.uniform(0.1, 5.0), (n, n))
    worst = stiffest_mode_modulus(A, H, sigma, spectrum(lap).eigenvalues)
    bound = (np.linalg.norm(A, np.inf)
             + sigma * np.linalg.norm(lap.matrix, np.inf)
             * np.linalg.norm(H, np.inf))
    assert worst <= bound * (1 + 1e-12)
    base = (2.5 / worst if dt_from == "exact"
            else 2.5 * (1 - 1e-6) / bound)
    dt = base * (1 + shift)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        dynamics._warn_if_stiff(A, H, sigma, lap, dt)
    warned = any("stiffest" in str(w.message) for w in caught)
    assert warned == (worst * dt >= 2.5)


def test_divergence_is_flagged_not_raised():
    # strongly unstable scalar dynamic overflows well before t_end
    sys = LinearNetworkSystem(A=np.array([[80.0]]), H_eff=np.array([[-1e-6]]),
                              sigma=1.0, laplacian=PAIR_LAPLACIAN)
    traj = simulate_linear(sys, np.array([[1.0], [2.0]]), 20.0, 1e-2)
    assert traj.diverged
    assert traj.times.shape[0] < 2001
    assert np.isfinite(traj.states).all()
    report = sync_error(traj, 1e-3)     # divergent runs still get a report
    assert not report.converged


def _rk4_loop(f, x0, steps, dt):
    """Reference: the classical RK4 step applied one step at a time."""
    X, out = x0, [x0]
    for _ in range(steps):
        k1 = f(X)
        k2 = f(X + 0.5 * dt * k1)
        k3 = f(X + 0.5 * dt * k2)
        k4 = f(X + dt * k3)
        X = X + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out.append(X)
    return np.array(out)


def _two_simulators_against_rk4(lap, rng, n, steps, dt):
    """Both linear simulators on a random system over lap, each within
    1e-9 relative of the per-step RK4 loop and of each other."""
    L = lap.matrix
    m = int(rng.integers(1, n + 1))
    A = rng.normal(0, 1, (n, n))
    B = rng.normal(0, 1, (n, m))
    K = rng.normal(0, 1, (m, n))
    c = float(rng.uniform(0.2, 1.5))
    x0 = rng.uniform(-1, 1, (lap.n_nodes, n))
    ref = _rk4_loop(lambda X: X @ A.T + c * (L @ X) @ (B @ K).T,
                    x0, steps, dt)
    linear = simulate_linear(LinearNetworkSystem(
        A=A, H_eff=B @ K, sigma=c, laplacian=lap), x0, steps * dt, dt)
    agents = simulate_agents(AgentModel(A=A, B=B, K=K, c=c), lap, x0,
                             steps * dt, dt)
    scale = np.maximum(1.0, np.abs(ref))
    for traj in (linear, agents):
        assert traj.states.shape == ref.shape and not traj.diverged
        assert (np.abs(traj.states - ref) <= 1e-9 * scale).all()
    assert (np.abs(linear.states - agents.states) <= 1e-9 * scale).all()


@pytest.mark.parametrize("directed", [False, True])
def test_linear_simulators_match_per_step_rk4(directed):
    rng = np.random.default_rng(21 + directed)
    dt = 1e-3
    # four random systems over 1000 steps, then one over 40 steps with
    # N = 6, n = 3, whose run length caps the block: on the directed
    # Laplacian the dense propagator of size n + N n = 21 takes
    # 1 + 40 // 21 = 2 steps a block, on the undirected one the 3 x 3
    # mode maps take 1 + 40 // 3 = 14, instead of all 40
    for steps in (1000,) * 4 + (40,):
        if steps == 40:
            n, N = 3, 6
        else:
            n, N = int(rng.integers(1, 4)), int(rng.integers(2, 7))
        lap = build_laplacian(
            random_connected_topology(rng, N, directed=directed))
        _two_simulators_against_rk4(lap, rng, n, steps, dt)


def test_linear_simulators_keep_every_zero_mode_of_a_disconnected_graph():
    # a 3-node path and a 2-node edge: the zero eigenspace is two-dimensional
    # and x0's disagreement has a part in it, which a basis that drops a
    # zero mode, or keeps only the constant one, loses
    rng = np.random.default_rng(25)
    w = np.zeros((5, 5))
    for a, b in ((0, 1), (1, 2), (3, 4)):
        w[a, b] = w[b, a] = rng.uniform(0.5, 1.5)
    lap = build_laplacian(Topology(n_nodes=5, directed=False, weights=w))
    assert np.sum(np.abs(np.linalg.eigvalsh(lap.matrix)) < 1e-12) == 2
    for n in (1, 2, 3):
        _two_simulators_against_rk4(lap, rng, n, 500, 1e-3)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), n_nodes=st.integers(2, 12),
       n=st.integers(1, 4), connected=st.booleans())
def test_linear_simulators_match_rk4_on_symmetric_laplacians(
        seed, n_nodes, n, connected):
    rng = np.random.default_rng(seed)
    if connected:
        topology = random_connected_topology(rng, n_nodes)
    else:
        # random edges, none between the nodes below cut and the rest
        w = np.triu(np.where(rng.random((n_nodes, n_nodes)) < 0.5,
                             rng.uniform(0.2, 2.0, (n_nodes, n_nodes)),
                             0.0), 1)
        cut = int(rng.integers(1, n_nodes))
        w[:cut, cut:] = 0.0
        topology = Topology(n_nodes=n_nodes, directed=False, weights=w + w.T)
    _two_simulators_against_rk4(build_laplacian(topology), rng, n, 200, 1e-3)


def test_recorded_spread_matches_states_spread():
    rng = np.random.default_rng(8)
    A = rng.normal(0, 0.5, (3, 3))
    lap = build_laplacian(random_connected_topology(rng, 5, directed=True))
    sys = LinearNetworkSystem(A=A, H_eff=-np.eye(3), sigma=1.0, laplacian=lap)
    traj = simulate_linear(sys, rng.uniform(-1, 1, (5, 3)), 2.0, 1e-3)
    raw = traj.states.max(axis=1) - traj.states.min(axis=1)
    assert traj.spread.shape == raw.shape
    assert np.abs(traj.spread - raw).max() <= 1e-12
    assert np.array_equal(sync_error(traj, 1e-3).error_series,
                          traj.spread.max(axis=1))
    with pytest.raises(DimensionMismatch):
        Trajectory(times=traj.times, states=traj.states,
                   spread=traj.spread[:-1])


def test_divergence_inside_a_block_truncates_at_last_finite_state():
    # mean 1 and disagreement +-1 grow alike by ~1.22 a step, so some
    # step has both parts below the largest float and their sum above it
    a, dt = 20.0, 1e-2
    sys = LinearNetworkSystem(A=np.array([[a]]), H_eff=np.array([[-1e-6]]),
                              sigma=1.0, laplacian=PAIR_LAPLACIAN)
    traj = simulate_linear(sys, np.array([[0.0], [2.0]]), 50.0, dt)
    assert traj.diverged
    assert (traj.times.shape[0] == traj.states.shape[0]
            == traj.spread.shape[0])
    assert 1 < traj.times.shape[0] < 5001
    assert np.isfinite(traj.states).all() and np.isfinite(traj.spread).all()
    z = a * dt
    growth = 1 + z + z ** 2 / 2 + z ** 3 / 6 + z ** 4 / 24
    assert np.abs(traj.states[-1]).max() > np.finfo(float).max / growth


def test_overflow_mid_group_truncates_at_last_finite_step():
    # N * n = 300 takes one step per block and several blocks per group;
    # node i grows by the RK4 factor g a step from x0_i, the largest x0_i
    # sits at max / g**20.5, so step 20 is the last finite one
    a, dt, N = 10.0, 0.1, 300
    growth = 1 + 1 + 1 / 2 + 1 / 6 + 1 / 24      # a * dt = 1
    x0 = np.linspace(0.1, 1.0, N)[:, None] * (
        np.finfo(float).max / growth ** 20.5)
    sys = LinearNetworkSystem(A=np.array([[a]]), H_eff=np.zeros((1, 1)),
                              sigma=1.0,
                              laplacian=build_laplacian(path_topology(N)))
    traj = simulate_linear(sys, x0, 10.0, dt)
    assert traj.diverged
    assert (traj.times.shape[0] == traj.states.shape[0]
            == traj.spread.shape[0] == 21)
    assert np.isfinite(traj.states).all() and np.isfinite(traj.spread).all()
    expected = x0[None] * growth ** np.arange(21)[:, None, None]
    assert np.allclose(traj.states, expected, rtol=1e-12, atol=0.0)


def test_overflowing_step_map_diverges_at_first_step():
    sys = LinearNetworkSystem(A=np.zeros((1, 1)), H_eff=np.array([[-1e100]]),
                              sigma=1.0, laplacian=PAIR_LAPLACIAN)
    with pytest.warns(UserWarning, match="stiffest"):
        traj = simulate_linear(sys, np.array([[1.0], [0.0]]), 1.0, 0.1)
    assert traj.diverged and traj.times.shape[0] == 1
    assert np.array_equal(traj.states[0], [[1.0], [0.0]])


def test_laplacian_near_the_largest_float_diverges_at_first_step():
    # ||L||_inf = 1e308 is finite, but the modal basis's shift
    # 1 + 2||L||_inf is not, so the run takes the dense path, whose step
    # map overflows
    w = np.array([[0.0, 5e307], [5e307, 0.0]])
    lap = build_laplacian(Topology(n_nodes=2, directed=False, weights=w))
    sys = LinearNetworkSystem(A=np.zeros((1, 1)), H_eff=-np.eye(1),
                              sigma=1.0, laplacian=lap)
    with pytest.warns(UserWarning, match="stiffest"):
        traj = simulate_linear(sys, np.array([[1.0], [0.0]]), 1.0, 0.1)
    assert traj.diverged and traj.times.shape[0] == 1


@settings(max_examples=25, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, 2**32 - 1), n_nodes=st.integers(2, 400),
       extra=st.integers(0, 24))
def test_symmetric_overflow_truncates_on_the_mode_path(monkeypatch, seed,
                                                       n_nodes, extra):
    # uncoupled nodes grow by the RK4 factor g a step and the largest
    # |x0| sits at max / g**(k + 1/2), so step k is the last finite one;
    # x0 lies along the most spread-out mode, whose coordinate is up to
    # sqrt(N) times the largest state and, unscaled, would overflow first.
    # g**k >= N keeps the sum of x0 that gives its node mean finite
    def no_dense(*args):
        raise AssertionError("a symmetric run stepped the dense map")

    monkeypatch.setattr(dynamics, "_dense_maps", no_dense)
    rng = np.random.default_rng(seed)
    lap = build_laplacian(random_connected_topology(rng, n_nodes))
    modes = np.linalg.eigh(lap.matrix)[1][:, 1:]
    u = modes[:, np.argmin(np.abs(modes).max(axis=0))]
    growth = 1 + 1 + 1 / 2 + 1 / 6 + 1 / 24      # a * dt = 1
    k = math.ceil(math.log(n_nodes) / math.log(growth)) + extra
    x0 = (u / np.abs(u).max() * (np.finfo(float).max
                                 / growth ** (k + 0.5)))[:, None]
    sys = LinearNetworkSystem(A=np.array([[10.0]]), H_eff=np.zeros((1, 1)),
                              sigma=1.0, laplacian=lap)
    traj = simulate_linear(sys, x0, 4.0, 0.1)
    assert traj.diverged and traj.times.shape[0] == k + 1
    assert np.isfinite(traj.states).all()


@pytest.mark.parametrize("directed", [False, True],
                         ids=["mode-path", "dense-path"])
def test_node_mean_is_kept_when_the_node_sum_overflows(directed):
    # the node sum of x0 overflows (64 * 1.6e307 > max) while its mean, 0,
    # is in range: both simulators step the run instead of stopping at a
    # NaN mean
    lap = build_laplacian(random_connected_topology(
        np.random.default_rng(1), 129, directed))
    x0 = np.zeros((129, 1))
    x0[:64], x0[64:128] = 1.6e307, -1.6e307
    sys = LinearNetworkSystem(A=np.zeros((1, 1)), H_eff=-np.eye(1),
                              sigma=1.0, laplacian=lap)
    model = AgentModel(A=np.zeros((1, 1)), B=np.eye(1), K=-np.eye(1))
    for traj in (simulate_linear(sys, x0, 0.01, 1e-3),
                 simulate_agents(model, lap, x0, 0.01, 1e-3)):
        assert not traj.diverged and traj.times.shape[0] == 11
        assert np.isfinite(traj.states).all()
        assert np.array_equal(traj.states[0], x0)


def test_example3_verdict_holds_at_long_horizon():
    # the unstable node dynamic (+0.366) drives the states to ~1e15 by
    # t = 100, where max - min of the raw states is one ulp (2.0)
    result = run_example3(t_end=100.0)
    assert result.verdict
    assert result.summary["variants"]["H6"]["final_error"] < 1e-9


def test_mode_path_spread_stays_at_its_scale_as_the_common_mode_grows():
    # A's eigenvalues 0.5 +- 1j drive the node mean to ~1e30 by t = 140
    # while the coupling damps the spread by 1e-61; a common mode left in
    # the modal coordinates would carry the mean's rounding (1e-16 of it)
    # into the spread, as the dense path's closed disagreement block does
    # not
    rng = np.random.default_rng(31)
    N = 12
    L = build_laplacian(random_connected_topology(rng, N)).matrix
    A = np.array([[0.5, 1.0], [-1.0, 0.5]])
    c = 1.5 / np.linalg.eigvalsh(L)[1]

    def rhs(X):
        return X @ A.T - c * (L @ X)

    x0 = rng.uniform(-1, 1, (N, 2))
    times = dynamics._time_grid(140.0, 1e-2)
    modes = dynamics._step_maps(*dynamics._mode_maps(rhs, L, x0, times), x0,
                                times)
    dense = dynamics._step_maps(*dynamics._dense_maps(rhs, x0, times), x0,
                                times)
    assert 1e29 < np.abs(modes.states[-1]).max() < np.inf
    assert dense.spread[-1].max() < 1e-60
    assert (np.abs(modes.spread - dense.spread) <= 1e-8 * dense.spread).all()
    # example3's unstable node dynamic (+0.366) takes its states to ~1e32
    result = run_example3(t_end=200.0)
    assert result.verdict
    assert result.summary["variants"]["H6"]["final_error"] < 1e-20


# ── agent simulator ──────────────────────────────────────────────────────────


def test_agents_match_linear_step_for_step():
    rng = np.random.default_rng(12)
    for _ in range(5):
        n, m = int(rng.integers(1, 4)), 1
        N = int(rng.integers(2, 6))
        A = rng.normal(0, 1, (n, n))
        B = rng.normal(0, 1, (n, m))
        K = rng.normal(0, 1, (m, n))
        c = float(rng.uniform(0.2, 1.5))
        lap = build_laplacian(random_connected_topology(rng, N))
        x0 = rng.uniform(-1, 1, (N, n))
        traj_a = simulate_agents(AgentModel(A=A, B=B, K=K, c=c), lap, x0, 1.0, 1e-3)
        sys = LinearNetworkSystem(A=A, H_eff=B @ K, sigma=c, laplacian=lap)
        traj_l = simulate_linear(sys, x0, 1.0, 1e-3)
        assert np.abs(traj_a.states - traj_l.states).max() <= 1e-9


def test_agents_open_loop_matches_matrix_exponential():
    import scipy.linalg
    rng = np.random.default_rng(4)
    A = rng.normal(0, 1, (2, 2))
    lap = build_laplacian(random_connected_topology(rng, 3))
    model = AgentModel(A=A, B=np.array([[1.0], [-1.0]]), K=np.zeros((1, 2)))
    x0 = rng.uniform(-1, 1, (3, 2))
    traj = simulate_agents(model, lap, x0, 1.0, 1e-3)
    propagator = scipy.linalg.expm(A)
    for node in range(3):
        assert np.abs(traj.states[-1, node] - propagator @ x0[node]).max() < 1e-6


def test_agents_manifold_invariance():
    rng = np.random.default_rng(6)
    A = rng.normal(0, 1, (2, 2))
    lap = build_laplacian(random_connected_topology(rng, 4))
    model = AgentModel(A=A, B=np.array([[1.0], [-1.0]]),
                       K=np.array([[0.4, 0.7]]), c=0.9)
    row = rng.normal(0, 1, 2)
    traj = simulate_agents(model, lap, np.tile(row, (4, 1)), 2.0, 1e-3)
    spread = (traj.states.max(axis=1) - traj.states.min(axis=1)).max()
    assert spread <= 1e-12 * max(1.0, np.abs(traj.states).max())


def test_agents_require_gain():
    model = AgentModel(A=np.eye(2), B=np.array([[1.0], [-1.0]]))
    with pytest.raises(PreconditionViolation):
        simulate_agents(model, PAIR_LAPLACIAN, np.zeros((2, 2)), 1.0, 1e-3)


# ── chaotic probe pieces ─────────────────────────────────────────────────────


def test_rossler_field_values():
    assert np.allclose(rossler_vector_field([0.0, 0.0, 0.0]), [0.0, 0.0, 0.2])
    assert np.allclose(rossler_vector_field([1.0, 1.0, 1.0]), [-2.0, 1.2, -5.8])
    assert np.allclose(rossler_vector_field([3.0, 0.0, 0.0]), [0.0, 3.0, 0.2])


def test_rossler_field_broadcasts():
    states = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
    out = rossler_vector_field(states)
    assert out.shape == (2, 3)
    assert np.allclose(out[1], [-2.0, 1.2, -5.8])


def test_three_oscillator_connection_eigenvalues():
    eps, delta = 0.7, np.sqrt(3.0)
    sys = build_three_oscillator(eps, delta, lambda s: np.zeros((3, 3)))
    eigs = np.linalg.eigvals(sys.connection)
    expected = np.array([0.0, -eps + 1j * delta, -eps - 1j * delta])
    for value in expected:
        assert np.abs(eigs - value).min() < 1e-12
    assert np.abs(sys.connection.sum(axis=1)).max() < 1e-15


def test_three_oscillator_uncoupled_limit():
    sys = build_three_oscillator(0.0, 0.0, lambda s: np.zeros((3, 3)))
    assert np.abs(sys.connection).max() == 0.0


def test_jacobian_split_matches_finite_differences():
    Phi1, Phi2 = rossler_jacobian_parts()
    rng = np.random.default_rng(14)
    eps = 1e-6
    for _ in range(100):
        s = rng.uniform(-10.0, 10.0, 3)
        J = Phi1 + Phi2(s)
        for col in range(3):
            step = np.zeros(3)
            step[col] = eps
            fd = (rossler_vector_field(s + step)
                  - rossler_vector_field(s - step)) / (2 * eps)
            assert np.abs(J[:, col] - fd).max() < 1e-5


def test_designed_coupling_matches_displayed_form():
    # formula case: kappa = +0.1 and a negative constant part yield the
    # matrix with entries -z/0.1 and -5 - x/0.1
    Phi1, Phi2 = rossler_jacobian_parts()
    spec = NonlinearCouplingSpec(Phi1=Phi1, Phi2=Phi2, Psi1=-5.0 * np.eye(3),
                                 kappa=0.1)
    M = design_nonlinear_coupling(spec)
    s = np.array([2.0, -1.0, 0.5])
    expected = np.array([
        [-5.0, 0.0, 0.0],
        [0.0, -5.0, 0.0],
        [-0.5 / 0.1, 0.0, -5.0 - 2.0 / 0.1],
    ])
    assert np.allclose(M(s), expected, atol=1e-14)


def test_designed_coupling_constant_limit():
    spec = NonlinearCouplingSpec(
        Phi1=np.zeros((3, 3)), Phi2=lambda s: np.zeros(np.shape(s)[:-1] + (3, 3)),
        Psi1=np.diag([-1.0, -2.0, -3.0]), kappa=1.0)
    M = design_nonlinear_coupling(spec)
    assert np.array_equal(M(np.ones(3)), np.diag([-1.0, -2.0, -3.0]))


def test_coupling_spec_validation():
    Phi1, Phi2 = rossler_jacobian_parts()
    with pytest.raises(PreconditionViolation):
        NonlinearCouplingSpec(Phi1=Phi1, Phi2=Phi2, Psi1=np.eye(3), kappa=0.0)


def test_manifold_invariance_nonlinear():
    sys = build_three_oscillator(0.5, np.sqrt(3.0),
                                 lambda s: -np.eye(3) * np.ones(np.shape(s)[:-1] + (1, 1)))
    row = np.array([1.0, 0.5, 0.2])
    traj = simulate_nonlinear(sys, np.tile(row, (3, 1)), 5.0, 1e-3)
    spread = (traj.states.max(axis=1) - traj.states.min(axis=1)).max()
    assert spread <= 1e-12 * max(1.0, np.abs(traj.states).max())
    # and each node follows the isolated flow: z stays positive-ish and
    # states remain bounded on the attractor
    assert np.abs(traj.states).max() < 50.0


def test_nonbroadcasting_coupling_falls_back_to_loop():
    # a coupling written with Python scalars requires the per-node path;
    # both paths must produce identical trajectories
    def scalar_coupling(state):
        z = float(state[2])
        x = float(state[0])
        return np.array([[-5.0, 0.0, 0.0],
                         [0.0, -5.0, 0.0],
                         [10.0 * z, 0.0, -5.0 + 10.0 * x]])

    def broadcast_coupling(state):
        state = np.asarray(state, dtype=float)
        out = np.zeros(state.shape[:-1] + (3, 3))
        out[..., 0, 0] = -5.0
        out[..., 1, 1] = -5.0
        out[..., 2, 0] = 10.0 * state[..., 2]
        out[..., 2, 2] = -5.0 + 10.0 * state[..., 0]
        return out

    rng = np.random.default_rng(21)
    x0 = np.ones((3, 3)) + rng.uniform(-0.5, 0.5, (3, 3))
    sys_a = build_three_oscillator(0.1, np.sqrt(3.0), scalar_coupling)
    sys_b = build_three_oscillator(0.1, np.sqrt(3.0), broadcast_coupling)
    traj_a = simulate_nonlinear(sys_a, x0, 1.0, 1e-3)
    traj_b = simulate_nonlinear(sys_b, x0, 1.0, 1e-3)
    assert np.array_equal(traj_a.states, traj_b.states)


def _scalar_rossler(state):
    x, y, z = (float(v) for v in state)
    return np.array([-(y + z), x + 0.2 * y, 0.2 + z * (x - 7.0)])


def _nonlinear_systems(fx):
    """Rossler nodes (a = b = 0.2, c = 7) under the designed and selector
    couplings, on a random zero-row-sum G, and through the per-node loop;
    the bare vector field keeps each on the numpy path."""
    eps, delta = 0.3, fx["delta"]
    designed = designed_rossler_coupling(eps, fx)
    selector = np.array(fx["selector_coupling"], dtype=float)

    def scalar_selector(state):
        float(state[0])         # rejects a stack of states: per-node loop
        return selector.copy()

    G = np.random.default_rng(31).normal(0.0, 0.3, (5, 5))
    G -= np.diag(G.sum(axis=1))
    probe = build_three_oscillator(eps, delta, designed)
    return {
        "designed": NonlinearNetworkSystem(rossler_vector_field, designed,
                                           probe.connection),
        "selector": NonlinearNetworkSystem(
            rossler_vector_field, _constant_coupling(selector),
            probe.connection),
        "random-G": NonlinearNetworkSystem(
            node_dynamics=rossler_vector_field, coupling_matrix_fn=designed,
            connection=G),
        "per-node": NonlinearNetworkSystem(
            node_dynamics=_scalar_rossler, coupling_matrix_fn=scalar_selector,
            connection=probe.connection),
    }


@pytest.mark.parametrize("case", ["designed", "selector", "random-G",
                                  "per-node"])
def test_nonlinear_simulator_equals_per_step_rk4(case):
    fx = load_fixture("rossler")
    sys = _nonlinear_systems(fx)[case]
    x0 = (np.array(fx["initial_center"], dtype=float)
          + np.random.default_rng(32).uniform(-1.0, 1.0, (sys.n_nodes, 3)))
    M, G = sys.coupling_matrix_fn, sys.connection

    def rhs(X):
        return (np.array([_scalar_rossler(x) for x in X])
                + G @ np.einsum("jab,jb->ja",
                                np.array([M(x) for x in X]), X))

    # at dt = 0.015 a one-ulp change of the evaluation order reaches the
    # recorded states far more often than at 1e-3; random-G diverges
    # there (from dt = 0.005 on)
    for dt in (1e-3,) if case == "random-G" else (1e-3, 0.015):
        traj = simulate_nonlinear(sys, x0, 300 * dt, dt)
        assert not traj.diverged, dt
        assert np.array_equal(traj.states, _rk4_loop(rhs, x0, 300, dt)), dt


def _float_probe_rk4(a, b, c, sent, G, x0, steps, dt):
    """Reference for the probe kernel: RK4 in Python floats of
    dx_i = F(x_i) + sum_j G_ij s_j, where s = sent(x) maps the 9 floats
    of a state to the 9 floats M(x_j) x_j that the nodes send."""
    G = G.tolist()

    def rhs(X):
        s = sent(X)
        sent_by = [s[3 * j:3 * j + 3] for j in range(3)]
        return [sum(G[i][j] * sent_by[j][r] for j in range(3)) + f
                for i, (x, y, z) in enumerate(zip(X[::3], X[1::3], X[2::3]))
                for r, f in enumerate((-(y + z), x + a * y,
                                       b + z * (x - c)))]

    h, sixth = 0.5 * dt, dt / 6.0
    X, out = x0.ravel().tolist(), [x0.ravel().tolist()]
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(steps):
            k1 = rhs(X)
            k2 = rhs([x + h * d for x, d in zip(X, k1)])
            k3 = rhs([x + h * d for x, d in zip(X, k2)])
            k4 = rhs([x + dt * d for x, d in zip(X, k3)])
            X = [x + sixth * (p + 2.0 * q + 2.0 * r + s)
                 for x, p, q, r, s in zip(X, k1, k2, k3, k4)]
            out.append(X)
    return np.array(out).reshape(-1, 3, 3)


def _closed_form_sent(Psi1, kappa):
    """What the designed coupling's nodes send, Psi1 x_j -
    (2/kappa)(0, 0, x_j z_j), since Phi2(x) x = (0, 0, 2 x z)."""
    P, k = Psi1.tolist(), 2.0 / kappa

    def sent(X):
        return [P[r][0] * x + P[r][1] * y + P[r][2] * z
                - (k * (x * z) if r == 2 else 0.0)
                for x, y, z in zip(X[::3], X[1::3], X[2::3]) for r in range(3)]

    return sent


def _matmul_sent(M):
    """What the nodes send under the coupling M, one node at a time:
    np.matmul of the stacked M(x_j) and x_j.  The kernel sums each
    M(x_j) x_j left to right, which rounds as this does whenever every
    row of M(x_j) has at most one nonzero entry, as the selector's does."""
    def sent(X):
        X = np.array(X).reshape(3, 3)
        return np.matmul(np.array([M(x) for x in X]),
                         X[:, :, None]).ravel().tolist()

    return sent


def _float_sent(M):
    """What the nodes send under the coupling M, one node at a time, as
    the kernel forms it: the entries of M(x_j) as Python floats, each
    row times x_j summed left to right."""
    def sent(X):
        return [r0 * x + r1 * y + r2 * z
                for x, y, z in zip(X[::3], X[1::3], X[2::3])
                for r0, r1, r2 in np.asarray(M(np.array([x, y, z]))).tolist()]

    return sent


def _constant_coupling(matrix):
    def coupling(state):
        return np.broadcast_to(matrix, np.shape(state)[:-1] + (3, 3)).copy()

    return coupling


def _state_dependent_per_node(state):
    x, y, z = (float(v) for v in state)     # rejects a stack of states
    return np.array([[-1.0, 0.2 * y, 0.0],
                     [0.0, -1.0, 0.1 * x],
                     [0.5 * z, 0.0, -1.0]])


# each coupling at dt = 0.015 and at a dt where its run overflows; the
# constant ones both as a callable and as the matrix itself
@pytest.mark.parametrize("case, dt", [
    ("selector", 0.015), ("selector", 0.25), ("dense", 0.015),
    ("dense", 0.03), ("per-node", 0.015), ("per-node", 0.03),
    ("selector-matrix", 0.015), ("selector-matrix", 0.25),
    ("dense-matrix", 0.015), ("dense-matrix", 0.03)])
def test_probe_kernel_equals_float_rk4(case, dt):
    # non-default a, b, c exercise every coefficient of the kernel's field
    a, b, c = 0.3, 0.1, 5.5
    selector = np.array(load_fixture("rossler")["selector_coupling"],
                        dtype=float)
    dense = np.random.default_rng(42).normal(0.0, 1.0, (3, 3))
    # the selector keeps its bits against np.matmul; the other couplings
    # are summed left to right, as the kernel sums them
    coupling, sent = {
        "selector": (_constant_coupling(selector),
                     _matmul_sent(_constant_coupling(selector))),
        "dense": (_constant_coupling(dense),
                  _float_sent(_constant_coupling(dense))),
        "per-node": (_state_dependent_per_node,
                     _float_sent(_state_dependent_per_node)),
        "selector-matrix": (selector,
                            _matmul_sent(_constant_coupling(selector))),
        "dense-matrix": (dense, _float_sent(_constant_coupling(dense))),
    }[case]
    x0 = np.ones((3, 3)) + np.random.default_rng(44).uniform(-0.5, 0.5,
                                                             (3, 3))
    traj = _assert_kernel_equals_float_rk4(
        build_three_oscillator(0.4, 0.9, coupling, a=a, b=b, c=c), sent, x0,
        dt)
    assert traj.diverged == (dt != 0.015)


def _assert_kernel_equals_float_rk4(probe, sent, x0, dt):
    """300 steps of the probe from x0 equal the reference bit for bit, up
    to where the reference turns non-finite."""
    a, b, c = probe.node_dynamics.args
    traj = simulate_nonlinear(probe, x0, 300 * dt, dt)
    ref = _float_probe_rk4(a, b, c, sent, probe.connection, x0, 300, dt)
    last = traj.times.shape[0]
    assert np.array_equal(traj.states, ref[:last])
    assert traj.diverged == (last < 301)
    assert traj.diverged == (not np.isfinite(ref[min(last, 300)]).all())
    return traj


@pytest.mark.parametrize("dt", [0.015, 0.02])
def test_designed_probe_equals_float_rk4_of_closed_form(dt):
    # a full Psi1, a positive kappa and non-default a, b, c exercise every
    # coefficient of the float kernel.  Steps this long let a one-ulp
    # change of the field reach the states; at dt = 0.02 the run
    # overflows and must stop where the reference turns non-finite
    rng = np.random.default_rng(41)
    Psi1 = rng.normal(0.0, 1.0, (3, 3))
    a, b, c, kappa = 0.3, 0.1, 5.5, 0.7
    Phi1, Phi2 = rossler_jacobian_parts(a=a, b=b, c=c)
    M = design_nonlinear_coupling(NonlinearCouplingSpec(
        Phi1=Phi1, Phi2=Phi2, Psi1=Psi1, kappa=kappa))
    probe = build_three_oscillator(0.4, 0.9, M, a=a, b=b, c=c)
    x0 = np.ones((3, 3)) + rng.uniform(-0.5, 0.5, (3, 3))
    traj = _assert_kernel_equals_float_rk4(
        probe, _closed_form_sent(Psi1, kappa), x0, dt)
    assert traj.diverged == (dt == 0.02)


def _probe_pair(eps, baseline=False):
    """The probe of the ``rossler`` fixture under its designed coupling,
    or its selector when baseline, once as build_three_oscillator builds
    it and once with the bare vector field, which keeps it on the numpy
    path."""
    fx = load_fixture("rossler")
    coupling = (_constant_coupling(np.array(fx["selector_coupling"]))
                if baseline else designed_rossler_coupling(eps, fx))
    probe = build_three_oscillator(eps, fx["delta"], coupling)
    return probe, NonlinearNetworkSystem(
        rossler_vector_field, probe.coupling_matrix_fn, probe.connection)


def test_probe_kernel_path_selection(monkeypatch):
    # every probe of build_three_oscillator takes the float kernel,
    # whatever its coupling and whatever real scalars give its a, b and c;
    # the bare vector field stays on numpy
    calls = []
    kernel = dynamics._integrate_probe
    monkeypatch.setattr(dynamics, "_integrate_probe",
                        lambda *args: calls.append(args) or kernel(*args))
    Phi1, Phi2 = rossler_jacobian_parts()
    designed, copied_phi2 = (design_nonlinear_coupling(NonlinearCouplingSpec(
        Phi1=Phi1, Phi2=phi2, Psi1=5.0 * np.eye(3), kappa=-0.3))
        for phi2 in (Phi2, lambda s: Phi2(s)))
    selector = _constant_coupling(
        np.array(load_fixture("rossler")["selector_coupling"]))
    probe = build_three_oscillator(0.3, 1.0, designed)
    expected = [
        (probe, 1),
        (build_three_oscillator(0.3, 1.0, copied_phi2), 1),
        (build_three_oscillator(0.3, 1.0, selector), 1),
        (build_three_oscillator(0.3, 1.0, _state_dependent_per_node), 1),
        (build_three_oscillator(0.3, 1.0, selector, a=np.float64(0.2)), 1),
        (NonlinearNetworkSystem(rossler_vector_field, designed,
                                probe.connection), 0),
        (NonlinearNetworkSystem(rossler_vector_field, selector,
                                probe.connection), 0),
        (build_three_oscillator(0.3, 1.0, designed, a=np.array(0.2)), 1),
        (build_three_oscillator(0.3, 1.0, selector, a=np.array(0.2)), 1),
        (build_three_oscillator(0.3, 1.0, -np.eye(3)), 1),
        (NonlinearNetworkSystem(rossler_vector_field, -np.eye(3),
                                probe.connection), 0),
    ]
    x0 = np.ones((3, 3))
    for sys, taken in expected:
        calls.clear()
        simulate_nonlinear(sys, x0, 0.01, 1e-3)
        assert len(calls) == taken, sys


@pytest.mark.parametrize("name, value", [
    ("a", float("nan")), ("b", np.inf), ("c", -np.inf), ("a", "x"),
    ("b", 1.0 + 2.0j), ("c", None), ("a", np.array([0.2])),
    ("eps", "x"), ("delta", None), ("eps", np.array([0.1, 0.2]))],
    ids=["a-nan", "b-inf", "c-neg-inf", "a-str", "b-complex", "c-none",
         "a-1d", "eps-str", "delta-none", "eps-1d"])
def test_probe_parameter_that_is_not_a_finite_real_is_invalid(name, value):
    # a NaN a once ran as "diverged at step 0", a string a ended in a raw
    # numpy UFuncTypeError, a string eps in a raw TypeError and a 1-D eps
    # in a DimensionMismatch about a (3, 3, 2) connection
    params = {"eps": 0.3, "delta": 1.0, name: value}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInput,
                           match="^eps, delta, a, b and c must be finite "
                                 "reals"):
            build_three_oscillator(
                coupling_matrix_fn=_constant_coupling(-np.eye(3)), **params)


def test_probe_parameters_are_stored_as_floats():
    probe = build_three_oscillator(0.3, 1.0, _constant_coupling(-np.eye(3)),
                                   a=np.array(0.2), b=np.float32(0.25), c=7)
    a, b, c = probe.node_dynamics.args
    assert (a, b, c) == (0.2, 0.25, 7.0)
    assert all(type(v) is float for v in (a, b, c))


def _wide_node(state):
    return -np.asarray(state, dtype=float)


@pytest.mark.parametrize("width", [2, 4])
def test_node_width_that_does_not_fit_is_dimension_mismatch(width):
    # once numpy's "could not broadcast input array from shape (3,3) into
    # shape (2,2)"; the Rossler field needs 3 components, and a coupling
    # or node dynamic whose one-node output does not fit fails at set-up
    designed = designed_rossler_coupling(0.3)
    connection = build_three_oscillator(0.3, 1.0, designed).connection
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DimensionMismatch, match="3 components"):
            rossler_vector_field(np.ones((3, width)))
        for sys in (build_three_oscillator(0.3, 1.0, designed),
                    build_three_oscillator(0.3, 1.0, _constant_coupling(
                        -np.eye(3))),
                    NonlinearNetworkSystem(_wide_node, designed, connection)):
            with pytest.raises(DimensionMismatch):
                simulate_nonlinear(sys, np.ones((3, width)), 0.01, 1e-3)
        # a coupling matrix whose width does not fit x0, on the float
        # kernel's system and on the numpy path
        for sys, x0 in (
                (build_three_oscillator(0.3, 1.0, -np.eye(width)),
                 np.ones((3, 3))),
                (NonlinearNetworkSystem(_wide_node, -np.eye(3), connection),
                 np.ones((3, width))),
                (NonlinearNetworkSystem(_wide_node, -np.eye(width),
                                        connection), np.ones((3, 3)))):
            with pytest.raises(DimensionMismatch, match="x0 must be"):
                simulate_nonlinear(sys, x0, 0.01, 1e-3)
        # 3-wide states whose coupling maps one node to a matrix of another
        # size, on the float kernel and on the numpy path
        for sys in (build_three_oscillator(0.3, 1.0, lambda s: np.eye(2)),
                    NonlinearNetworkSystem(rossler_vector_field,
                                           lambda s: np.eye(2), connection),
                    NonlinearNetworkSystem(_wide_node, lambda s: np.eye(width),
                                           connection)):
            with pytest.raises(DimensionMismatch, match="one node's output"):
                simulate_nonlinear(sys, np.ones((3, 3)), 0.01, 1e-3)


def _assert_kernel_matches_numpy_path(probe, plain):
    fx = load_fixture("rossler")
    x0 = (np.array(fx["initial_center"], dtype=float)
          + np.random.default_rng(33).uniform(-1.0, 1.0, (3, 3)))
    fast, slow = (simulate_nonlinear(sys, x0, 0.3, 1e-3)
                  for sys in (probe, plain))
    assert fast.times.shape == slow.times.shape == (301,)
    assert not fast.diverged and not slow.diverged
    assert (np.abs(fast.states - slow.states)
            <= 1e-12 * np.maximum(1.0, np.abs(slow.states))).all()


@pytest.mark.parametrize("eps", [0.1, 0.3, 3.0])
def test_designed_probe_kernel_matches_numpy_path(eps):
    _assert_kernel_matches_numpy_path(*_probe_pair(eps))


@pytest.mark.parametrize("eps", [0.1, 0.3, 3.0])
def test_selector_probe_kernel_matches_numpy_path(eps):
    _assert_kernel_matches_numpy_path(*_probe_pair(eps, baseline=True))


def _assert_diverges_at_the_same_step_on_both_paths(probe, plain):
    # at dt = 0.5 the probe overflows within a few steps
    x0 = np.ones((3, 3)) + np.random.default_rng(34).uniform(-0.5, 0.5, (3, 3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fast, slow = (simulate_nonlinear(sys, x0, 5.0, 0.5)
                      for sys in (probe, plain))
    assert fast.diverged and slow.diverged
    assert fast.times.shape[0] < 11
    assert np.array_equal(fast.times, slow.times)
    assert np.isfinite(fast.states).all()


def test_designed_probe_diverges_at_the_same_step_on_both_paths():
    _assert_diverges_at_the_same_step_on_both_paths(
        *_probe_pair(load_fixture("rossler")["eps_weak"]))


def test_selector_probe_diverges_at_the_same_step_on_both_paths():
    _assert_diverges_at_the_same_step_on_both_paths(
        *_probe_pair(load_fixture("rossler")["eps_weak"], baseline=True))


@pytest.mark.parametrize("eps", [0.1, 0.3, 3.0])
def test_matrix_probe_kernel_matches_numpy_path(eps):
    # the fixture's selector and a dense matrix; on the numpy path the
    # matrix multiplies the stack of states directly
    fx = load_fixture("rossler")
    for M in (np.array(fx["selector_coupling"], dtype=float),
              np.random.default_rng(36).normal(0.0, 1.0, (3, 3))):
        probe = build_three_oscillator(eps, fx["delta"], M)
        _assert_kernel_matches_numpy_path(probe, NonlinearNetworkSystem(
            rossler_vector_field, M, probe.connection))


def test_rossler_baseline_passes_the_selector_matrix(monkeypatch):
    # reproduce rossler-baseline couples through the selector matrix and
    # keeps the states of the probe built with lambda state: selector
    systems = []
    monkeypatch.setattr(
        scenarios, "simulate_nonlinear",
        lambda sys, *args: systems.append(sys) or simulate_nonlinear(
            sys, *args))
    traj = run_rossler(baseline=True, t_end=2.0).trajectories["baseline"]
    fx = load_fixture("rossler")
    selector = np.array(fx["selector_coupling"], dtype=float)
    sys, = systems
    assert np.array_equal(sys.coupling_matrix_fn, selector)
    rng = np.random.default_rng(scenarios.DEFAULT_SEED)
    x0 = (np.array(fx["initial_center"])
          + rng.uniform(-fx["initial_spread"], fx["initial_spread"], (3, 3)))
    callable_probe = build_three_oscillator(
        fx["eps_weak"], fx["delta"], lambda state: selector,
        a=fx["a"], b=fx["b"], c=fx["c"])
    assert traj.times.shape == (2001,)
    assert np.array_equal(
        traj.states, simulate_nonlinear(callable_probe, x0, 2.0).states)


@pytest.mark.parametrize("matrix, error", [
    (np.ones(3), DimensionMismatch), (np.ones((3, 3, 3)), DimensionMismatch),
    (np.ones((3, 2)), DimensionMismatch),
    ([[1.0, 0.0, 0.0], [0.0, float("nan"), 0.0], [0.0, 0.0, 1.0]],
     InvalidInput),
    ([[1.0, 0.0], [0.0, np.inf]], InvalidInput)],
    ids=["vector", "stack", "non-square", "nan", "inf"])
def test_malformed_coupling_matrix_fails_at_construction(matrix, error):
    connection = build_three_oscillator(0.3, 1.0, -np.eye(3)).connection
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match="coupling matrix"):
            build_three_oscillator(0.3, 1.0, matrix)
        with pytest.raises(error, match="coupling matrix"):
            NonlinearNetworkSystem(rossler_vector_field, matrix, connection)


def test_coupling_matrix_is_stored_as_floats():
    probe = build_three_oscillator(0.3, 1.0, [[0, 0, 0], [0, 1, 0],
                                              [0, 0, 0]])
    M = probe.coupling_matrix_fn
    assert isinstance(M, np.ndarray) and M.dtype == np.float64
    assert M.shape == (3, 3) and M[1, 1] == 1.0 and M.sum() == 1.0


def test_probe_kernel_hands_coupling_a_fresh_state():
    # a coupling that keeps its argument never sees it change: each stage
    # gets an array of its own
    kept = []

    def keeping(state):
        kept.append((state, np.array(state)))
        return _constant_coupling(-np.eye(3))(state)

    x0 = np.ones((3, 3)) + np.random.default_rng(35).uniform(-0.5, 0.5, (3, 3))
    simulate_nonlinear(build_three_oscillator(0.3, 1.0, keeping), x0, 0.01,
                       1e-3)
    # _batched_or_loop's probe (once batched, once per node), then 4 per step
    assert len(kept) == 4 + 4 * 10
    assert len({id(state) for state, _ in kept}) == len(kept)
    assert all(np.array_equal(state, copy) for state, copy in kept)


class _CouplingFailure(Exception):
    pass


def test_probe_kernel_propagates_coupling_exception():
    # a coupling that raises mid-run ends the run with its own exception
    failure = _CouplingFailure("coupling failed")
    calls = []

    def failing(state):
        calls.append(None)
        if len(calls) > 20:
            raise failure
        return _constant_coupling(-np.eye(3))(state)

    with pytest.raises(_CouplingFailure) as raised:
        simulate_nonlinear(build_three_oscillator(0.3, 1.0, failing),
                           np.ones((3, 3)), 1.0, 1e-3)
    assert raised.value is failure
    assert len(calls) == 21


def test_finite_state_with_overflowing_sum_is_not_diverged():
    still = NonlinearNetworkSystem(
        node_dynamics=lambda s: np.zeros(np.shape(s)),
        coupling_matrix_fn=lambda s: np.zeros(np.shape(s) + (2,)),
        connection=np.zeros((2, 2)))
    x0 = np.array([[1e308, 1e308], [0.0, -1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = simulate_nonlinear(still, x0, 0.01, 1e-3)
    assert not traj.diverged and traj.times.shape[0] == 11
    assert (traj.states == x0).all()


def test_misbroadcasting_dynamics_falls_back_to_loop():
    # a node dynamic that returns the right shape but mixes nodes when
    # called on the whole stack must be evaluated node by node, also when
    # the mixing is far below numpy's default relative tolerance
    def coupling(state):
        return np.broadcast_to(-np.eye(3), np.shape(state)[:-1] + (3, 3))

    x0 = np.random.default_rng(22).uniform(-1.0, 1.0, (3, 3))
    connection = build_three_oscillator(0.1, 0.0, coupling).connection
    for weight in (0.1, 1e-7):
        def pooled(state):
            state = np.asarray(state, dtype=float)
            return -state + weight * np.sum(state)

        def per_node(state):
            state = np.asarray(state, dtype=float)
            return -state + weight * np.sum(state, axis=-1, keepdims=True)

        trajs = [simulate_nonlinear(NonlinearNetworkSystem(
            node_dynamics=f, coupling_matrix_fn=coupling,
            connection=connection), x0, 1.0, 1e-3)
            for f in (pooled, per_node)]
        assert np.allclose(trajs[0].states, trajs[1].states, rtol=0.0,
                           atol=1e-12), weight


# ── synchronization metrics ──────────────────────────────────────────────────


def test_sync_error_identical_rows():
    traj = _scalar_consensus()
    sys = LinearNetworkSystem(A=np.zeros((1, 1)), H_eff=np.array([[-1.0]]),
                              sigma=1.0, laplacian=PAIR_LAPLACIAN)
    same = simulate_linear(sys, np.array([[0.7], [0.7]]), 1.0, 1e-3)
    report = sync_error(same, 1e-3)
    assert report.sync_time == 0.0 and report.converged
    assert report.error_series.max() <= 1e-12


def test_sync_error_constant_distinct_states():
    sys = LinearNetworkSystem(A=np.zeros((1, 1)), H_eff=np.array([[0.0]]),
                              sigma=1.0, laplacian=PAIR_LAPLACIAN)
    traj = simulate_linear(sys, np.array([[1.0], [0.0]]), 1.0, 1e-2)
    report = sync_error(traj, 1e-3)
    assert not report.converged and report.sync_time is None
    assert np.allclose(report.error_series, 1.0)


def test_sync_time_matches_exact_crossing():
    traj = _scalar_consensus(t_end=5.0)
    report = sync_error(traj, 1e-3)
    assert report.converged
    assert abs(report.sync_time - np.log(1000.0) / 2.0) < 5e-3


def test_component_settle_times_orders_components():
    # two components decaying at rates 2 and 6: the faster one settles first
    A = np.zeros((2, 2))
    H = np.diag([-1.0, -3.0])
    sys = LinearNetworkSystem(A=A, H_eff=H, sigma=1.0, laplacian=PAIR_LAPLACIAN)
    traj = simulate_linear(sys, np.array([[1.0, 1.0], [0.0, 0.0]]), 6.0, 1e-3)
    slow, fast = component_settle_times(traj, 1e-3)
    assert fast < slow


@st.composite
def _metric_trajectories(draw):
    shape = (draw(st.integers(1, 200)), draw(st.integers(1, 5)),
             draw(st.integers(1, 4)))
    values = st.floats(-10.0, 10.0)
    states = draw(hnp.arrays(float, shape, elements=values))
    spread = None
    if draw(st.booleans()):
        spread = draw(hnp.arrays(float, (shape[0], shape[2]),
                                 elements=st.floats(0.0, 20.0)))
    return Trajectory(times=np.arange(shape[0], dtype=float), states=states,
                      spread=spread)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(traj=_metric_trajectories(), data=st.data())
def test_converged_run_settles_in_every_component(traj, data):
    # tol drawn freely or equal to a spread value, where < and >= split
    spreads = dynamics._node_spread(traj)
    tol = data.draw(st.floats(0.0, 20.0, exclude_min=True)
                    | st.sampled_from(spreads[spreads > 0].tolist() or [1.0]))
    report = sync_error(traj, tol)
    if report.converged:
        for t in component_settle_times(traj, tol):
            assert t is not None and t <= report.sync_time


NAN = float("nan")


@pytest.mark.parametrize("call", [
    lambda: sync_error(_scalar_consensus(), NAN),
    lambda: component_settle_times(_scalar_consensus(), NAN),
    lambda: LinearNetworkSystem(A=np.zeros((1, 1)), H_eff=-np.eye(1),
                                sigma=NAN, laplacian=PAIR_LAPLACIAN),
    lambda: verify(np.zeros((1, 1)), -np.eye(1), NAN,
                   spectrum(PAIR_LAPLACIAN)),
    lambda: AgentModel(A=np.eye(2), B=np.array([[1.0], [-1.0]]), c=NAN),
    lambda: design_undirected(decompose(np.eye(2)), NAN),
    lambda: design_undirected(decompose(np.eye(2)), 1.0, margin=NAN),
    lambda: design_undirected(decompose(np.eye(2)), 1.0, poles=[NAN, NAN]),
    lambda: design_directed(decompose(np.eye(2)), complex(NAN, 0.0), 0.0,
                            3.0),
    lambda: design_undirected(decompose(np.eye(2)), 1.0, sigma=0.0),
    lambda: design_undirected(decompose(np.eye(2)), 1.0, margin=np.inf),
], ids=["sync_error", "component_settle_times", "LinearNetworkSystem",
        "verify", "AgentModel", "lambda2", "margin",
        "poles", "directed_lambda2", "design-sigma-zero",
        "design-margin-inf"])
def test_scalar_checks_reject_nan(call):
    with pytest.raises(PreconditionViolation):
        call()


def _three_oscillator(G=None):
    Phi1, Phi2 = rossler_jacobian_parts()
    spec = NonlinearCouplingSpec(Phi1=Phi1, Phi2=Phi2, Psi1=np.eye(3),
                                 kappa=1.0)
    sys = build_three_oscillator(0.1, 0.0, design_nonlinear_coupling(spec))
    if G is None:
        return sys
    return NonlinearNetworkSystem(sys.node_dynamics, sys.coupling_matrix_fn,
                                  G)


def _with_nan(shape, index=0):
    a = np.zeros(shape)
    a.flat[index] = NAN
    return a


def _empty_trajectory():
    return Trajectory(times=np.zeros(0), states=np.zeros((0, 2, 1)))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call, error", [
    (lambda: LinearNetworkSystem(A=_with_nan((2, 2)), H_eff=-np.eye(2),
                                 sigma=1.0, laplacian=PAIR_LAPLACIAN),
     InvalidInput),
    (lambda: LinearNetworkSystem(A=np.zeros((1, 1)),
                                 H_eff=[[-np.inf]], sigma=1.0,
                                 laplacian=PAIR_LAPLACIAN), InvalidInput),
    (lambda: LinearNetworkSystem(A=np.zeros((1, 1)), H_eff=-np.eye(1),
                                 sigma=np.inf, laplacian=PAIR_LAPLACIAN),
     PreconditionViolation),
    (lambda: NonlinearCouplingSpec(*rossler_jacobian_parts(), np.eye(3),
                                   kappa=NAN), PreconditionViolation),
    (lambda: NonlinearCouplingSpec(*rossler_jacobian_parts(), np.eye(3),
                                   kappa=np.inf), PreconditionViolation),
    (lambda: NonlinearCouplingSpec(*rossler_jacobian_parts(), np.eye(3),
                                   kappa=-np.inf), PreconditionViolation),
    (lambda: NonlinearCouplingSpec(*rossler_jacobian_parts(),
                                   _with_nan((3, 3), 4), kappa=1.0),
     InvalidInput),
    (lambda: _three_oscillator(G=_with_nan((3, 3))), InvalidInput),
    (lambda: _three_oscillator(G=[[1e308, 1e308, -1e308]] * 3),
     PreconditionViolation),
    (lambda: simulate_linear(
        LinearNetworkSystem(A=np.zeros((1, 1)), H_eff=-np.eye(1), sigma=1.0,
                            laplacian=PAIR_LAPLACIAN),
        [[NAN], [0.0]], 1.0, 0.1), InvalidInput),
    (lambda: simulate_linear(
        LinearNetworkSystem(A=np.zeros((2, 2)), H_eff=-np.eye(2), sigma=1.0,
                            laplacian=PAIR_LAPLACIAN),
        np.zeros((2, 3)), 1.0, 0.1), DimensionMismatch),
    (lambda: simulate_agents(
        AgentModel(A=np.zeros((1, 1)), B=np.eye(1), K=np.eye(1)),
        PAIR_LAPLACIAN, [[0.0], [np.inf]], 1.0, 0.1), InvalidInput),
    (lambda: simulate_nonlinear(_three_oscillator(), _with_nan((3, 3), 5),
                                1.0, 0.1), InvalidInput),
    (lambda: AgentModel(A=_with_nan((1, 1)), B=np.eye(1)), InvalidInput),
    (lambda: AgentModel(A=np.zeros((1, 1)), B=[[np.inf]]), InvalidInput),
    (lambda: AgentModel(A=np.zeros((1, 1)), B=np.eye(1),
                        K=_with_nan((1, 1))), InvalidInput),
    (lambda: AgentModel(A=np.zeros((1, 1)), B=np.eye(1), K=np.eye(1),
                        c=np.inf), PreconditionViolation),
    (lambda: ModalCouplingSpec(entries=[NAN]), InvalidInput),
    (lambda: ModalCouplingSpec(entries=[-np.inf]), InvalidInput),
    (lambda: CouplingMatrices(H_eff=[[NAN]]), InvalidInput),
    (lambda: CouplingMatrices(H_eff=[[np.inf]]), InvalidInput),
    (lambda: decompose([[NAN]]), InvalidInput),
    (lambda: verify([[NAN]], [[-1.0]], 1.0, spectrum(PAIR_LAPLACIAN)),
     InvalidInput),
    (lambda: pseudo_inverse([[NAN]]), InvalidInput),
    (lambda: gain_from_h([[NAN], [1.0]], np.eye(2)), InvalidInput),
    (lambda: recovery_residual([[1.0]], [[1.0]], [[NAN]]), InvalidInput),
    (lambda: controllability([[NAN]], [[1.0]]), InvalidInput),
    (lambda: sync_error(_scalar_consensus(), np.inf), PreconditionViolation),
    (lambda: Trajectory(times=np.arange(2.0), states=np.zeros((2, 3))),
     DimensionMismatch),
    (lambda: sync_error(_empty_trajectory(), 1e-3), PreconditionViolation),
    (lambda: component_settle_times(_empty_trajectory(), 1e-3),
     PreconditionViolation),
    (lambda: rms_amplitude(_empty_trajectory()), PreconditionViolation),
], ids=["A-nan", "H_eff-inf", "sigma-inf", "kappa-nan", "kappa-inf",
        "kappa-neg-inf", "Psi1-nan", "connection-nan",
        "connection-row-sum-overflows", "linear-x0-nan", "linear-x0-shape",
        "agents-x0-inf", "nonlinear-x0-nan", "agent-A-nan", "agent-B-inf",
        "agent-K-nan", "agent-c-inf", "modal-entry-nan",
        "modal-entry-neg-inf", "coupling-H_eff-nan", "coupling-H_eff-inf",
        "decompose-A-nan", "verify-A-nan", "pseudo_inverse-nan",
        "gain_from_h-B-nan", "recovery_residual-K-nan",
        "controllability-A-nan", "sync_error-tol-inf", "trajectory-2d",
        "sync_error-empty", "settle-times-empty", "rms-empty"])
def test_non_finite_inputs_rejected_without_warning(call, error):
    with pytest.raises(error):
        call()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("matrix", [
    1j * np.eye(3), "x", [[1.0, 0.0, 0.0], [0.0, 1.0], [0.0, 0.0, 1.0]]],
    ids=["complex", "string", "ragged"])
def test_real_matrices_reject_complex_non_numeric_and_ragged(matrix):
    # a complex matrix would lose its imaginary part in a cast to float
    connection = build_three_oscillator(0.3, 1.0, -np.eye(3)).connection
    with pytest.raises(InvalidInput, match="coupling matrix"):
        NonlinearNetworkSystem(rossler_vector_field, matrix, connection)
    with pytest.raises(InvalidInput, match="A and H_eff"):
        LinearNetworkSystem(A=matrix, H_eff=-np.eye(3), sigma=1.0,
                            laplacian=PAIR_LAPLACIAN)


def test_real_matrices_accept_numeric_object_arrays():
    # object arrays of floats and of Fractions cast to float as before
    from fractions import Fraction
    for A in (np.array([[0.5, 0.0], [0.0, -1.0]], dtype=object),
              [[Fraction(1, 2), 0], [0, Fraction(-1)]]):
        sys = LinearNetworkSystem(A=A, H_eff=-np.eye(2), sigma=1.0,
                                  laplacian=PAIR_LAPLACIAN)
        assert sys.A.dtype == float
        assert np.array_equal(sys.A, np.diag([0.5, -1.0]))



def test_sync_report_dict_schema():
    report = sync_error(_scalar_consensus(t_end=5.0), 1e-3)
    payload = sync_report_dict(report)
    assert set(payload) == {"sync_time", "converged", "tol", "final_error"}


# ── integrator sanity ────────────────────────────────────────────────────────


def test_step_halving_consistency_linear():
    rng = np.random.default_rng(33)
    A = rng.normal(0, 1, (3, 3))
    lap = build_laplacian(random_connected_topology(rng, 4))
    sys = LinearNetworkSystem(A=A, H_eff=-2.0 * np.eye(3), sigma=1.0,
                              laplacian=lap)
    x0 = rng.uniform(-1, 1, (4, 3))
    full = simulate_linear(sys, x0, 3.0, 1e-3)
    half = simulate_linear(sys, x0, 3.0, 5e-4)
    assert relative_final_state_change(full, half) <= 1e-5


def test_tail_log_slope_matches_slowest_transverse_mode():
    # 3-node path, scalar nodes, H_eff = -1: transverse rates are
    # -lambda_k in {-1, -3}; the error tail decays like e^(-t)
    lap = build_laplacian(
        random_connected_topology(np.random.default_rng(0), 3))
    L = np.array([[1., -1., 0.], [-1., 2., -1.], [0., -1., 1.]])
    lap = Laplacian(L)
    sys = LinearNetworkSystem(A=np.zeros((1, 1)), H_eff=np.array([[-1.0]]),
                              sigma=1.0, laplacian=lap)
    x0 = np.array([[0.9], [-0.4], [0.1]])
    traj = simulate_linear(sys, x0, 9.0, 1e-3)
    report = sync_error(traj, 1e-12)
    tail = slice(2 * traj.times.shape[0] // 3, traj.times.shape[0])
    slope = np.polyfit(traj.times[tail], np.log(report.error_series[tail]), 1)[0]
    assert abs(slope - (-1.0)) <= 0.2


def test_trajectory_csv_round_trip(tmp_path):
    traj = _scalar_consensus(t_end=0.01)
    path = tmp_path / "trajectory.csv"
    write_trajectory_csv(traj, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "node", "x1"]
    assert len(rows) == 1 + traj.times.shape[0] * 2
    t_back = float(rows[1][0])
    x_back = float(rows[1][2])
    assert t_back == traj.times[0] and x_back == traj.states[0, 0, 0]
    assert rows[1][1] == "1" and rows[2][1] == "2"


def _reference_csv(traj, path):
    """Reference writer: one csv.writer row per time sample and node, each
    value formatted by repr(float(v))."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "node"]
                        + [f"x{i + 1}" for i in range(traj.node_dim)])
        for t_idx in range(traj.times.shape[0]):
            t = repr(float(traj.times[t_idx]))
            for node in range(traj.n_nodes):
                writer.writerow(
                    [t, node + 1]
                    + [repr(float(v)) for v in traj.states[t_idx, node]])


def _assert_csv_matches_reference(traj, tmp_path):
    write_trajectory_csv(traj, tmp_path / "fast.csv")
    assert_no_child_left()
    _reference_csv(traj, tmp_path / "reference.csv")
    assert ((tmp_path / "fast.csv").read_bytes()
            == (tmp_path / "reference.csv").read_bytes())


_CSV_SPECIALS = [-0.0, 5e-324, float("inf"), float("-inf"), float("nan"),
                 1e16, 1e-5, 1.2345678901234567e17]


# the writer tests below run again with the file split over 1, 2 and 3
# processes (a ``*_per_process_count`` test each)
@pytest.fixture(params=[1, 2, 3], ids=["1-process", "2-processes",
                                        "3-processes"])
def forced_processes(request, monkeypatch):
    force_csv_processes(monkeypatch, request.param)


_CSV_SHAPES = pytest.mark.parametrize("n_steps, n_nodes, node_dim", [
    (1, 1, 1),
    # two full chunks of 682 samples and a partial one
    (2 * (_CHUNK_ELEMENTS // 6) + 5, 3, 2),
    # more entries per sample than the chunk budget: one sample a chunk
    (3, 65, 64),
    (2, 0, 3),
], ids=["single-entry", "partial-last-chunk", "sample-above-budget",
        "no-nodes"])


@_CSV_SHAPES
def test_trajectory_csv_bytes_match_csv_writer(tmp_path, n_steps, n_nodes,
                                               node_dim):
    rng = np.random.default_rng(n_steps * n_nodes * node_dim)
    states = rng.standard_normal((n_steps, n_nodes, node_dim)) * 10.0 ** (
        rng.integers(-20, 20, size=(n_steps, n_nodes, node_dim)))
    flat = states.reshape(-1)
    flat[rng.permutation(flat.size)[:len(_CSV_SPECIALS)]] = (
        _CSV_SPECIALS[:flat.size])
    times = np.arange(n_steps) * 1e-3
    times[-1] = _CSV_SPECIALS[(n_steps - 1) % len(_CSV_SPECIALS)]
    _assert_csv_matches_reference(Trajectory(times=times, states=states),
                                  tmp_path)


@_CSV_SHAPES
def test_trajectory_csv_bytes_match_csv_writer_per_process_count(
        tmp_path, n_steps, n_nodes, node_dim, forced_processes):
    test_trajectory_csv_bytes_match_csv_writer(tmp_path, n_steps, n_nodes,
                                               node_dim)


@pytest.mark.parametrize("dtype", [np.int64, np.float32])
def test_non_double_trajectory_csv_bytes_match_csv_writer(tmp_path, dtype):
    # values are written as floats whatever the arrays' dtype
    states = np.linspace(-2.7, 2.7, 12).reshape(2, 3, 2).astype(dtype)
    traj = Trajectory(times=np.arange(2).astype(dtype), states=states)
    _assert_csv_matches_reference(traj, tmp_path)


def test_diverged_trajectory_csv_bytes_match_csv_writer(tmp_path):
    sys = LinearNetworkSystem(A=np.array([[80.0]]), H_eff=np.array([[-1e-6]]),
                              sigma=1.0, laplacian=PAIR_LAPLACIAN)
    traj = simulate_linear(sys, np.array([[1.0], [2.0]]), 20.0, 1e-2)
    assert traj.diverged
    _assert_csv_matches_reference(traj, tmp_path)


def test_diverged_trajectory_csv_bytes_match_csv_writer_per_process_count(
        tmp_path, forced_processes):
    test_diverged_trajectory_csv_bytes_match_csv_writer(tmp_path)


# bit patterns hypothesis mixes into the arbitrary ones: +-0, the
# smallest and largest subnormals, +-inf, quiet, signalling and negative
# NaNs with payloads, the largest finite double
_SPECIAL_BITS = [0x0, 0x8000000000000000, 0x1, 0x000FFFFFFFFFFFFF,
                 0x7FF0000000000000, 0xFFF0000000000000,
                 0x7FF8000000000000, 0x7FF0000000000001,
                 0xFFF8DEADBEEF0001, 0x7FEFFFFFFFFFFFFF]


@st.composite
def _bit_pattern_trajectories(draw):
    n_nodes = draw(st.integers(0, 7))
    node_dim = draw(st.integers(1, 6))
    chunk = max(1, _CHUNK_ELEMENTS // max(1, n_nodes * node_dim))
    if chunk <= 1500 and draw(st.booleans()):
        n_steps = chunk * draw(st.integers(1, 1500 // chunk))
    else:
        n_steps = draw(st.integers(1, 1500))
    pool = np.array(draw(st.lists(
        st.sampled_from(_SPECIAL_BITS) | st.integers(0, 2**64 - 1),
        min_size=1, max_size=16)), dtype=np.uint64)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = n_steps * (1 + n_nodes * node_dim)
    bits = rng.integers(0, 2**64, size=size, dtype=np.uint64)
    mixed = rng.random(size) < 0.5
    bits[mixed] = rng.choice(pool, size=int(mixed.sum()))
    values = bits.view(np.float64)
    return Trajectory(times=values[:n_steps],
                      states=values[n_steps:].reshape(n_steps, n_nodes,
                                                      node_dim))


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(traj=_bit_pattern_trajectories())
def test_trajectory_csv_bytes_match_reference_on_bit_patterns(tmp_path,
                                                              traj):
    _assert_csv_matches_reference(traj, tmp_path)


def test_trajectory_csv_bit_patterns_per_process_count(
        tmp_path, forced_processes):
    test_trajectory_csv_bytes_match_reference_on_bit_patterns(tmp_path)


def _assert_slots_match_repr(values):
    # the formatter's slots, NUL bytes deleted, against ",repr(v)" each
    values = np.ascontiguousarray(values, dtype=float)
    text = artifacts._format_slots(values).tobytes().translate(None, b"\0")
    assert text.split(b",")[1:] == [repr(v).encode()
                                    for v in values.tolist()]


def _with_neighbours(values):
    values = np.asarray(values, dtype=float)
    return np.concatenate([values, np.nextafter(values, -np.inf),
                           np.nextafter(values, np.inf)])


def test_value_slots_match_repr_on_powers_of_two_and_ten():
    # every +-2^k, subnormals included, and its upper neighbour (whose
    # interval is regular where 2^k's is not); 1e-323 ... 1e308 and theirs
    powers = 2.0 ** np.arange(-1074, 1024)
    powers = np.concatenate([powers, np.nextafter(powers, np.inf)])
    _assert_slots_match_repr(np.concatenate([powers, -powers]))
    tens = _with_neighbours([float(f"1e{k}") for k in range(-323, 309)])
    _assert_slots_match_repr(np.concatenate([tens, -tens]))


def test_value_slots_match_repr_at_the_layout_switches():
    # repr turns positional at 1e-4 and exponential at 1e16, so the
    # decimal-point position moves through each side of 1e-5, 1e-4, 1e16
    # and 1e17, one ulp apart; integers around 2^53, where the 17th digit
    # stops being exact
    switches = _with_neighbours([1e-5, 1e-4, 1e16, 1e17, 9.999999999999999e-5,
                                 9999999999999998.0])
    integers = 2.0 ** 53 + np.arange(-2000, 2001)
    values = np.concatenate([switches, integers, 10 * integers,
                             np.array(_CSV_SPECIALS)])
    _assert_slots_match_repr(np.concatenate([values, -values]))


def test_value_slots_match_repr_on_random_bit_patterns():
    bits = np.random.default_rng(28).integers(0, 2**64, 1_000_000,
                                              dtype=np.uint64)
    _assert_slots_match_repr(bits.view(np.float64))


def test_import_leaves_the_formatter_tables_unbuilt():
    # the tables are built by the first CSV write, not by ``import netsync``
    src = os.path.dirname(os.path.dirname(artifacts.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import netsync, netsync.artifacts as a; "
         "print(a._CSV_TABLES is None)"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0 and proc.stdout == "True\n"


def test_trajectory_csv_memory_is_bounded(tmp_path):
    # 100,000 rows, about 7 MB of text: this process holds one chunk of it
    rng = np.random.default_rng(5)
    traj = Trajectory(times=1e-3 * np.arange(20_000),
                      states=rng.standard_normal((20_000, 5, 3)))
    tracemalloc.start()
    try:
        write_trajectory_csv(traj, tmp_path / "trajectory.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, f"peak {peak} bytes"


def test_trajectory_csv_memory_is_bounded_per_process_count(
        tmp_path, forced_processes):
    test_trajectory_csv_memory_is_bounded(tmp_path)


@pytest.mark.parametrize("cpus, min_chunks, n_chunks, processes", [
    (1, 1, 40, 1),
    (2, 8, 40, 2),
    (3, 8, 40, 3),
    (8, 8, 40, 5),
    (4, 8, 15, 1),
    (4, 8, 16, 2),
], ids=["one-cpu", "two-cpus", "three-cpus", "capped-by-size",
        "below-threshold", "at-threshold"])
def test_trajectory_csv_process_count(tmp_path, monkeypatch, cpus,
                                      min_chunks, n_chunks, processes):
    force_csv_processes(monkeypatch, cpus)
    monkeypatch.setattr(artifacts, "_CSV_MIN_CHUNKS_PER_PROCESS", min_chunks)
    forks = []
    fork = getattr(os, "fork", None)    # Unix-only; the writer forks on Linux

    def spy():
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", spy, raising=False)
    # one state entry per sample: a chunk is _CHUNK_ELEMENTS samples
    traj = Trajectory(times=np.arange(n_chunks * _CHUNK_ELEMENTS) * 1e-3,
                      states=np.zeros((n_chunks * _CHUNK_ELEMENTS, 1, 1)))
    write_trajectory_csv(traj, tmp_path / "trajectory.csv")
    assert len(forks) == processes - 1
    assert_no_child_left()


def _raise_enospc():
    raise OSError(errno.ENOSPC, "No space left on device")


def _raise_interrupt():
    raise KeyboardInterrupt


def _fail_in_ranges(monkeypatch, fail, in_range):
    """Make the CSV writer call fail() before writing any range for which
    in_range(start) holds."""
    write = artifacts._write_csv_samples

    def failing(traj, fh, start, stop):
        if in_range(start):
            fail()
        write(traj, fh, start, stop)

    monkeypatch.setattr(artifacts, "_write_csv_samples", failing)


# 2000 samples of 3 nodes: 3 chunks, split by force_csv_processes
_SPLIT_TRAJECTORY = Trajectory(times=1e-3 * np.arange(2000),
                               states=np.ones((2000, 3, 2)))


@pytest.mark.parametrize("processes", [2, 3])
@pytest.mark.parametrize("fail, in_range, error, match", [
    # a worker's range fails again when this process writes it
    (_raise_enospc, lambda start: start > 0, OSError, "No space left"),
    # this process writes the range at 0, forked workers the others
    (_raise_interrupt, lambda start: start == 0, KeyboardInterrupt, None),
], ids=["worker-raises", "parent-interrupted"])
def test_trajectory_csv_failure_leaves_no_files(tmp_path, monkeypatch,
                                                processes, fail, in_range,
                                                error, match):
    force_csv_processes(monkeypatch, processes)
    _fail_in_ranges(monkeypatch, fail, in_range)
    path = str(tmp_path / "trajectory.csv")
    with pytest.raises(error, match=match):
        _atomic_write(path, lambda tmp: write_trajectory_csv(
            _SPLIT_TRAJECTORY, tmp))
    assert os.listdir(tmp_path) == []
    assert_no_child_left()


@pytest.mark.parametrize("processes", [2, 3])
def test_trajectory_csv_killed_worker_range_written_here(tmp_path,
                                                         monkeypatch,
                                                         processes):
    # every worker dies by SIGKILL; this process writes their ranges
    force_csv_processes(monkeypatch, processes)
    parent = os.getpid()
    _fail_in_ranges(monkeypatch,
                    lambda: os.kill(os.getpid(), signal.SIGKILL),
                    lambda start: os.getpid() != parent)
    write_trajectory_csv(_SPLIT_TRAJECTORY, tmp_path / "fast.csv")
    _reference_csv(_SPLIT_TRAJECTORY, tmp_path / "reference.csv")
    assert ((tmp_path / "fast.csv").read_bytes()
            == (tmp_path / "reference.csv").read_bytes())
    assert sorted(os.listdir(tmp_path)) == ["fast.csv", "reference.csv"]
    assert_no_child_left()


@pytest.mark.parametrize("processes", [2, 3])
def test_trajectory_csv_unforked_worker_range_written_here(tmp_path,
                                                           monkeypatch,
                                                           processes):
    # the first os.fork fails as at the process limit (a later one works):
    # this process writes that worker's range
    force_csv_processes(monkeypatch, processes)
    fork, calls = os.fork, []

    def fork_fails_first():
        calls.append(None)
        if len(calls) == 1:
            raise BlockingIOError(errno.EAGAIN,
                                  "Resource temporarily unavailable")
        return fork()

    monkeypatch.setattr(os, "fork", fork_fails_first)
    write_trajectory_csv(_SPLIT_TRAJECTORY, tmp_path / "fast.csv")
    _reference_csv(_SPLIT_TRAJECTORY, tmp_path / "reference.csv")
    assert len(calls) == processes - 1
    assert ((tmp_path / "fast.csv").read_bytes()
            == (tmp_path / "reference.csv").read_bytes())
    assert sorted(os.listdir(tmp_path)) == ["fast.csv", "reference.csv"]
    assert_no_child_left()


def test_trajectory_csv_worker_ignores_interrupt(tmp_path, monkeypatch):
    # an interrupt is left to this process: a worker sent SIGINT still
    # writes its part, and this process writes range 0 only
    force_csv_processes(monkeypatch, 2)
    parent, starts = os.getpid(), []
    write = artifacts._write_csv_samples

    def interrupted(traj, fh, start, stop):
        if os.getpid() == parent:
            starts.append(start)
        else:
            os.kill(os.getpid(), signal.SIGINT)
        write(traj, fh, start, stop)

    monkeypatch.setattr(artifacts, "_write_csv_samples", interrupted)
    write_trajectory_csv(_SPLIT_TRAJECTORY, tmp_path / "fast.csv")
    _reference_csv(_SPLIT_TRAJECTORY, tmp_path / "reference.csv")
    assert starts == [0]
    assert ((tmp_path / "fast.csv").read_bytes()
            == (tmp_path / "reference.csv").read_bytes())
    assert_no_child_left()


def _write_csv_in_pool_worker(path):
    write_trajectory_csv(_SPLIT_TRAJECTORY, path)


def test_trajectory_csv_in_daemonic_worker(tmp_path, monkeypatch):
    # a multiprocessing.Pool worker may not start multiprocessing
    # processes, but os.fork works there: the file is split as anywhere
    force_csv_processes(monkeypatch, 2)
    with multiprocessing.get_context("fork").Pool(1) as pool:
        pool.apply_async(_write_csv_in_pool_worker,
                         (str(tmp_path / "t.csv"),)).get(timeout=60)
    pool.join()
    assert os.listdir(tmp_path) == ["t.csv"]
    _reference_csv(_SPLIT_TRAJECTORY, tmp_path / "reference.csv")
    assert ((tmp_path / "t.csv").read_bytes()
            == (tmp_path / "reference.csv").read_bytes())
    assert_no_child_left()


def test_rms_amplitude_constant_trajectory():
    sys = LinearNetworkSystem(A=np.zeros((1, 1)), H_eff=np.array([[0.0]]),
                              sigma=1.0, laplacian=PAIR_LAPLACIAN)
    traj = simulate_linear(sys, np.array([[2.0], [2.0]]), 1.0, 1e-2)
    assert abs(rms_amplitude(traj) - 2.0) < 1e-12
    # squares that overflow, and an infinite state, with no warning
    for value in (1e300, np.inf):
        traj = Trajectory(times=np.arange(3.0),
                          states=np.full((3, 2, 1), value))
        assert rms_amplitude(traj) == value
