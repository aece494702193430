"""Acceptance suite: every release criterion at its stated tolerance.

 1. Spectrum regression: path-graph lambda2 = 0.3820 +- 5e-4; directed
    fixture contains 0.9924 +- 0.5131i within 1e-3 and theta_max =
    27.3399 deg +- 0.05 deg.
 2. Realization regression: modal entries of argument +-153.4349 deg and
    modulus sqrt(1.25) reproduce H4 entrywise to 1e-3; the
    +-174.2894 deg variant reproduces H5 to 1e-3.
 3. Duality regression: h_from_gain equals H6 exactly; gain recovery to
    1e-12; 100 random round-trips to 1e-10.
 4. Hurwitz verification: uniform -20 coupling gives closed-form mode
    eigenvalues to 1e-8 and passes; the consensus fixture coupling at
    c = 0.755 passes over all five transverse modes.
 5. Pole placement: requesting -2 about the path graph puts the lambda2
    mode's largest real eigenvalue at -2 +- 1e-6.
 6. Disc-certificate property suites: 1000 rotation trials and 1000
    projection trials against the dense eigensolver, zero
    counterexamples at margin -1e-10.
 7. Agent/network equivalence: 50 random instances agree to 1e-9 per
    state per step over 1000 steps.
 8. Linear synchronization: the path scenario converges below 1e-3 for
    H1; H2 settles the 4th/5th components strictly earlier than H1 and
    H3 strictly later than H2.
 9. Chaotic probe: the state-dependent design holds pairwise error
    below 5% of RMS amplitude on t in [60, 100] at eps = 0.1; the
    selector baseline never converges at eps = 0.1 and does converge at
    eps = 3.
10. Integrator sanity: halving dt changes every acceptance trajectory's
    final state by <= 1e-5 relative; identical initial rows stay
    identical to 1e-12 over 10^4 steps in both linear simulators.

Run ``pytest -s tests/test_acceptance.py`` for one PASS/FAIL line per
criterion.  The six chaotic runs over a 100 s horizon take most of a
115-132 s suite run on a shared 2-vCPU VM: about 13 s each at
dt = 1e-3 and 25-27 s each at dt = 5e-4.
"""

from contextlib import contextmanager

import numpy as np
import pytest

from helpers import (
    admissible_rotation_window,
    hurwitz_2x2,
    path_topology,
    random_connected_topology,
    relative_final_state_change,
    strictly_left_matrix,
)

from netsync import (
    AgentModel,
    HalfPlane,
    Laplacian,
    LinearNetworkSystem,
    ModalCouplingSpec,
    build_laplacian,
    decompose,
    design_undirected,
    discs,
    gain_from_h,
    h_from_gain,
    half_plane,
    real_projection,
    realize,
    rotation_admissible,
    simulate_agents,
    simulate_linear,
    spectrum,
    verify,
)
from netsync.scenarios import load_fixture, run_example1, run_rossler


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} FAIL  {label}")
        raise
    print(f"ACCEPTANCE {number:02d} PASS  {label}")


# ── shared scenario runs (computed once per session) ─────────────────────────


@pytest.fixture(scope="module")
def example1_runs():
    return {
        "full": run_example1(),
        "halved": run_example1(dt=5e-4),
    }


@pytest.fixture(scope="module")
def rossler_runs():
    return {
        "designed": run_rossler(),
        "baseline_weak": run_rossler(baseline=True),
        "baseline_strong": run_rossler(baseline=True, eps=3.0),
    }


@pytest.fixture(scope="module")
def rossler_halved_runs():
    return {
        "designed": run_rossler(dt=5e-4),
        "baseline_weak": run_rossler(baseline=True, dt=5e-4),
        "baseline_strong": run_rossler(baseline=True, eps=3.0, dt=5e-4),
    }


# ── criteria ─────────────────────────────────────────────────────────────────


def test_criterion_1_spectrum_regression():
    with criterion(1, "spectrum regression (lambda2, complex pair, theta_max)"):
        spec1 = spectrum(build_laplacian(path_topology(5)))
        assert abs(spec1.lambda2.real - 0.3820) <= 5e-4
        fx2 = load_fixture("example2")
        spec2 = spectrum(Laplacian(np.array(fx2["laplacian"], dtype=float)))
        pair = complex(*fx2["lambda_pair"])
        assert np.abs(spec2.eigenvalues - pair).min() <= 1e-3
        assert np.abs(spec2.eigenvalues - pair.conjugate()).min() <= 1e-3
        assert abs(np.degrees(spec2.theta_max) - 27.3399) <= 0.05


def _polar_spec(decomp, modulus: float, argument_deg: float) -> ModalCouplingSpec:
    argument = np.radians(argument_deg)
    signs = np.where(decomp.mode_eigenvalues.imag > 0, 1.0, -1.0)
    return ModalCouplingSpec(entries=modulus * np.exp(1j * signs * argument))


def test_criterion_2_realization_regression():
    with criterion(2, "realization reproduces the fixture coupling matrices"):
        fx = load_fixture("example2")
        decomp = decompose(np.array(fx["A"], dtype=float))
        for key in ("H4", "H5"):
            spec = _polar_spec(decomp, fx[f"{key}_modulus"],
                               fx[f"{key}_argument_deg"])
            mats = realize(spec, decomp)
            target = np.array(fx[key], dtype=float)
            assert np.abs(mats.H_eff - target).max() <= 1e-3, key


def test_criterion_3_duality_regression():
    with criterion(3, "gain <-> coupling duality (exact fixtures + round trips)"):
        fx = load_fixture("example3")
        B = np.array(fx["B"], dtype=float)
        K = np.array(fx["K"], dtype=float)
        assert np.array_equal(h_from_gain(B, K), np.array(fx["H6"], float))
        recovered = gain_from_h(B, np.array(fx["H6"], dtype=float))
        assert np.abs(recovered - K).max() <= 1e-12

        rng = np.random.default_rng(100)
        done = 0
        while done < 100:
            n = int(rng.integers(1, 7))
            m = int(rng.integers(1, n + 1))
            B = rng.normal(0, 2, (n, m))
            if np.linalg.matrix_rank(B) < m:
                continue
            K = rng.normal(0, 2, (m, n))
            if np.abs(K).max() < 1e-6:
                continue
            back = gain_from_h(B, h_from_gain(B, K))
            assert np.abs(back - K).max() <= 1e-10 * max(1.0, np.abs(K).max())
            done += 1


def test_criterion_4_hurwitz_verification():
    with criterion(4, "transverse-mode Hurwitz verification"):
        fx1 = load_fixture("example1")
        A = np.array(fx1["A"], dtype=float)
        lap_spec = spectrum(Laplacian(np.array(fx1["laplacian"], float)))
        analysis = verify(A, -20.0 * np.eye(5), 1.0, lap_spec)
        base_modes = np.linalg.eigvals(A)
        for record in analysis.modes:
            expected = base_modes - 20.0 * record.laplacian_eigenvalue
            for value in expected:
                assert np.abs(record.eigenvalues - value).min() <= 1e-8
        assert analysis.overall_hurwitz

        fx3 = load_fixture("example3")
        A3 = np.array(fx3["A"], dtype=float)
        BK = np.array(fx3["B"], float) @ np.array(fx3["K"], float)
        lap_spec3 = spectrum(Laplacian(np.array(fx3["laplacian"], float)))
        analysis3 = verify(A3, BK, float(fx3["c"]), lap_spec3)
        assert analysis3.overall_hurwitz
        for lam in lap_spec3.eigenvalues[1:]:
            assert hurwitz_2x2(A3 + float(fx3["c"]) * lam.real * BK)


def test_criterion_5_pole_placement():
    with criterion(5, "lambda2-mode pole placement at -2 +- 1e-6"):
        fx1 = load_fixture("example1")
        A = np.array(fx1["A"], dtype=float)
        lam2 = spectrum(Laplacian(np.array(fx1["laplacian"], float))).lambda2.real
        decomp = decompose(A)
        spec = design_undirected(decomp, lam2, poles=[-2.0] * 5)
        mats = realize(spec, decomp)
        mode_matrix = A + lam2 * mats.H_eff
        assert abs(np.linalg.eigvals(mode_matrix).real.max() - (-2.0)) <= 1e-6


def test_criterion_6_disc_certificate_property_suites():
    with criterion(6, "1000 rotation + 1000 projection randomized trials"):
        rng = np.random.default_rng(2024)
        accepted = 0
        for _ in range(1000):
            n = int(rng.integers(1, 7))
            Z = strictly_left_matrix(rng, n, radius_fraction=0.3)
            lo, hi = admissible_rotation_window(Z)
            theta = rng.uniform(0.0, max(hi, lo) * 1.5 + 0.05)
            rho = rng.uniform(0.1, 10.0) * np.exp(
                1j * np.sign(rng.standard_normal()) * theta)
            if rho.real <= 0.0:
                continue
            if rotation_admissible(Z, rho):
                accepted += 1
                assert np.linalg.eigvals(rho * Z).real.max() < -1e-10
        assert accepted >= 100

        rng = np.random.default_rng(2025)
        for trial in range(1000):
            n = int(rng.integers(1, 7))
            Z = strictly_left_matrix(rng, n, radius_fraction=0.8)
            if trial % 2:
                Z = -Z
            side = half_plane(discs(Z))
            eigs = np.linalg.eigvals(real_projection(Z))
            if side is HalfPlane.LEFT:
                assert eigs.real.max() < -1e-10
            else:
                assert side is HalfPlane.RIGHT
                assert eigs.real.min() > 1e-10


def test_criterion_7_agent_network_equivalence():
    with criterion(7, "50 random agent/network trajectory agreements <= 1e-9"):
        rng = np.random.default_rng(777)
        for _ in range(50):
            n = int(rng.integers(1, 4))
            m = int(rng.integers(1, n + 1))
            N = int(rng.integers(2, 7))
            A = rng.normal(0, 1, (n, n))
            B = rng.normal(0, 1, (n, m))
            K = rng.normal(0, 1, (m, n))
            c = float(rng.uniform(0.2, 1.5))
            lap = build_laplacian(random_connected_topology(rng, N))
            x0 = rng.uniform(-1, 1, (N, n))
            traj_a = simulate_agents(AgentModel(A=A, B=B, K=K, c=c), lap,
                                     x0, 1.0, 1e-3)
            traj_l = simulate_linear(
                LinearNetworkSystem(A=A, H_eff=B @ K, sigma=c, laplacian=lap),
                x0, 1.0, 1e-3)
            assert traj_a.times.shape[0] == 1001
            assert np.abs(traj_a.states - traj_l.states).max() <= 1e-9


def test_criterion_8_linear_synchronization_ordering(example1_runs):
    with criterion(8, "path scenario: convergence plus settle-time ordering"):
        result = example1_runs["full"]
        variants = result.summary["variants"]
        # H1 converges in every state component at the 1e-3 tolerance
        assert variants["H1"]["converged"]
        assert all(t is not None
                   for t in variants["H1"]["component_settle_times"])
        for component in (3, 4):     # the ramp pair (4th/5th components)
            t1 = variants["H1"]["component_settle_times"][component]
            t2 = variants["H2"]["component_settle_times"][component]
            t3 = variants["H3"]["component_settle_times"][component]
            assert t2 < t1, f"component {component}: strengthened not faster"
            assert t3 > t2, f"component {component}: weakened not slower"


@pytest.mark.slow
def test_criterion_9_chaotic_probe(rossler_runs):
    with criterion(9, "chaotic probe: design holds the band, baseline flips"):
        designed = rossler_runs["designed"]
        assert designed.summary["band_ok"]
        assert not designed.summary["diverged"]
        weak = rossler_runs["baseline_weak"]
        assert not weak.summary["synchronized"]
        strong = rossler_runs["baseline_strong"]
        assert strong.summary["synchronized"]


@pytest.mark.slow
def test_criterion_10_integrator_sanity(example1_runs, rossler_runs,
                                        rossler_halved_runs):
    with criterion(10, "step-halving <= 1e-5 and manifold invariance 1e-12"):
        full, halved = example1_runs["full"], example1_runs["halved"]
        for key in ("H1", "H2", "H3"):
            change = relative_final_state_change(
                full.trajectories[key], halved.trajectories[key])
            assert change <= 1e-5, f"{key}: {change:.3e}"
        for key in ("designed", "baseline_weak", "baseline_strong"):
            variant = "baseline" if key.startswith("baseline") else "designed"
            change = relative_final_state_change(
                rossler_runs[key].trajectories[variant],
                rossler_halved_runs[key].trajectories[variant])
            assert change <= 1e-5, f"{key}: {change:.3e}"

        # consensus-manifold invariance over 10^4 steps, both simulators
        rng = np.random.default_rng(55)
        A = rng.normal(0, 1, (2, 2))
        lap = build_laplacian(path_topology(4))
        row = rng.normal(0, 1, 2)
        x0 = np.tile(row, (4, 1))
        traj_lin = simulate_linear(
            LinearNetworkSystem(A=A, H_eff=-np.eye(2), sigma=1.0,
                                laplacian=lap), x0, 10.0, 1e-3)
        traj_ag = simulate_agents(
            AgentModel(A=A, B=np.array([[1.0], [-1.0]]),
                       K=np.array([[0.6, 0.3]]), c=0.8), lap, x0, 10.0, 1e-3)
        for traj in (traj_lin, traj_ag):
            assert traj.times.shape[0] == 10001
            spread = (traj.states.max(axis=1) - traj.states.min(axis=1)).max()
            assert spread <= 1e-12 * max(1.0, np.abs(traj.states).max())
