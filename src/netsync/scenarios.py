"""Bundled reference scenarios.

Six regression scenarios exercise the full pipeline end to end; their
input matrices and constants live as versioned JSON fixtures under
``netsync/data`` so the numbers are auditable rather than buried in
code.  Each runner returns a :class:`ScenarioResult` whose ``verdict``
states whether the scenario's contracted outcome held:

* ``example1``: five-node undirected path, three diagonal coupling
  variants; expected to synchronize (in every state component).
* ``example2``: five-node directed topology with a complex eigenvalue
  pair; two complex modal designs; expected to synchronize.
* ``example3``: six-node undirected topology, coupling from consensus
  gains for two input matrices; expected to synchronize, the
  alternative input matrix strictly faster.
* ``example4``: gain recovery from the example3 coupling matrix, then
  the closed loop; expected to recover the gain and synchronize.
* ``rossler``: chaotic three-oscillator probe; the state-dependent
  design is expected to synchronize at weak coupling.
* ``rossler-baseline``: the same probe under the constant selector
  coupling (``run_rossler(baseline=True)``); expected to fail there.
"""

from __future__ import annotations

import importlib.resources
import json
import os
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

# write_artifacts looks write_trajectory_csv up here, where the
# benchmark's tracer (perfbench/tracer.py) wraps it
from .artifacts import (
    _atomic_write,
    atomic_write_text,
    dump_json,
    sync_report_dict,
    write_trajectory_csv,
)
from .coupling import (
    CouplingMatrices,
    ModalCouplingSpec,
    decompose,
    design_directed,
    design_report,
    realize,
    verify,
)
from .duality import (
    AgentModel,
    controllability,
    gain_from_h,
    h_from_gain,
    recovery_residual,
)
from .dynamics import (
    NonlinearCouplingSpec,
    build_three_oscillator,
    component_settle_times,
    design_nonlinear_coupling,
    rms_amplitude,
    rossler_jacobian_parts,
    simulate_agents,
    simulate_linear,
    simulate_nonlinear,
    sync_error,
    LinearNetworkSystem,
)
from .graph import Laplacian, spectrum

__all__ = [
    "ScenarioResult",
    "load_fixture",
    "run_example1",
    "run_example2",
    "run_example3",
    "run_example4",
    "run_rossler",
    "write_artifacts",
    "SCENARIOS",
]

LINEAR_SYNC_TOL = 1e-3   # absolute cross-node tolerance for linear runs
DEFAULT_SEED = 42


def load_fixture(name: str) -> dict:
    """Load one of the bundled scenario fixtures by name."""
    ref = importlib.resources.files("netsync.data").joinpath(f"{name}.json")
    with ref.open("r", encoding="utf-8") as fh:
        return json.load(fh)


@dataclass(frozen=True)
class ScenarioResult:
    """Outcome of one scenario run.

    ``verdict`` is True iff the scenario's contracted outcome held
    (synchronization for the linear scenarios and the designed chaotic
    run; failure to synchronize for the chaotic baseline at its default
    weak coupling).  ``summary`` is JSON-ready; trajectories and sync
    reports are keyed by variant name for artifact writing and tests.
    """

    name: str
    verdict: bool
    summary: dict
    design: Optional[dict] = None
    trajectories: dict = field(default_factory=dict)
    sync_reports: dict = field(default_factory=dict)


def _linear_setup(fixture: str, seed: int):
    """Fixture, node dynamic A, Laplacian, its spectrum and the seeded
    initial states of a linear scenario."""
    fx = load_fixture(fixture)
    A = np.array(fx["A"], dtype=float)
    lap = Laplacian(np.array(fx["laplacian"], dtype=float))
    x0 = np.random.default_rng(seed).uniform(-1.0, 1.0,
                                             (lap.n_nodes, A.shape[0]))
    return fx, A, lap, spectrum(lap), x0


def _variant_summary(report, traj) -> dict:
    """JSON summary of one run and its sync report."""
    return {"sync_time": report.sync_time, "converged": report.converged,
            "final_error": report.final_error, "diverged": traj.diverged}


def _summarize_variants(trajectories: dict):
    """Sync reports and JSON summaries, keyed like ``trajectories``, of
    linear runs judged at LINEAR_SYNC_TOL."""
    reports, variants = {}, {}
    for key, traj in trajectories.items():
        report = reports[key] = sync_error(traj, LINEAR_SYNC_TOL)
        variants[key] = {**_variant_summary(report, traj),
                         "component_settle_times": list(
                             component_settle_times(traj, LINEAR_SYNC_TOL))}
    return reports, variants


def _fixture_residuals(fx: dict, realized: dict) -> dict:
    """Largest entrywise gap between each realized H_eff and its fixture."""
    return {
        key: float(np.abs(mats.H_eff - np.array(fx[key], dtype=float)).max())
        for key, mats in realized.items()
    }


def _consensus_design(B, K, c: float, H_paper, analysis,
                      residual: float) -> dict:
    """Design report of the gain-derived coupling H_paper = -B K."""
    report = design_report(None, CouplingMatrices(H_eff=-H_paper), analysis)
    report.update({"K": K.tolist(), "B": B.tolist(), "c": c,
                   "residual": residual})
    return report


def run_example1(seed: int = DEFAULT_SEED, t_end: float = 6.0,
                 dt: float = 1e-3) -> ScenarioResult:
    """Five-node path: uniform coupling, a strengthened ramp pair, and a
    weakened variant; all three must synchronize in every component."""
    fx, A, lap, lap_spec, x0 = _linear_setup("example1", seed)
    decomp = decompose(A)

    base = float(fx["modal_level_base"])
    ramp = float(fx["modal_level_ramp_pair"])
    uniform = ModalCouplingSpec(entries=np.full(decomp.n, base, complex))
    strengthened = ModalCouplingSpec(entries=np.where(
        np.abs(decomp.mode_eigenvalues) <= 1e-6, ramp, base).astype(complex))
    realized = {
        "H1": realize(uniform, decomp),
        "H2": realize(strengthened, decomp),
    }
    analysis = verify(A, realized["H1"].H_eff, 1.0, lap_spec)

    trajectories = {
        key: simulate_linear(
            LinearNetworkSystem(A=A, H_eff=np.array(fx[key], dtype=float),
                                sigma=1.0, laplacian=lap),
            x0, t_end, dt)
        for key in ("H1", "H2", "H3")
    }
    reports, variants = _summarize_variants(trajectories)
    # a component's spread never exceeds the error at the same tol, so a
    # converged run also settles in every component
    verdict = (analysis.overall_hurwitz
               and all(v["converged"] for v in variants.values()))
    summary = {
        "lambda2": lap_spec.lambda2.real,
        "hurwitz": analysis.overall_hurwitz,
        "realization_residual": _fixture_residuals(fx, realized),
        "variants": variants,
    }
    return ScenarioResult(
        name="example1", verdict=verdict, summary=summary,
        design=design_report(uniform, realized["H1"], analysis),
        trajectories=trajectories, sync_reports=reports,
    )


def run_example2(seed: int = DEFAULT_SEED, t_end: float = 20.0,
                 dt: float = 1e-3) -> ScenarioResult:
    """Directed topology: two complex modal designs (smaller and larger
    argument margin); both must synchronize."""
    fx, A, lap, lap_spec, x0 = _linear_setup("example2", seed)
    decomp = decompose(A)

    # Pole request that sets the modal real parts to -1, matching the
    # fixture designs' moduli at their recorded arguments.
    poles = [-lap_spec.lambda2.real] * decomp.n
    specs, realized, analyses, trajectories = {}, {}, {}, {}
    for key in ("H4", "H5"):
        specs[key] = design_directed(
            decomp, lap_spec.lambda2, lap_spec.theta_max,
            argument=np.radians(fx[f"{key}_argument_deg"]), poles=poles,
        )
        mats = realized[key] = realize(specs[key], decomp)
        analyses[key] = verify(A, mats.H_eff, 1.0, lap_spec)
        sys = LinearNetworkSystem(A=A, H_eff=mats.H_eff, sigma=1.0,
                                  laplacian=lap)
        trajectories[key] = simulate_linear(sys, x0, t_end, dt)

    reports, variants = _summarize_variants(trajectories)
    hurwitz = {key: a.overall_hurwitz for key, a in analyses.items()}
    verdict = (all(hurwitz.values())
               and all(v["converged"] for v in variants.values()))
    summary = {
        "lambda2": [lap_spec.lambda2.real, lap_spec.lambda2.imag],
        "theta_max_deg": float(np.degrees(lap_spec.theta_max)),
        "hurwitz": hurwitz,
        "realization_residual": _fixture_residuals(fx, realized),
        "variants": variants,
    }
    return ScenarioResult(
        name="example2", verdict=verdict, summary=summary,
        design=design_report(specs["H4"], realized["H4"], analyses["H4"]),
        trajectories=trajectories, sync_reports=reports,
    )


def run_example3(seed: int = DEFAULT_SEED, t_end: float = 60.0,
                 dt: float = 1e-3) -> ScenarioResult:
    """Consensus-gain coupling on the six-node topology: both input
    matrices must synchronize, the alternative one strictly faster."""
    fx, A, lap, lap_spec, x0 = _linear_setup("example3", seed)
    K = np.array(fx["K"], dtype=float)
    c = float(fx["c"])

    trajectories, details, designs = {}, {}, {}
    for key, b_key in (("H6", "B"), ("H7", "B_alt")):
        B = np.array(fx[b_key], dtype=float)
        H_paper = h_from_gain(B, K)
        analysis = verify(A, -H_paper, c, lap_spec)
        model = AgentModel(A=A, B=B, K=K, c=c)
        trajectories[key] = simulate_agents(model, lap, x0, t_end, dt)
        designs[key] = (B, H_paper, analysis)
        details[key] = {
            "hurwitz": analysis.overall_hurwitz,
            "H_paper_matches_fixture": bool(np.allclose(
                H_paper, np.array(fx[key], dtype=float), atol=1e-12)),
            "controllability_rank": controllability(A, B),
        }

    reports, variants = _summarize_variants(trajectories)
    both_converged = all(v["converged"] for v in variants.values())
    ordering = (both_converged
                and variants["H7"]["sync_time"] < variants["H6"]["sync_time"])
    verdict = (both_converged and ordering
               and all(d["hurwitz"] for d in details.values()))

    B6, H6_paper, analysis6 = designs["H6"]
    summary = {
        "lambda2": lap_spec.lambda2.real,
        "fast_variant_faster": ordering,
        "details": details,
        "variants": variants,
    }
    return ScenarioResult(
        name="example3", verdict=verdict, summary=summary,
        design=_consensus_design(B6, K, c, H6_paper, analysis6,
                                 recovery_residual(B6, H6_paper, K)),
        trajectories=trajectories, sync_reports=reports,
    )


def run_example4(seed: int = DEFAULT_SEED, t_end: float = 60.0,
                 dt: float = 1e-3) -> ScenarioResult:
    """Gain recovery: K = -B^+ H from the example3 coupling matrix must
    reproduce the original gain and close the loop to consensus."""
    fx, A, lap, lap_spec, x0 = _linear_setup("example3", seed)
    B = np.array(fx["B"], dtype=float)
    H6_paper = np.array(fx["H6"], dtype=float)
    c = float(fx["c"])

    K_rec = gain_from_h(B, H6_paper)
    residual = recovery_residual(B, H6_paper, K_rec)
    rank = controllability(A, B)
    gain_error = float(np.abs(K_rec - np.array(fx["K"], dtype=float)).max())

    model = AgentModel(A=A, B=B, K=K_rec, c=c)
    trajectories = {"recovered": simulate_agents(model, lap, x0, t_end, dt)}
    reports, variants = _summarize_variants(trajectories)

    verdict = (gain_error <= 1e-9 and residual <= 1e-9
               and rank == A.shape[0] and reports["recovered"].converged)
    summary = {
        "recovered_gain": K_rec.tolist(),
        "gain_error": gain_error,
        "recovery_residual": residual,
        "controllability_rank": rank,
        "variants": variants,
    }
    return ScenarioResult(
        name="example4", verdict=verdict, summary=summary,
        design=_consensus_design(B, K_rec, c, H6_paper,
                                 verify(A, -H6_paper, c, lap_spec), residual),
        trajectories=trajectories, sync_reports=reports,
    )


def designed_rossler_coupling(eps: float, fixture: dict | None = None):
    """State-dependent coupling for the three-oscillator probe.

    kappa is the smallest real part over the nonzero connection-matrix
    eigenvalues, which cancels the state-dependent Jacobian part in the
    M(s) term of every transverse mode, though not in the (DM(s))s term
    of D(M(x)x) (see ``NonlinearCouplingSpec``).  The probe's spectrum is
    {0, -eps +- i*delta} in closed form (see ``build_three_oscillator``),
    so kappa = -eps.  The constant part is a positive multiple of the
    identity, stabilizing because those transverse factors have negative
    real part.
    """
    fx = fixture if fixture is not None else load_fixture("rossler")
    Phi1, Phi2 = rossler_jacobian_parts(a=fx["a"], b=fx["b"], c=fx["c"])
    spec = NonlinearCouplingSpec(
        Phi1=Phi1, Phi2=Phi2,
        Psi1=fx["psi1_scale"] * np.eye(3),
        kappa=-eps,
    )
    return design_nonlinear_coupling(spec)


def run_rossler(baseline: bool = False, eps: float | None = None,
                seed: int = DEFAULT_SEED, t_end: float = 100.0,
                dt: float = 1e-3) -> ScenarioResult:
    """Chaotic three-oscillator probe.

    ``baseline=True`` couples through the constant output selector
    (second component only), passed as its matrix; the designed run uses
    the state-dependent coupling.  eps defaults to the weak level at
    which the baseline is contracted to fail and the design to hold the
    pairwise error below 5% of the RMS amplitude beyond t = 60.
    Synchronization is judged against a tolerance of 5% of the
    trajectory's RMS amplitude.
    """
    fx = load_fixture("rossler")
    eps_value = float(fx["eps_weak"] if eps is None else eps)
    coupling = (fx["selector_coupling"] if baseline
                else designed_rossler_coupling(eps_value, fx))

    sys = build_three_oscillator(eps_value, fx["delta"], coupling,
                                 a=fx["a"], b=fx["b"], c=fx["c"])
    rng = np.random.default_rng(seed)
    x0 = (np.array(fx["initial_center"])
          + rng.uniform(-fx["initial_spread"], fx["initial_spread"], (3, 3)))
    traj = simulate_nonlinear(sys, x0, t_end, dt)

    rms = rms_amplitude(traj)
    tol = fx["band_tolerance_rms_fraction"] * rms
    report = sync_error(traj, tol)
    band_mask = traj.times >= fx["band_start"]
    band_ok = bool(not traj.diverged and band_mask.any()
                   and float(report.error_series[band_mask].max()) < tol)

    variant = "baseline" if baseline else "designed"
    synchronized = report.converged and not traj.diverged
    verdict = (not synchronized) if baseline else band_ok
    summary = {
        "eps": eps_value,
        "delta": fx["delta"],
        "variant": variant,
        "rms_amplitude": rms,
        "tolerance": tol,
        "synchronized": synchronized,
        "band_start": fx["band_start"],
        "band_ok": band_ok,
        "diverged": traj.diverged,
        "variants": {variant: _variant_summary(report, traj)},
    }
    design = {
        "eps": eps_value,
        "delta": fx["delta"],
        "coupling": variant,
        "psi1_scale": None if baseline else fx["psi1_scale"],
        "kappa": None if baseline else -eps_value,
    }
    return ScenarioResult(
        name="rossler-baseline" if baseline else "rossler",
        verdict=verdict, summary=summary, design=design,
        trajectories={variant: traj}, sync_reports={variant: report},
    )


# ``reproduce`` choices in the order ``reproduce all`` runs them: each
# name maps to the runner ``run_<runner>`` and its keyword arguments.
SCENARIOS = {
    "example1": ("example1", {}),
    "example2": ("example2", {}),
    "example3": ("example3", {}),
    "example4": ("example4", {}),
    "rossler": ("rossler", {}),
    "rossler-baseline": ("rossler", {"baseline": True}),
}


def write_artifacts(result: ScenarioResult, out_dir) -> list:
    """Write a scenario's artifacts under ``out_dir/<scenario name>/``.

    Per variant: ``<variant>_trajectory.csv`` and
    ``<variant>_sync_report.json``; plus ``design_report.json`` and
    ``summary.json``.  Files are written atomically (temp file + rename)
    and deterministically (sorted keys, repr-formatted floats), so
    identical runs produce byte-identical artifacts.  Returns the paths
    written.
    """
    scenario_dir = os.path.join(str(out_dir), result.name)
    os.makedirs(scenario_dir, exist_ok=True)
    written = []

    for variant, traj in result.trajectories.items():
        path = os.path.join(scenario_dir, f"{variant}_trajectory.csv")
        _atomic_write(path, lambda tmp: write_trajectory_csv(traj, tmp))
        written.append(path)

    documents = {f"{variant}_sync_report.json": sync_report_dict(report)
                 for variant, report in result.sync_reports.items()}
    if result.design is not None:
        documents["design_report.json"] = result.design
    documents["summary.json"] = {**result.summary, "verdict": result.verdict}
    for filename, obj in documents.items():
        path = os.path.join(scenario_dir, filename)
        atomic_write_text(path, dump_json(obj))
        written.append(path)
    return written
