"""The four benchmark workloads: seeded inputs, timed operations, checks.

Each workload is a list of problems made from the seed, an ``op`` that the
harness times (it reaches netsync only through module attributes, so the
tracer's wrappers apply), and a ``check`` that runs outside the timed
region.  ``check`` returns whether the operation's output is correct and a
tally of outcomes for the per-layer metrics; ``digest`` hashes the output,
and every later pass must reproduce the first pass's digests exactly.

Why these workloads:

* ``reproduce_linear``: ``netsync reproduce example1..example4`` at the
  contracted horizons.  The linear RK4 loops and the CSV writer dominate,
  so a propagator or CSV-writer change shows here.
* ``chaotic_sweep``: the three-oscillator Rossler probe through
  ``simulate_nonlinear``, with the designed and the selector coupling over
  a range of coupling strengths.  The nonlinear RK4 dominates and no linear
  simulator runs, so batching the nonlinear RK4 shows here and a
  linear-simulator change must not.
* ``design_sweep``: seeded design problems through
  ``build_laplacian -> spectrum -> decompose -> design -> realize ->
  verify`` plus a duality round trip.  No simulation and no files, so
  design-layer changes show here and simulator changes must not.  One in
  four node dynamics is a similarity-transformed Jordan block: netsync
  declines some of those, and the decline is counted, not filtered.
* ``spotcheck_large``: seeded undirected networks with N up to 48, designed
  by the pipeline and integrated by both linear simulators.  Per-call
  simulator set-up weighs more here than in ``reproduce_linear``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil

import numpy as np
import scipy.linalg

import netsync.cli as cli
from netsync import coupling, duality, dynamics, gershgorin, graph
from netsync.errors import NetsyncError
from netsync.scenarios import load_fixture

HURWITZ_THRESHOLD = -1e-9   # verify's strict-stability threshold
EIG_AGREEMENT = 1e-8        # relative; criterion 4 compares eigenvalues to 1e-8
GAIN_TOLERANCE = 1e-10      # relative; criterion 3's round-trip tolerance
AGREEMENT = 1e-9            # criterion 7's per-step simulator agreement
SPOT_STEPS = 150
SPOT_SYNC_TOL = 1e-3


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(repr(part).encode())
    return h.hexdigest()


def tree_digest(directory: str) -> str:
    """sha256 over the relative name and the bytes of every file."""
    h = hashlib.sha256()
    for root, dirs, files in os.walk(directory):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(root, name)
            h.update(os.path.relpath(path, directory).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# reproduce_linear: one operation is one ``netsync reproduce`` call
# ---------------------------------------------------------------------------

class Reproduce:
    """Bundled scenarios through ``netsync.cli.main``."""

    def __init__(self, scenarios, seed: int, out_dir: str):
        self.problems = [list(args) for args in scenarios]
        self.cli_seed = seed % 2**31
        self.out_dir = out_dir

    def op(self, args):
        out = os.path.join(self.out_dir, "run")
        argv = ["reproduce", *args, "--seed", str(self.cli_seed), "--out", out]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        return code, out

    def check(self, args, output):
        """The CLI exits 0 and the scenario's summary.json holds its verdict."""
        scenario_dir = os.path.join(output[1], args[0])
        try:
            with open(os.path.join(scenario_dir, "summary.json"),
                      encoding="utf-8") as fh:
                verdict = json.load(fh).get("verdict")
            size = sum(os.path.getsize(os.path.join(root, name))
                       for root, _, files in os.walk(scenario_dir)
                       for name in files)
        except (OSError, ValueError):
            return False, {}
        return output[0] == 0 and verdict is True, {"artifact_bytes": size}

    def digest(self, args, output):
        """Exit code plus the bytes of every artifact; removes the artifacts."""
        scenario_dir = os.path.join(output[1], args[0])
        try:
            return _digest(output[0], tree_digest(scenario_dir))
        finally:
            shutil.rmtree(scenario_dir, ignore_errors=True)


def reproduce_linear(seed, out_dir):
    return Reproduce((("example1",), ("example2",), ("example3",),
                      ("example4",)), seed, out_dir)


# ---------------------------------------------------------------------------
# chaotic_sweep: one operation is one short three-oscillator integration
# ---------------------------------------------------------------------------

CHAOTIC_EPS = (0.1, 0.3, 1.0, 3.0)
CHAOTIC_STEPS = 150
CHAOTIC_DT = 1e-3


class ChaoticSweep:
    """The Rossler probe of the ``rossler`` fixture, integrated in short
    runs: both couplings (the state-dependent design and the constant
    output selector) at each coupling strength, from seeded initial states
    drawn as ``reproduce rossler`` draws them."""

    def __init__(self, seed: int, out_dir: str, starts: int = 16,
                 steps: int = CHAOTIC_STEPS):
        rng = np.random.default_rng([seed, 3])
        self.fx = load_fixture("rossler")
        self.steps = steps
        center = np.array(self.fx["initial_center"], dtype=float)
        spread = self.fx["initial_spread"]
        self.problems = [
            {"designed": designed, "eps": float(e),
             "x0": center + rng.uniform(-spread, spread, (3, 3))}
            for _ in range(starts) for e in CHAOTIC_EPS for designed in (True, False)]
        selector = np.array(self.fx["selector_coupling"], dtype=float)

        def selector_coupling(state):
            state = np.asarray(state, dtype=float)
            return np.broadcast_to(selector, state.shape[:-1] + selector.shape).copy()

        self.selector_coupling = selector_coupling

    def op(self, p):
        fx = self.fx
        if p["designed"]:
            # kappa is the smallest real part of the nonzero connection
            # eigenvalues {-eps +- i delta} of the cyclic probe
            Phi1, Phi2 = dynamics.rossler_jacobian_parts(a=fx["a"], b=fx["b"], c=fx["c"])
            coupling = dynamics.design_nonlinear_coupling(dynamics.NonlinearCouplingSpec(
                Phi1=Phi1, Phi2=Phi2, Psi1=fx["psi1_scale"] * np.eye(3),
                kappa=-p["eps"]))
        else:
            coupling = self.selector_coupling
        system = dynamics.build_three_oscillator(p["eps"], fx["delta"], coupling,
                                                 a=fx["a"], b=fx["b"], c=fx["c"])
        traj = dynamics.simulate_nonlinear(system, p["x0"], self.steps * CHAOTIC_DT,
                                           CHAOTIC_DT)
        tol = fx["band_tolerance_rms_fraction"] * dynamics.rms_amplitude(traj)
        return {"traj": traj, "sync": dynamics.sync_error(traj, tol)}

    def digest(self, p, out):
        return _digest(out["traj"].states, out["sync"].error_series)

    def check(self, p, out):
        """Finite, full-length, and equal at every step to 1e-9 to an RK4
        written here from the probe's equations."""
        traj = out["traj"]
        ok = (not traj.diverged and traj.times.shape[0] == self.steps + 1
              and np.abs(traj.states - self._reference(p)).max() <= AGREEMENT)
        return bool(ok), {}

    def _reference(self, p):
        fx = self.fx
        a, b, c, eps, delta = fx["a"], fx["b"], fx["c"], p["eps"], fx["delta"]
        fwd, bwd = eps / 3 + delta / np.sqrt(3), eps / 3 - delta / np.sqrt(3)
        G = np.array([[-2 * eps / 3, fwd, bwd], [bwd, -2 * eps / 3, fwd],
                      [fwd, bwd, -2 * eps / 3]])
        psi1 = fx["psi1_scale"]

        def rhs(X):
            x, y, z = X[:, 0], X[:, 1], X[:, 2]
            F = np.stack([-(y + z), x + a * y, b + z * (x - c)], axis=1)
            if p["designed"]:   # M(s) s = psi1 s + (1/eps) (0, 0, 2 s_x s_z)
                sent = psi1 * X
                sent[:, 2] += 2.0 * x * z / eps
            else:               # the selector passes the second component
                sent = np.zeros_like(X)
                sent[:, 1] = y
            return F + G @ sent

        out = [np.array(p["x0"], dtype=float)]
        X, h = out[0], CHAOTIC_DT
        for _ in range(self.steps):
            k1 = rhs(X)
            k2 = rhs(X + 0.5 * h * k1)
            k3 = rhs(X + 0.5 * h * k2)
            k4 = rhs(X + h * k3)
            X = X + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            out.append(X)
        return np.array(out)


# ---------------------------------------------------------------------------
# seeded generators
# ---------------------------------------------------------------------------

def _orthogonal(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    return q * np.sign(np.diag(r))


def _well_conditioned(rng, n):
    """Random basis with condition number at most e^1.4 (about 4)."""
    return (_orthogonal(rng, n) * np.exp(rng.uniform(-0.7, 0.7, n))) @ _orthogonal(rng, n)


def node_dynamics(rng, n: int, jordan: bool):
    """Real A = S D S^-1 with a chosen block-diagonal D.

    D holds at least one oscillatory pair (a +- ib) when n allows it, real
    modes, and, with ``jordan``, one 2x2 Jordan block.  Distinct
    eigenvalues lie at least 0.3 apart.  Returns A, S, the block list and
    a pole per block, each pole left of A's dominant mode.
    """
    while True:
        n_left = n - 2 if jordan else n
        n_pairs = int(rng.integers(0 if jordan else 1, n_left // 2 + 1))
        kinds = (["jordan"] if jordan else []) + ["pair"] * n_pairs
        kinds += ["real"] * (n - sum(2 if k != "real" else 1 for k in kinds))
        blocks = []
        for kind in kinds:
            re = float(rng.uniform(-1.0, 1.0))
            blocks.append((kind, complex(re, rng.uniform(1.0, 6.0))
                           if kind == "pair" else complex(re, 0.0)))
        eigs = [v for kind, v in blocks for v in
                ((v, v.conjugate()) if kind == "pair" else (v,))]
        gaps = np.abs(np.subtract.outer(eigs, eigs)) + 10.0 * np.eye(len(eigs))
        if gaps.min() >= 0.3:
            break
    D = np.zeros((n, n))
    i = 0
    for kind, v in blocks:
        if kind == "real":
            D[i, i] = v.real
            i += 1
            continue
        D[i:i + 2, i:i + 2] = ([[v.real, v.imag], [-v.imag, v.real]]
                               if kind == "pair" else [[v.real, 1.0], [0.0, v.real]])
        i += 2
    S = _well_conditioned(rng, n)
    A = np.linalg.solve(S.T, (S @ D).T).T
    top = min(max(v.real for v in eigs), 0.0)
    poles = [top - float(rng.uniform(0.5, 2.0)) for _ in blocks]
    return A, S, blocks, poles


def mode_poles(blocks, poles, mode_eigenvalues):
    """Pole request per decomposition mode: the pole of the nearest block
    eigenvalue, so conjugate pairs and a split Jordan block share one."""
    targets = np.array([v for kind, v in blocks for v in
                        ((v, v.conjugate()) if kind == "pair" else (v,))])
    values = np.array([p for (kind, _), p in zip(blocks, poles)
                       for _ in range(2 if kind == "pair" else 1)])
    nearest = np.abs(np.subtract.outer(mode_eigenvalues, targets)).argmin(axis=1)
    return values[nearest]


def topology(rng, n_nodes: int, directed: bool):
    """Connected weighted topology: random edges plus a path (undirected)
    or a cycle (directed) through every node."""
    w = np.where(rng.random((n_nodes, n_nodes)) < 0.3,
                 rng.uniform(0.2, 2.0, (n_nodes, n_nodes)), 0.0)
    np.fill_diagonal(w, 0.0)
    order = rng.permutation(n_nodes)
    if directed:
        for a, b in zip(order, np.roll(order, -1)):
            w[b, a] = max(w[b, a], rng.uniform(0.5, 1.5))
    else:
        w = np.triu(w, 1)
        w = w + w.T
        for a, b in zip(order[:-1], order[1:]):
            w[a, b] = w[b, a] = max(w[a, b], rng.uniform(0.5, 1.5))
    return graph.Topology(n_nodes=n_nodes, directed=directed, weights=w)


def _reduced_max_real(A, H, sigma, weights):
    """Largest real part over the transverse dynamics, computed without
    netsync: eigenvalues of I (x) A + sigma (U^T L U) (x) H with U an
    orthonormal basis of the complement of the all-ones vector."""
    n_nodes = weights.shape[0]
    L = np.diag(weights.sum(axis=1)) - weights
    U = scipy.linalg.null_space(np.ones((1, n_nodes)))
    M = (np.kron(np.eye(n_nodes - 1), A)
         + sigma * np.kron(U.T @ L @ U, H))
    return float(np.linalg.eigvals(M).real.max()), float(np.abs(M).sum(axis=1).max())


# ---------------------------------------------------------------------------
# design_sweep: one operation is one design problem
# ---------------------------------------------------------------------------

DESIGN_NODES = (4, 8, 12, 16, 24, 32)
NODE_DIMS = (2, 3, 4, 5, 6)


class DesignSweep:
    """Design pipeline plus duality round trip on seeded problems.

    Stratified: every (directed, N, n) cell appears four times per pass,
    once with a Jordan-block node dynamic, so the work mix is the same
    for every seed and only the matrices vary.
    """

    def __init__(self, seed: int, out_dir: str, reps: int = 4,
                 nodes=DESIGN_NODES, dims=NODE_DIMS):
        rng = np.random.default_rng([seed, 1])
        self.problems = []
        for rep in range(reps):
            for directed in (False, True):
                for n_nodes in nodes:
                    for n in dims:
                        self.problems.append(
                            self._problem(rng, n_nodes, n, directed, rep == 0))

    @staticmethod
    def _problem(rng, n_nodes, n, directed, jordan):
        A, _, blocks, poles = node_dynamics(rng, n, jordan)
        m = int(rng.integers(1, n + 1))
        B = (_orthogonal(rng, n)[:, :m] * np.exp(rng.uniform(-0.5, 0.5, m))) @ _orthogonal(rng, m)
        return {
            "topology": topology(rng, n_nodes, directed),
            "A": A, "blocks": blocks, "poles": poles, "jordan": jordan,
            "sigma": float(rng.uniform(0.5, 2.0)),
            "argument_share": float(rng.uniform(0.1, 0.9)),
            "B": B, "K": rng.normal(0.0, 1.0, (m, n)),
        }

    def op(self, p):
        out = {"error": None}
        sigma = p["sigma"]
        try:
            lap = graph.build_laplacian(p["topology"])
            lap_spec = graph.spectrum(lap)
            decomp = coupling.decompose(p["A"])
            poles = mode_poles(p["blocks"], p["poles"], decomp.mode_eigenvalues)
            if p["topology"].directed:
                theta = lap_spec.theta_max
                argument = (theta + np.pi / 2
                            + p["argument_share"] * (np.pi / 2 - theta))
                spec = coupling.design_directed(
                    decomp, lap_spec.lambda2, theta, argument=argument,
                    poles=poles, sigma=sigma)
            else:
                spec = coupling.design_undirected(
                    decomp, lap_spec.lambda2.real, poles=poles, sigma=sigma)
            mats = coupling.realize(spec, decomp)
            out["H_eff"] = mats.H_eff
            out["analysis"] = coupling.verify(p["A"], mats.H_eff, sigma, lap_spec)
            if p["topology"].directed:
                Z = sigma * spec.modal_matrix()
                out["admitted"] = [gershgorin.rotation_admissible(Z, lam)
                                   for lam in lap_spec.eigenvalues[1:]]
        except NetsyncError as exc:
            out["error"] = type(exc).__name__
        H_paper = duality.h_from_gain(p["B"], p["K"])
        out["K"] = duality.gain_from_h(p["B"], H_paper)
        out["residual"] = duality.recovery_residual(p["B"], H_paper, out["K"])
        out["rank"] = duality.controllability(p["A"], p["B"])
        return out

    def digest(self, p, out):
        analysis = out.get("analysis")
        return _digest(out["error"], out.get("H_eff"), out["K"], out["residual"],
                       out["rank"], out.get("admitted"),
                       None if analysis is None else
                       [r.max_real_part for r in analysis.modes])

    def check(self, p, out):
        """Duality round trip recovers K; verify's verdict agrees with the
        reduced transverse matrix.  A design netsync declined (an error or
        a non-Hurwitz verdict) or whose verdict no check can resolve is
        tallied, not failed."""
        K = p["K"]
        gain_tol = GAIN_TOLERANCE * max(1.0, np.abs(K).max())
        ok = (np.abs(out["K"] - K).max() <= gain_tol
              and out["residual"] <= gain_tol)
        analysis = out.get("analysis")
        verdict = "error"
        if analysis is not None:
            verdict = check_verdict(p["A"], out["H_eff"], p["sigma"],
                                    p["topology"].weights, analysis)
            ok = ok and verdict != "wrong"
        return bool(ok), {
            "designs": 1,
            "declined": int(verdict != "hurwitz"),
            "non_hurwitz": int(verdict == "non_hurwitz"),
            "unresolved": int(verdict == "unresolved"),
        }


def check_verdict(A, H, sigma, weights, analysis) -> str:
    """Compare verify with the reduced transverse matrix computed here.

    Returns "hurwitz" or "non_hurwitz" when both agree (their largest real
    parts within 1e-8 of the matrix scale), "wrong" when they disagree
    beyond that, and "unresolved" when the verdicts differ but the
    independent largest real part lies within that error of the
    threshold, so neither verdict can be confirmed.
    """
    max_re, scale = _reduced_max_real(A, H, sigma, weights)
    reported = max(r.max_real_part for r in analysis.modes)
    tol = EIG_AGREEMENT * max(1.0, scale)
    if abs(max_re - reported) > tol:
        return "wrong"
    if (max_re < HURWITZ_THRESHOLD) == analysis.overall_hurwitz:
        return "hurwitz" if analysis.overall_hurwitz else "non_hurwitz"
    return "unresolved" if abs(max_re - HURWITZ_THRESHOLD) <= tol else "wrong"


# ---------------------------------------------------------------------------
# spotcheck_large: one operation is one network, designed and simulated
# ---------------------------------------------------------------------------

SPOT_NODES = (8, 16, 24, 32, 40, 48)


class SpotcheckLarge:
    """Design pipeline plus both linear simulators on larger networks.

    Diagonalisable node dynamics only: the subject is the simulator.  The
    step count is fixed; dt is set from the stiffest mode of the design
    expected from the generator, computed here without netsync.
    """

    def __init__(self, seed: int, out_dir: str, reps: int = 4,
                 nodes=SPOT_NODES, dims=NODE_DIMS, steps: int = SPOT_STEPS):
        rng = np.random.default_rng([seed, 2])
        self.steps = steps
        self.problems = [self._problem(rng, n_nodes, n)
                         for _ in range(reps) for n_nodes in nodes for n in dims]

    def _problem(self, rng, n_nodes, n):
        A, S, blocks, poles = node_dynamics(rng, n, jordan=False)
        topo = topology(rng, n_nodes, directed=False)
        sigma = float(rng.uniform(0.5, 2.0))
        L = np.diag(topo.weights.sum(axis=1)) - topo.weights
        lams = np.linalg.eigvalsh(L)
        max_re = max(v.real for _, v in blocks)
        levels = np.concatenate([
            np.full(2 if kind == "pair" else 1, -(max_re - pole) / (sigma * lams[1]))
            for (kind, _), pole in zip(blocks, poles)])
        H = np.linalg.solve(S.T, (S * levels).T).T
        worst = max(np.abs(np.linalg.eigvals(A + sigma * lam * H)).max()
                    for lam in lams)
        dt = min(0.02, 1.0 / worst)
        return {"topology": topo, "A": A, "blocks": blocks, "poles": poles,
                "sigma": sigma, "H_expected": H, "dt": dt,
                "t_end": self.steps * dt,
                "x0": rng.uniform(-1.0, 1.0, (n_nodes, n))}

    def op(self, p):
        sigma = p["sigma"]
        lap = graph.build_laplacian(p["topology"])
        lap_spec = graph.spectrum(lap)
        decomp = coupling.decompose(p["A"])
        poles = mode_poles(p["blocks"], p["poles"], decomp.mode_eigenvalues)
        spec = coupling.design_undirected(decomp, lap_spec.lambda2.real,
                                          poles=poles, sigma=sigma)
        mats = coupling.realize(spec, decomp)
        analysis = coupling.verify(p["A"], mats.H_eff, sigma, lap_spec)
        system = dynamics.LinearNetworkSystem(A=p["A"], H_eff=mats.H_eff,
                                              sigma=sigma, laplacian=lap)
        linear = dynamics.simulate_linear(system, p["x0"], p["t_end"], p["dt"])
        model = duality.AgentModel(A=p["A"], B=np.eye(p["A"].shape[0]),
                                   K=mats.H_eff, c=sigma)
        agents = dynamics.simulate_agents(model, lap, p["x0"], p["t_end"], p["dt"])
        return {"H_eff": mats.H_eff, "hurwitz": analysis.overall_hurwitz,
                "linear": linear, "agents": agents,
                "linear_sync": dynamics.sync_error(linear, SPOT_SYNC_TOL),
                "agents_sync": dynamics.sync_error(agents, SPOT_SYNC_TOL)}

    def digest(self, p, out):
        return _digest(out["H_eff"], out["linear"].states, out["agents"].states,
                       out["linear_sync"].error_series,
                       out["agents_sync"].error_series)

    def check(self, p, out):
        """Hurwitz design equal to the generator's, both simulators finite
        and agreeing to 1e-9 at every step."""
        linear, agents = out["linear"], out["agents"]
        H_ref = p["H_expected"]
        ok = (out["hurwitz"]
              and not linear.diverged and not agents.diverged
              and linear.states.shape == agents.states.shape
              and linear.times.shape[0] == self.steps + 1
              and np.abs(linear.states - agents.states).max() <= AGREEMENT
              and np.abs(out["H_eff"] - H_ref).max()
              <= EIG_AGREEMENT * max(1.0, np.abs(H_ref).max()))
        return bool(ok), {"designs": 1, "declined": int(not out["hurwitz"]),
                          "non_hurwitz": int(not out["hurwitz"])}


WORKLOADS = {
    "reproduce_linear": reproduce_linear,
    "chaotic_sweep": ChaoticSweep,
    "design_sweep": DesignSweep,
    "spotcheck_large": SpotcheckLarge,
}
