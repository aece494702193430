"""Closed-loop pass runner, metric tables and result printing."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import traceback
from collections import Counter
from time import perf_counter

import numpy as np
import scipy

from netsync.errors import NetsyncError
from tracer import Tracer

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

LAYERS = ("graph", "gershgorin", "coupling", "duality", "dynamics",
          "scenarios", "cli", "bench")

# (traced name, time quantity, work count dividing the self time).  Every
# function also reports ``.calls`` and ``.errors`` per pass.
FUNCTIONS = (
    ("graph.build_laplacian", "us_per_call", None),
    ("graph.spectrum", "us_per_call", None),
    ("coupling.decompose", "us_per_call", None),
    ("coupling.design_undirected", "us_per_call", None),
    ("coupling.design_directed", "us_per_call", None),
    ("coupling.realize", "us_per_call", None),
    ("coupling.verify", "us_per_call", None),
    ("coupling.stiffest_mode_modulus", "us_per_call", None),
    ("gershgorin.rotation_admissible", "us_per_call", None),
    ("duality.h_from_gain", "us_per_call", None),
    ("duality.gain_from_h", "us_per_call", None),
    ("duality.recovery_residual", "us_per_call", None),
    ("duality.controllability", "us_per_call", None),
    ("dynamics.simulate_linear", "us_per_step", "steps"),
    ("dynamics.simulate_agents", "us_per_step", "steps"),
    ("dynamics.simulate_nonlinear", "us_per_step", "steps"),
    ("dynamics.write_trajectory_csv", "us_per_row", "rows"),
    ("dynamics.sync_error", "us_per_sample", "samples"),
    ("dynamics.component_settle_times", "us_per_sample", "samples"),
    ("dynamics.rms_amplitude", "us_per_sample", "samples"),
    ("scenarios.run", "self_s", "pass"),
    ("scenarios.write_artifacts", "s", "pass"),
    ("cli.main", "self_s", "pass"),
)

UNITS = {"us_per_call": "us", "us_per_step": "us", "us_per_row": "us",
         "us_per_sample": "us", "self_s": "s", "s": "s"}


def per_layer_table():
    """Every per-layer metric name with its unit, in print order."""
    table = [(f"{layer}.self_s", "s") for layer in LAYERS]
    table += [("trace.wall_s", "s"), ("trace.untraced_wall_s", "s"),
              ("trace.overhead_s", "s"), ("trace.pairs", "count"),
              ("trace.spans", "count"), ("trace.span_cost_s", "s")]
    for name, quantity, work in FUNCTIONS:
        table.append((f"{name}.{quantity}", UNITS[quantity]))
        table.append((f"{name}.calls", "count"))
        table.append((f"{name}.errors", "count"))
        if work in ("steps", "rows"):
            table.append((f"{name}.{work}", "count"))
    table += [
        ("graph.spectrum.sim_us_per_call", "us"),
        ("graph.spectrum.sim_calls", "count"),
        ("coupling.verify.us_per_mode", "us"),
        ("coupling.verify.hurwitz_ratio", "ratio"),
        ("coupling.verify.non_hurwitz", "count"),
        ("coupling.verify.unresolved", "count"),
        ("gershgorin.rotation_admissible.admitted_ratio", "ratio"),
        ("scenarios.write_artifacts.mb", "MB"),
        ("fail_ratio", "ratio"),
    ]
    return table


def setup_time(code: str, src: str) -> float:
    """Set-up time of one fresh process: the child times its own import of
    netsync and loading of the bundled fixtures and prints the seconds."""
    done = subprocess.run([sys.executable, "-c", code, src], check=True,
                          capture_output=True, text=True, timeout=120)
    return float(done.stdout.split()[-1])


class SpeedProbe:
    """A fixed computation, timed next to every operation, that gauges how
    fast the machine runs during a run.

    This benchmark's home is a shared 2-vCPU VM whose speed swings by up
    to 2x for minutes at a time, with no steal time: the CPU itself runs
    slower, so process CPU time swings as much as wall time.  One call of
    the kernel does the same kind of work as netsync (a short RK4 loop on
    small numpy arrays and one LAPACK eigenvalue call) and takes about
    ``REF_S`` on that machine when it is quiet.  If a call takes ``t``
    seconds at the median over the ``NEAREST`` probe blocks nearest to an
    operation, the operation's time is reported as ``time * REF_S / t``:
    the time it would take at the reference speed.  A single block is too
    short to gauge the speed (its calls vary by 2x from block to block),
    and a median over the whole run misses a change of speed within it.
    The kernel is the benchmark's own code, so a change to netsync moves
    only the time being scaled.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self._M = 0.3 * rng.normal(size=(12, 12)) - 2.0 * np.eye(12)
        self._E = rng.normal(size=(24, 24))
        self.call_s = []        # seconds per call, one entry per block

    def _kernel(self):
        M, h = self._M, 1e-3
        x = np.ones(12)
        for _ in range(40):
            k1 = M @ x
            k2 = M @ (x + 0.5 * h * k1)
            k3 = M @ (x + 0.5 * h * k2)
            k4 = M @ (x + h * k3)
            x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        np.linalg.eigvals(self._E)

    def _block(self):
        start = perf_counter()
        for _ in range(PROBE_CALLS):
            self._kernel()
        self.call_s.append((perf_counter() - start) / PROBE_CALLS)

    def around(self, fn):
        """``fn()`` between two probe blocks; returns fn's result and the
        index of the first block, which ``factors`` takes."""
        at = len(self.call_s)
        self._block()
        result = fn()
        self._block()
        return result, at

    def factors(self, at) -> np.ndarray:
        """Factor that scales each timed call, by the index ``around``
        returned for it, to the reference speed."""
        call_s = np.array(self.call_s)
        first = np.clip(np.asarray(at) + 1 - NEAREST // 2, 0,
                        max(0, len(call_s) - NEAREST))
        return np.array([REF_S / np.median(call_s[i:i + NEAREST])
                         for i in first.ravel()]).reshape(np.shape(at))


REF_S = 1e-3        # one probe call at the reference speed
PROBE_CALLS = 2     # probe calls on each side of an operation
NEAREST = 16        # probe blocks whose median gauges an operation's speed


class SetupSamples:
    """Set-up times taken one at a time between operations, spread evenly
    over the run, each between two probe blocks."""

    def __init__(self, sample, count: int, seconds: float, probe: SpeedProbe):
        self._sample, self._count, self._probe = sample, count, probe
        self._interval = seconds / count
        self._due = perf_counter()
        self.times, self.probe_at = [], []

    def _take(self):
        seconds, at = self._probe.around(self._sample)
        self.times.append(seconds)
        self.probe_at.append(at)

    def between_ops(self):
        if len(self.times) < self._count and perf_counter() >= self._due:
            self._take()
            self._due = perf_counter() + self._interval

    def finish(self) -> list:
        while len(self.times) < self._count:
            self._take()
        return self.times


def _timed(workload, problem, tracer):
    """(seconds, output) of one operation; output None if it crashed."""
    if tracer is not None:
        frame, start = tracer.begin()
    else:
        start = perf_counter()
    try:
        output = workload.op(problem)
    except Exception:  # a crashed operation counts as failed
        output = None
        traceback.print_exc(file=sys.stderr)
    if tracer is not None:
        return tracer.end("bench.op", frame, start), output
    return perf_counter() - start, output


def one_pass(workload, reference: list, tracer=None, after_op=None,
             probe=None) -> dict:
    """Run every problem once.  The first pass (empty ``reference``) is
    checked in full and fills ``reference`` with each output's digest and
    tally; a later pass must reproduce the digests, so it has the same
    tallies.  With a ``probe``, each operation runs between two probe
    blocks, and ``probe_at`` holds their index."""
    first = not reference
    op_s, op_ids, probe_at, tally = [], [], [], Counter()
    failed = 0
    for i, problem in enumerate(workload.problems):
        if tracer is not None:
            tracer.op_id += 1
            op_ids.append(tracer.op_id)
        if probe is not None:
            (seconds, output), at = probe.around(
                lambda: _timed(workload, problem, tracer))
            probe_at.append(at)
        else:
            seconds, output = _timed(workload, problem, tracer)
        op_s.append(seconds)
        if output is None:
            ok, counts, digest = False, {}, None
        elif first:
            ok, counts = workload.check(problem, output)
            digest = workload.digest(problem, output)
        else:
            digest = workload.digest(problem, output)
            ok, counts = reference[i][0] == digest, reference[i][1]
        if first:
            reference.append((digest, counts))
        failed += not ok
        tally.update(counts)
        if after_op is not None:
            after_op()
    return {"op_s": op_s, "op_ids": op_ids, "probe_at": probe_at,
            "wall_s": sum(op_s), "failed": failed, "attempted": len(op_s),
            "tally": tally}


def _output_digest(reference: list) -> str:
    """One digest over every operation's output digest."""
    return hashlib.sha256(repr([d for d, _ in reference]).encode()).hexdigest()


def repeat(step, seconds: float) -> None:
    """Call ``step`` until the next call would overrun ``seconds`` (at
    least once)."""
    start = perf_counter()
    calls = 0
    while True:
        step()
        calls += 1
        if (perf_counter() - start) * (calls + 1) / calls > seconds:
            return


def _best(passes):
    """Index of each operation's fastest pass, and that time.

    The traced run compares traced and untraced instances of the same
    operations by their best times, unscaled."""
    op_s = np.array([p["op_s"] for p in passes])
    fastest = op_s.argmin(axis=0)
    return fastest, op_s[fastest, np.arange(op_s.shape[1])]


def _outcome(passes):
    return (sum(p["attempted"] for p in passes),
            sum(p["failed"] for p in passes))


def run_untraced(workload, seconds: float, setup: SetupSamples,
                 probe: SpeedProbe) -> dict:
    """Passes until the next would overrun ``seconds``.  The metrics take
    each operation's median time over the passes, each time scaled to the
    reference speed by the probe blocks nearest to it."""
    reference, passes = [], []
    setup.between_ops()
    repeat(lambda: passes.append(one_pass(
        workload, reference, after_op=setup.between_ops, probe=probe)), seconds)
    setup_s = setup.finish()
    op_s = np.array([p["op_s"] for p in passes])
    factors = probe.factors([p["probe_at"] for p in passes])
    raw_ms = 1e3 * np.median(op_s, axis=0)
    op_ms = 1e3 * np.median(op_s * factors, axis=0)
    setup_scaled = np.array(setup_s) * probe.factors(setup.probe_at)
    attempted, failed = _outcome(passes)
    metrics = {
        "setup_s": float(np.median(setup_scaled)),
        "wall_s": float(op_ms.sum()) / 1e3,
        "op_p50_ms": float(np.percentile(op_ms, 50)),
        "op_p90_ms": float(np.percentile(op_ms, 90)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    info = {"passes": len(passes), "operations": int(op_ms.size),
            "speed_factor": float(np.median(factors)),
            "unscaled": {"setup_s": float(np.median(setup_s)),
                         "wall_s": float(raw_ms.sum()) / 1e3,
                         "op_p50_ms": float(np.percentile(raw_ms, 50)),
                         "op_p90_ms": float(np.percentile(raw_ms, 90))},
            "setup_samples_s": setup_s, "output_digest": _output_digest(reference),
            "pass_wall_s": [p["wall_s"] for p in passes],
            "artifact_mb": passes[0]["tally"]["artifact_bytes"] / 1e6}
    return {"attempted": attempted, "failed": failed, "metrics": metrics,
            "units": dict(END_TO_END), "info": info}


def run_traced(workload, seconds: float, trace_path: str) -> dict:
    """Untraced and traced passes in turn, each kind first in every other
    pair, so that drift in the machine's speed and the first pass's extra
    cost fall on both alike; the tracing overhead is the difference of
    their per-operation best times."""
    reference, untraced, traced = [], [], []
    tracer = Tracer(NetsyncError)

    def pair():
        traced_first = len(traced) % 2 == 1
        for with_tracer in (traced_first, not traced_first):
            if not with_tracer:
                untraced.append(one_pass(workload, reference))
                continue
            tracer.install()
            try:
                traced.append(one_pass(workload, reference, tracer))
            finally:
                tracer.uninstall()

    repeat(pair, seconds)
    tracer.write(trace_path)
    attempted, failed = _outcome(untraced + traced)
    metrics = layer_metrics(tracer, untraced, traced, attempted, failed)
    info = {"untraced_passes": len(untraced), "traced_passes": len(traced),
            "output_digest": _output_digest(reference),
            "tracing_overhead_s": metrics["trace.overhead_s"],
            "tracing_overhead_resolved": len(traced) > 1}
    return {"attempted": attempted, "failed": failed, "metrics": metrics,
            "units": dict(per_layer_table()), "info": info}


def layer_metrics(tracer, untraced, traced, attempted, failed) -> dict:
    """Per-layer metrics from each operation's fastest traced instance;
    counts are per pass, which every traced pass repeats exactly."""
    n_pass = len(traced)
    fastest, traced_best = _best(traced)
    op_ids = {traced[k]["op_ids"][i] for i, k in enumerate(fastest)}
    totals = tracer.totals(op_ids)
    tally = traced[0]["tally"]
    counts = tracer.counts

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(entry[0] for name, entry in totals.items()
                                   if name.split(".", 1)[0] == layer)
    m["trace.wall_s"] = float(traced_best.sum())
    m["trace.untraced_wall_s"] = float(_best(untraced)[1].sum())
    m["trace.overhead_s"] = m["trace.wall_s"] - m["trace.untraced_wall_s"]
    m["trace.pairs"] = n_pass
    m["trace.spans"] = sum(entry[2] for entry in totals.values())
    m["trace.span_cost_s"] = m["trace.spans"] * span_cost_s()
    for name, quantity, work in FUNCTIONS:
        self_s, total_s, calls = totals[name] if name in totals else (0.0, 0.0, 0)
        if name == "scenarios.write_artifacts":
            value = total_s
        elif work == "pass":
            value = self_s
        else:
            value = 1e6 * ratio(self_s, counts[name][work] / n_pass if work else calls)
        m[f"{name}.{quantity}"] = value
        m[f"{name}.calls"] = calls
        m[f"{name}.errors"] = tracer.errors.get(name, 0) / n_pass
        if work in ("steps", "rows"):
            m[f"{name}.{work}"] = counts[name][work] / n_pass
    sim_self, _, sim_calls = totals.get("graph.spectrum_sim", (0.0, 0.0, 0))
    m["graph.spectrum.sim_us_per_call"] = 1e6 * ratio(sim_self, sim_calls)
    m["graph.spectrum.sim_calls"] = sim_calls
    verify = counts["coupling.verify"]
    m["coupling.verify.us_per_mode"] = 1e6 * ratio(
        totals["coupling.verify"][0] if "coupling.verify" in totals else 0.0,
        verify["modes"] / n_pass)
    if tally["designs"]:
        m["coupling.verify.hurwitz_ratio"] = ratio(
            tally["designs"] - tally["declined"], tally["designs"])
    else:
        m["coupling.verify.hurwitz_ratio"] = ratio(
            verify["hurwitz"] / n_pass, m["coupling.verify.calls"])
    m["coupling.verify.non_hurwitz"] = tally["non_hurwitz"]
    m["coupling.verify.unresolved"] = tally["unresolved"]
    admitted = counts["gershgorin.rotation_admissible"]["admitted"] / n_pass
    m["gershgorin.rotation_admissible.admitted_ratio"] = ratio(
        admitted, m["gershgorin.rotation_admissible.calls"])
    m["scenarios.write_artifacts.mb"] = tally["artifact_bytes"] / 1e6
    declined = sum(p["tally"]["declined"] for p in untraced + traced)
    m["fail_ratio"] = ratio(failed + declined, attempted)
    return m


def span_cost_s(calls: int = 2000, blocks: int = 5) -> float:
    """Seconds one span adds: a traced no-op against a bare one, each the
    best of ``blocks`` blocks of ``calls`` calls."""
    def noop():
        return None

    traced = Tracer(NetsyncError).wrap("calibration", noop)

    def best(fn):
        times = []
        for _ in range(blocks):
            start = perf_counter()
            for _ in range(calls):
                fn()
            times.append(perf_counter() - start)
        return min(times)

    return max(0.0, best(traced) - best(noop)) / calls


def _commit(root: str):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _src_digest(src: str) -> str:
    h = hashlib.sha256()
    for root, dirs, files in os.walk(os.path.join(src, "netsync")):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            path = os.path.join(root, name)
            h.update(os.path.relpath(path, src).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def report(result: dict, args, root: str, src: str, blas_vars) -> None:
    """Print each metric with its unit, a provenance line, and the result
    object as the last line of standard output."""
    units = result["units"]
    for name, value in result["metrics"].items():
        print(f"{name} = {value:.6g} {units[name]}")
    provenance = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "blas_threads": {var: os.environ.get(var) for var in blas_vars},
        "commit": _commit(root), "src_sha256": _src_digest(src),
        **result["info"],
    }
    print(json.dumps({"provenance": provenance}))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in result["metrics"].items()},
    }))
