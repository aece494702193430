"""In-memory span tracer for the benchmark's traced runs.

The tracer wraps netsync's public functions from outside the package: for
each binding in ``BINDINGS`` it replaces the name in the module that looks
it up (``netsync.dynamics.spectrum``, ``netsync.scenarios.simulate_linear``,
...) with a wrapper that records one span per call.  Nothing under ``src/``
changes.

A span holds its id, name, start, end, parent span id and the id of the
benchmark operation it belongs to.  Spans stay in memory until the run
ends.  Self time is a span's duration minus the durations of its direct
children; the run is single-threaded, so children never overlap.
"""

from __future__ import annotations

import importlib
import json
from collections import defaultdict
from time import perf_counter

# (module that looks the name up, attribute, traced function name).  The
# traced name is ``<layer>.<function>``; ``graph.spectrum_sim`` is the
# Laplacian spectrum that the simulators compute during their set-up.
BINDINGS = (
    ("netsync.cli", "main", "cli.main"),
    ("netsync.scenarios", "run_example1", "scenarios.run"),
    ("netsync.scenarios", "run_example2", "scenarios.run"),
    ("netsync.scenarios", "run_example3", "scenarios.run"),
    ("netsync.scenarios", "run_example4", "scenarios.run"),
    ("netsync.scenarios", "write_artifacts", "scenarios.write_artifacts"),
    ("netsync.scenarios", "write_trajectory_csv", "dynamics.write_trajectory_csv"),
    ("netsync.graph", "build_laplacian", "graph.build_laplacian"),
    ("netsync.graph", "spectrum", "graph.spectrum"),
    ("netsync.scenarios", "spectrum", "graph.spectrum"),
    ("netsync.dynamics", "spectrum", "graph.spectrum_sim"),
    ("netsync.coupling", "decompose", "coupling.decompose"),
    ("netsync.scenarios", "decompose", "coupling.decompose"),
    ("netsync.coupling", "design_undirected", "coupling.design_undirected"),
    ("netsync.coupling", "design_directed", "coupling.design_directed"),
    ("netsync.scenarios", "design_directed", "coupling.design_directed"),
    ("netsync.coupling", "realize", "coupling.realize"),
    ("netsync.scenarios", "realize", "coupling.realize"),
    ("netsync.coupling", "verify", "coupling.verify"),
    ("netsync.scenarios", "verify", "coupling.verify"),
    ("netsync.dynamics", "stiffest_mode_modulus", "coupling.stiffest_mode_modulus"),
    ("netsync.gershgorin", "rotation_admissible", "gershgorin.rotation_admissible"),
    ("netsync.duality", "h_from_gain", "duality.h_from_gain"),
    ("netsync.scenarios", "h_from_gain", "duality.h_from_gain"),
    ("netsync.duality", "gain_from_h", "duality.gain_from_h"),
    ("netsync.scenarios", "gain_from_h", "duality.gain_from_h"),
    ("netsync.duality", "recovery_residual", "duality.recovery_residual"),
    ("netsync.scenarios", "recovery_residual", "duality.recovery_residual"),
    ("netsync.duality", "controllability", "duality.controllability"),
    ("netsync.scenarios", "controllability", "duality.controllability"),
    ("netsync.dynamics", "simulate_linear", "dynamics.simulate_linear"),
    ("netsync.scenarios", "simulate_linear", "dynamics.simulate_linear"),
    ("netsync.dynamics", "simulate_agents", "dynamics.simulate_agents"),
    ("netsync.scenarios", "simulate_agents", "dynamics.simulate_agents"),
    ("netsync.dynamics", "simulate_nonlinear", "dynamics.simulate_nonlinear"),
    ("netsync.dynamics", "rossler_jacobian_parts", "dynamics.rossler_jacobian_parts"),
    ("netsync.dynamics", "design_nonlinear_coupling", "dynamics.design_nonlinear_coupling"),
    ("netsync.dynamics", "build_three_oscillator", "dynamics.build_three_oscillator"),
    ("netsync.dynamics", "sync_error", "dynamics.sync_error"),
    ("netsync.scenarios", "sync_error", "dynamics.sync_error"),
    ("netsync.scenarios", "component_settle_times", "dynamics.component_settle_times"),
    ("netsync.dynamics", "rms_amplitude", "dynamics.rms_amplitude"),
)


def _steps(args, kwargs, result):
    return {"steps": result.times.shape[0] - 1}


def _rows(args, kwargs, result):
    traj = args[0]
    return {"rows": traj.times.shape[0] * traj.n_nodes}


def _samples(args, kwargs, result):
    return {"samples": args[0].times.shape[0]}


def _modes(args, kwargs, result):
    return {"modes": len(result.modes), "hurwitz": int(result.overall_hurwitz)}


def _admitted(args, kwargs, result):
    return {"admitted": int(bool(result))}


# Work counts taken from a call's arguments or result, by traced name.
QUANTITIES = {
    "dynamics.simulate_linear": _steps,
    "dynamics.simulate_agents": _steps,
    "dynamics.simulate_nonlinear": _steps,
    "dynamics.write_trajectory_csv": _rows,
    "dynamics.sync_error": _samples,
    "dynamics.component_settle_times": _samples,
    "dynamics.rms_amplitude": _samples,
    "coupling.verify": _modes,
    "gershgorin.rotation_admissible": _admitted,
}


class Tracer:
    """Records nested spans, and per-function error and work counts."""

    def __init__(self, error_type):
        self._error_type = error_type
        self._next_id = 0
        self._stack = []        # [span id, child duration] per open span
        self.op_id = 0
        self.spans = []         # (id, name, start, end, parent id, op id, self)
        self.errors = defaultdict(int)
        self.counts = defaultdict(lambda: defaultdict(int))
        self._installed = []

    def begin(self):
        frame = [self._next_id, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame, perf_counter()

    def end(self, name, frame, start):
        stop = perf_counter()
        self._stack.pop()
        duration = stop - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[1] += duration
        self.spans.append((frame[0], name, start, stop,
                           parent[0] if parent is not None else None,
                           self.op_id, duration - frame[1]))
        return duration

    def wrap(self, name, fn):
        quantity = QUANTITIES.get(name)
        tracer = self

        def traced(*args, **kwargs):
            frame, start = tracer.begin()
            try:
                result = fn(*args, **kwargs)
            except tracer._error_type:
                tracer.errors[name] += 1
                raise
            finally:
                tracer.end(name, frame, start)
            if quantity is not None:
                for key, value in quantity(args, kwargs, result).items():
                    tracer.counts[name][key] += value
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Replace every binding.  A missing one is an error, so a renamed
        function cannot read as one that was never called."""
        for module_name, attr, name in BINDINGS:
            module = importlib.import_module(module_name)
            if not hasattr(module, attr):
                self.uninstall()
                raise AttributeError(f"cannot trace {name}: "
                                     f"{module_name}.{attr} does not exist")
            original = getattr(module, attr)
            setattr(module, attr, self.wrap(name, original))
            self._installed.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def totals(self, op_ids):
        """Per traced name: [self seconds, inclusive seconds, calls] over
        the spans of the given operations."""
        out = defaultdict(lambda: [0.0, 0.0, 0])
        for _, name, start, stop, _, op, self_s in self.spans:
            if op in op_ids:
                entry = out[name]
                entry[0] += self_s
                entry[1] += stop - start
                entry[2] += 1
        return out

    def write(self, path):
        """Write the spans as JSON lines, one span per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, stop, parent, op, _ in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": stop, "parent": parent,
                                     "op": op}) + "\n")
