"""Self-test of the benchmark at tiny sizes.

Run from the root of a checkout::

    python3 perfbench/selftest.py

It checks that every metric prints with a unit and matches BENCHMARK.json,
that tiny passes of each workload kind pass their checks untraced and
traced, that each check is live (a perturbed H_eff, a K off by 1e-6,
simulator trajectories off by 1e-8 and a flipped artifact byte each count
as a failed operation), that the speed probe scales a time by the
machine's measured speed, and that the benchmark exits non-zero without
printing a result when ``src/`` is missing.  Exits 1 if any test fails.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402  (pins the BLAS threads before numpy loads)

run.import_netsync()

import numpy as np  # noqa: E402

import harness  # noqa: E402
import workloads  # noqa: E402
from netsync import graph  # noqa: E402
from netsync.errors import NetsyncError  # noqa: E402
import tracer as tracer_module  # noqa: E402
from tracer import Tracer  # noqa: E402

FAILURES = []


def expect(name: str, condition: bool) -> None:
    print(f"{'ok  ' if condition else 'FAIL'} {name}")
    if not condition:
        FAILURES.append(name)


def tiny_design():
    return workloads.DesignSweep(7, run.OUT, reps=2, nodes=(4, 6), dims=(2, 4))


def tiny_chaotic():
    return workloads.ChaoticSweep(7, run.OUT, starts=1, steps=20)


def tiny_spotcheck():
    return workloads.SpotcheckLarge(7, run.OUT, reps=1, nodes=(8,),
                                    dims=(2, 3), steps=20)


def test_metric_tables():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    expect("end_to_end metrics match BENCHMARK.json",
           [(m["name"], m["unit"]) for m in spec["end_to_end"]]
           == list(harness.END_TO_END))
    expect("per_layer metrics match BENCHMARK.json",
           [(m["name"], m["unit"]) for m in spec["per_layer"]]
           == harness.per_layer_table())
    expect("workloads match BENCHMARK.json",
           [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS))


def test_tiny_passes():
    for make in (tiny_design, tiny_chaotic, tiny_spotcheck):
        workload = make()
        probe = harness.SpeedProbe()
        untraced = harness.run_untraced(
            workload, 0.0, harness.SetupSamples(lambda: 0.5, 2, 0.0, probe),
            probe)
        expect(f"{make.__name__}: untraced pass correct",
               untraced["failed"] == 0 and untraced["attempted"] > 0)
        expect(f"{make.__name__}: every end-to-end metric has a unit",
               set(untraced["metrics"]) == set(untraced["units"]))
        traced = harness.run_traced(workload, 0.0,
                                    os.path.join(run.OUT, "selftest_trace.jsonl"))
        expect(f"{make.__name__}: traced passes reproduce the untraced digests",
               traced["failed"] == 0)
        expect(f"{make.__name__}: every per-layer metric has a unit",
               list(traced["metrics"]) == [n for n, _ in harness.per_layer_table()])
        layers = sum(traced["metrics"][f"{layer}.self_s"] for layer in harness.LAYERS)
        expect(f"{make.__name__}: layer self times sum to the traced wall",
               abs(layers - traced["metrics"]["trace.wall_s"])
               <= 1e-6 * max(1.0, layers))


class SlowProbe(harness.SpeedProbe):
    """A probe whose every call takes at least 4 ms: a machine at a
    quarter of the reference speed or slower."""

    def _kernel(self):
        time.sleep(4 * harness.REF_S)


def test_speed_probe_scales_times():
    probe = SlowProbe()
    result, at = probe.around(lambda: 0.05)
    factor = probe.factors([at])[0]
    expect("a probe at a quarter of the reference speed quarters the "
           "reported time", result == 0.05 and len(probe.call_s) == 2
           and 0.15 <= factor <= 0.25)
    probe.call_s = [harness.REF_S] * 40 + [2 * harness.REF_S] * 40
    factors = probe.factors([0, 39, 79])
    expect("each time is scaled by the probe blocks nearest to it",
           np.allclose(factors, [1.0, 2.0 / 3.0, 0.5]))


def test_design_checks_are_live():
    workload = tiny_design()
    problem = next(p for p in workload.problems if not p["jordan"])
    out = workload.op(problem)
    expect("design check passes on the real output",
           workload.check(problem, out)[0])
    H = out["H_eff"].copy()
    H[0, 0] += 1e-4 * np.abs(H).max()
    expect("perturbed H_eff fails the design check",
           not workload.check(problem, {**out, "H_eff": H})[0])
    expect("K off by 1e-6 fails the duality check",
           not workload.check(problem, {**out, "K": out["K"] + 1e-6})[0])


def test_spotcheck_checks_are_live():
    workload = tiny_spotcheck()
    problem = workload.problems[0]
    out = workload.op(problem)
    expect("spotcheck passes on the real output",
           workload.check(problem, out)[0])
    linear = out["linear"]
    shifted = type(linear)(times=linear.times, states=linear.states + 1e-8,
                           diverged=linear.diverged)
    expect("simulators 1e-8 apart fail the agreement check",
           not workload.check(problem, {**out, "linear": shifted})[0])


def test_chaotic_check_is_live():
    workload = tiny_chaotic()
    problem = workload.problems[0]
    out = workload.op(problem)
    expect("chaotic check passes on the real output",
           workload.check(problem, out)[0])
    traj = out["traj"]
    shifted = type(traj)(times=traj.times, states=traj.states + 1e-8,
                         diverged=traj.diverged)
    expect("a trajectory 1e-8 off the reference RK4 fails the chaotic check",
           not workload.check(problem, {**out, "traj": shifted})[0])


class FlippedByte(workloads.Reproduce):
    """Flips one byte of a trajectory CSV after the first pass."""

    flip = False

    def op(self, args):
        code, out = super().op(args)
        if self.flip:
            path = os.path.join(out, args[0], "H1_trajectory.csv")
            with open(path, "r+b") as fh:
                fh.seek(100)
                byte = fh.read(1)
                fh.seek(100)
                fh.write(bytes([byte[0] ^ 1]))
        return code, out


def test_artifact_check_is_live():
    workload = FlippedByte((("example1",),), 7, os.path.join(run.OUT, "selftest"))
    reference = []
    first = harness.one_pass(workload, reference)
    second = harness.one_pass(workload, reference)
    expect("repeated reproduce passes are byte-identical",
           first["failed"] == 0 and second["failed"] == 0)
    workload.flip = True
    expect("a flipped artifact byte fails the digest check",
           harness.one_pass(workload, reference)["failed"] == 1)


def test_missing_sources():
    bare = os.path.join(run.OUT, "selftest_bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "design_sweep", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=bare, capture_output=True,
                          text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    expect("without src/ the benchmark exits non-zero and prints no result",
           done.returncode != 0 and "correct" not in done.stdout)


def test_tracer_counts_errors():
    tracer = Tracer(NetsyncError)

    def failing():
        raise NetsyncError("boom")

    wrapped = tracer.wrap("coupling.decompose", failing)
    try:
        wrapped()
    except NetsyncError:
        pass
    expect("tracer counts a NetsyncError and closes the span",
           tracer.errors["coupling.decompose"] == 1 and not tracer._stack
           and [span[1] for span in tracer.spans] == ["coupling.decompose"])


def test_tracer_rejects_missing_binding():
    saved = tracer_module.BINDINGS
    tracer_module.BINDINGS = saved + (
        ("netsync.graph", "no_such_function", "graph.no_such_function"),)
    try:
        Tracer(NetsyncError).install()
        raised = False
    except AttributeError:
        raised = True
    finally:
        tracer_module.BINDINGS = saved
    expect("a missing traced binding is an error and leaves netsync unwrapped",
           raised and not hasattr(graph.spectrum, "__wrapped__"))


def main() -> int:
    os.makedirs(run.OUT, exist_ok=True)
    test_metric_tables()
    test_tracer_counts_errors()
    test_tracer_rejects_missing_binding()
    test_speed_probe_scales_times()
    test_design_checks_are_live()
    test_spotcheck_checks_are_live()
    test_chaotic_check_is_live()
    test_tiny_passes()
    test_artifact_check_is_live()
    test_missing_sources()
    print(f"{len(FAILURES)} failed" if FAILURES else "all self-tests passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
