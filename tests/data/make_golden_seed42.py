"""Write ``golden_seed42.json``, the pin of what ``netsync reproduce all
--seed 42`` computes, beside this script.

    PYTHONPATH=src python tests/data/make_golden_seed42.py

The file holds:

* ``rossler``: the SHA-256 of every artifact of the two Rossler runs.
  Their bytes come from IEEE arithmetic in Python floats and numpy's
  PCG64 draws, so they are the same on any machine;
* ``linear``: for example1-4, the ``summary.json`` and
  ``design_report.json`` documents as written, and per trajectory a
  strided sample of rows and the per-column max |x|.  These numbers go
  through BLAS, whose kernel choice moves their last bits, so
  ``tests/test_golden.py`` compares them within tolerances, not bytes.

A change that means to move an output regenerates the file and says so.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile

import numpy as np

from netsync import scenarios
from netsync.artifacts import dump_json

SEED = 42
GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "golden_seed42.json")
LINEAR = ("example1", "example2", "example3", "example4")
ROSSLER = ("rossler", "rossler-baseline")
# rows sampled per trajectory, evenly spaced from the first to the last
SAMPLED_ROWS = 11


def _run(name: str):
    runner, kwargs = scenarios.SCENARIOS[name]
    return getattr(scenarios, f"run_{runner}")(seed=SEED, **kwargs)


def _as_written(obj):
    """obj as its artifact's JSON text reads back."""
    return json.loads(dump_json(obj))


def _samples(traj) -> dict:
    states = traj.states
    rows = np.unique(np.linspace(0, states.shape[0] - 1,
                                 SAMPLED_ROWS).round().astype(int))
    return {
        "n_times": int(states.shape[0]),
        "diverged": bool(traj.diverged),
        "rows": rows.tolist(),
        "states": states[rows].reshape(rows.size, -1).tolist(),
        "max_abs": np.abs(states).max(axis=0).ravel().tolist(),
    }


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def collect(out_dir: str) -> dict:
    """The golden document of today's code; the Rossler artifacts are
    written under out_dir to be hashed."""
    rossler = {}
    for name in ROSSLER:
        for path in scenarios.write_artifacts(_run(name), out_dir):
            rel = os.path.relpath(path, out_dir).replace(os.sep, "/")
            rossler[rel] = _sha256(path)
    linear = {}
    for name in LINEAR:
        result = _run(name)
        linear[name] = {
            "summary": _as_written({**result.summary,
                                    "verdict": result.verdict}),
            "design_report": _as_written(result.design),
            "trajectories": {variant: _samples(traj) for variant, traj
                             in result.trajectories.items()},
        }
    return {"seed": SEED, "rossler_sha256": rossler, "linear": linear}


def main() -> int:
    with tempfile.TemporaryDirectory() as out_dir:
        golden = collect(out_dir)
    with open(GOLDEN, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dump_json(golden))
    print(f"wrote {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
