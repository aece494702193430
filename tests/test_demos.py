"""Smoke test of the demos and the README quickstart: each runs to exit
0 with nothing on stderr, and the quickstart prints ``True``.

Demos 01-03 take under a second each.  04_chaotic_probe runs at a 2-s
horizon (about 2 s) instead of its default 100 s, whose three Rossler
runs the acceptance suite already covers (criterion 9).
"""

import os
import re
import subprocess
import sys

import pytest

import netsync

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = os.path.join(ROOT, "demos")


def _script_args(demo: str) -> list:
    """A demo's script and its arguments, or the README's only python
    block run with -c."""
    if demo != "README.md":
        script, *args = demo.split()
        return [os.path.join(DEMOS, script)] + args
    with open(os.path.join(ROOT, demo), encoding="utf-8") as fh:
        blocks = re.findall(r"^```python\n(.*?)^```$", fh.read(),
                            re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    return ["-c", blocks[0]]


@pytest.mark.parametrize("demo", ["01_laplacian_spectra.py",
                                  "02_inner_coupling_design.py",
                                  "03_consensus_duality.py",
                                  "04_chaotic_probe.py 2",
                                  "README.md"])
def test_demo_runs_cleanly(demo, tmp_path):
    # the child imports the same netsync as this process, installed or not
    src = os.path.dirname(os.path.dirname(netsync.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable] + _script_args(demo),
        capture_output=True, text=True, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path}, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout == "True\n" if demo == "README.md" else proc.stdout
