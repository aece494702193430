"""Smoke test of the demos: each runs to exit 0 with nothing on stderr.

Demos 01-03 take under a second each.  04_chaotic_probe is left out: it
integrates the three-oscillator Rossler probe for about 20 s, and the
acceptance suite already runs that scenario (criterion 9).
"""

import os
import subprocess
import sys

import pytest

import netsync

DEMOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "demos")


@pytest.mark.parametrize("demo", ["01_laplacian_spectra.py",
                                  "02_inner_coupling_design.py",
                                  "03_consensus_duality.py"])
def test_demo_runs_cleanly(demo, tmp_path):
    # the child imports the same netsync as this process, installed or not
    src = os.path.dirname(os.path.dirname(netsync.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, os.path.join(DEMOS, demo)],
        capture_output=True, text=True, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path}, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout
