"""The package namespace: ``netsync`` re-exports exactly the public names
that its modules declare in ``__all__``, and importing it leaves scipy
unloaded until the Schur fallback of ``decompose`` needs it."""

import inspect
import json
import os
import subprocess
import sys

import numpy as np

import netsync
from netsync import (artifacts, coupling, decompose, duality, dynamics,
                     errors, gershgorin, graph)


def test_package_exports_each_module_all():
    modules = (errors, graph, gershgorin, coupling, duality, dynamics,
               artifacts)
    declared = set()
    for module in modules:
        for name in module.__all__:
            assert getattr(netsync, name) is getattr(module, name), name
        declared.update(module.__all__)
    public = {name for name in dir(netsync) if not name.startswith("_")
              and not inspect.ismodule(getattr(netsync, name))}
    assert public == declared


# Jordan block J = [[0, 1], [0, 0]] under S = [[2, 1], [1, 1]]: A = S J S^-1
# has no eigenbasis, so decompose takes the Schur block fallback
_JORDAN = [[-2.0, 4.0], [-1.0, 2.0]]

_COLD_START = """
import contextlib, io, json, os, sys
import netsync, netsync.cli
from netsync.scenarios import load_fixture
for name in ("example1", "example2", "example3", "rossler"):
    load_fixture(name)
files = {"path.json": {"directed": False,
                       "weights": [[0, 1, 0], [1, 0, 1], [0, 1, 0]]},
         "B.json": [[0.0], [1.0]], "K.json": [[1.0, 0.9]]}
path = lambda name: os.path.join(sys.argv[1], name)
for name, payload in files.items():
    with open(path(name), "w") as fh:
        json.dump(payload, fh)
with contextlib.redirect_stdout(io.StringIO()):
    codes = [netsync.cli.main(["spectrum", "--topology", path("path.json")]),
             netsync.cli.main(["dualize", "--B", path("B.json"),
                               "--K", path("K.json")])]
print(json.dumps({"codes": codes, "scipy": sorted(
    m for m in sys.modules if m.partition(".")[0] == "scipy")}))
"""

_JORDAN_DECOMPOSE = f"""
import json, sys
from netsync import decompose
loaded = "scipy.linalg" in sys.modules
d = decompose({_JORDAN!r})
print(json.dumps({{"loaded_before": loaded,
                   "loaded_after": "scipy.linalg" in sys.modules,
                   "blocks": d.defective_blocks,
                   "modal": d.modal_matrix.tobytes().hex()}}))
"""


def _fresh_python(code, *args):
    """Run code in a new interpreter that imports the same netsync as this
    one, and return what it prints as JSON."""
    src = os.path.dirname(os.path.dirname(netsync.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_cold_start_does_not_import_scipy(tmp_path):
    # importing the package and CLI, loading fixtures, and running the
    # spectrum and gain-to-h commands leave scipy unloaded
    result = _fresh_python(_COLD_START, str(tmp_path))
    assert result == {"codes": [0, 0], "scipy": []}


def test_schur_fallback_loads_scipy_on_demand():
    result = _fresh_python(_JORDAN_DECOMPOSE)
    d = decompose(np.array(_JORDAN))
    assert not result["loaded_before"] and result["loaded_after"]
    blocks = tuple(map(tuple, result["blocks"]))
    assert blocks == d.defective_blocks == ((0, 1),)
    assert result["modal"] == d.modal_matrix.tobytes().hex()
