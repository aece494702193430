"""netsync benchmark: one workload, one single-threaded closed loop.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload design_sweep --seed 1 --seconds 20 --trace 0

The workload's inputs come from ``--seed``.  Operations run one after the
other in this process (a closed loop with a single client); the harness
times each operation and checks its output outside the timed region.  A
pass is the workload's whole problem list; passes repeat until the next
one would overrun ``--seconds`` (at least one pass).  The first pass is
checked in full; every later pass must reproduce its output digests.

``--trace 0`` prints the end-to-end metrics.  Every operation runs
between two blocks of a fixed probe computation, and its time is scaled
to a reference speed by the probe's median speed over the blocks nearest
to it; the time metrics take each operation's median over the passes.
``setup_s`` is the median of ``SETUP_SAMPLES`` fresh processes started one
at a time between operations, spread over the run, scaled the same way.
``--trace 1`` runs untraced and traced passes in turn, and prints the
per-layer metrics of the traced passes, with the difference between the
two kinds as tracing overhead.  The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

netsync is imported from ``src/`` of the checkout and nowhere else; without
it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"      # before numpy loads its BLAS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "_out")
SETUP_SAMPLES = 10
SETUP_CODE = (
    "import time; start = time.perf_counter(); import sys; "
    "sys.path.insert(0, sys.argv[1]); import netsync, netsync.cli; "
    "from netsync.scenarios import load_fixture; "
    "[load_fixture(n) for n in ('example1', 'example2', 'example3', 'rossler')]; "
    "print(time.perf_counter() - start)"
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_netsync():
    """Import netsync from this checkout's ``src/``; exit 2 without it."""
    if not os.path.isfile(os.path.join(SRC, "netsync", "__init__.py")):
        print(f"netsync sources not found under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import netsync
    if not os.path.abspath(netsync.__file__).startswith(SRC + os.sep):
        print(f"netsync imported from {netsync.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)
    return netsync


def main(argv=None) -> int:
    args = parse_args(argv)
    import_netsync()
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import harness
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    out_dir = os.path.join(OUT, args.workload)
    os.makedirs(out_dir, exist_ok=True)

    workload = WORKLOADS[args.workload](args.seed, out_dir)
    if args.trace:
        result = harness.run_traced(workload, args.seconds,
                                    os.path.join(out_dir, "trace.jsonl"))
    else:
        probe = harness.SpeedProbe()
        setup = harness.SetupSamples(
            functools.partial(harness.setup_time, SETUP_CODE, SRC),
            SETUP_SAMPLES, args.seconds, probe)
        result = harness.run_untraced(workload, args.seconds, setup, probe)
    harness.report(result, args, ROOT, SRC, BLAS_THREAD_VARS)
    return 0


if __name__ == "__main__":
    sys.exit(main())
