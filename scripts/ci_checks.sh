#!/usr/bin/env bash
# The full-suite CI job's checks after pytest, one script that CI runs and
# that runs as it stands in a checkout:
#
#     bash scripts/ci_checks.sh
#
# Run it from anywhere; it works from the root of the checkout.  It uses
# the installed ``netsync`` console script when there is one, as in CI,
# and otherwise ``python3 -m netsync.cli`` on ``src/``.  Scratch files go
# to $RUNNER_TEMP when set, else to a temporary directory removed at exit.
# Each check prints a line; the first that fails stops the script with a
# non-zero status.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
export PYTHONPATH="$PWD/src${PYTHONPATH:+:$PYTHONPATH}"

if [ -n "${RUNNER_TEMP:-}" ]; then
  tmp="$RUNNER_TEMP"
else
  tmp="$(mktemp -d)"
  trap 'rm -rf "$tmp"' EXIT
fi

if command -v netsync > /dev/null; then
  netsync() { command netsync "$@"; }
else
  echo "no netsync console script installed: running python3 -m netsync.cli"
  netsync() { python3 -m netsync.cli "$@"; }
fi

check() { echo "ok: $*"; }

# the last line of a benchmark run's output as JSON, tested by a Python
# expression over it, r
result_holds() {
  python3 -c "import json, sys; r = json.loads(open(sys.argv[1]).read().splitlines()[-1]); sys.exit(0 if ($2) else 1)" "$1"
}

# the benchmark's tracer wraps netsync functions by name, so a rename in
# src/ that breaks one of its bindings fails here
python3 perfbench/selftest.py
check "benchmark self-test"

# the console script, which no test runs: a scenario of the table
netsync reproduce example1 --out "$tmp/runs" > /dev/null
check "reproduce example1"

# every scenario, run twice with seed 42 into two directories that diff -r
# must find equal
netsync reproduce all --seed 42 --out "$tmp/all" > /dev/null
netsync reproduce all --seed 42 --out "$tmp/all_again" > /dev/null
diff -r "$tmp/all" "$tmp/all_again"
check "reproduce all --seed 42 twice: equal trees"

# example3, whose undirected networks the linear stepper takes through the
# mode map builder, and example2, whose directed ones it takes through the
# dense map builder, each run twice with seed 7 into two directories that
# diff -r must find equal
for scenario in example3 example2; do
  netsync reproduce "$scenario" --seed 7 --out "$tmp/runs" > /dev/null
  netsync reproduce "$scenario" --seed 7 --out "$tmp/runs_again" > /dev/null
  diff -r "$tmp/runs/$scenario" "$tmp/runs_again/$scenario"
  check "reproduce $scenario --seed 7 twice: equal trees"
done

# the selector baseline by its own name, which couples through the
# selector matrix, run twice with one seed into two directories that
# diff -r must find equal, its summary reading "verdict": true
netsync reproduce rossler-baseline --t-end 5 --seed 42 --out "$tmp/runs" > /dev/null
netsync reproduce rossler-baseline --t-end 5 --seed 42 --out "$tmp/runs_again" > /dev/null
diff -r "$tmp/runs/rossler-baseline" "$tmp/runs_again/rossler-baseline"
python3 -c "import json, sys; sys.exit(0 if json.load(open(sys.argv[1]))['verdict'] is True else 1)" "$tmp/runs/rossler-baseline/summary.json"
check "reproduce rossler-baseline twice: equal trees, verdict true"

# a removed flag must be a usage error (exit 2)
code=0
netsync reproduce rossler --baseline --out "$tmp/runs" 2> /dev/null || code=$?
test "$code" -eq 2
check "reproduce rossler --baseline: exit 2"

# a design on the one-way 3-chain, whose Laplacian has no full eigenbasis
# (exit 0)
echo '{"directed": true, "weights": [[0, 0, 0], [1, 0, 0], [0, 1, 0]]}' > "$tmp/chain.json"
echo '[[0.0]]' > "$tmp/A.json"
netsync design --A "$tmp/A.json" --topology "$tmp/chain.json" --argument 150 > /dev/null
check "design on the one-way 3-chain: exit 0"

# the spectrum of the complete graph K_11, on which the general
# eigensolver leaves imaginary parts of order 1e-15, must be exactly real:
# every imaginary part and theta_max_radians 0
python3 -c "import json; n = 11; print(json.dumps({'directed': False, 'weights': [[float(i != j) for j in range(n)] for i in range(n)]}))" > "$tmp/k11.json"
netsync spectrum --topology "$tmp/k11.json" > "$tmp/k11_spectrum.json"
python3 -c "import json, sys; r = json.load(open(sys.argv[1])); sys.exit(0 if r['theta_max_radians'] == 0 and all(v[1] == 0 for v in r['eigenvalues']) else 1)" "$tmp/k11_spectrum.json"
check "spectrum of K_11: exactly real"

# one short run of each workload must be correct with no failed
# operation: chaotic_sweep checks all 128 full-length runs, both couplings
# stepped by the Python-float probe kernel, against the benchmark's own
# numpy RK4 of the probe's equations to 1e-9 (the selftest checks 20
# steps of one start), and reproduce_linear enters through
# netsync.cli.main, so a parser change that breaks it fails here
for workload in reproduce_linear chaotic_sweep design_sweep spotcheck_large; do
  python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 3 > "$tmp/$workload.out"
  result_holds "$tmp/$workload.out" "r['correct'] is True and r['failed'] == 0"
  check "benchmark $workload: correct, no failed operation"
done

# a traced design_sweep pass must be correct, with the directed designs'
# rotation certificates called and none of them raising
python3 perfbench/run.py --workload design_sweep --seed 1 --seconds 3 --trace 1 > "$tmp/design_trace.out"
result_holds "$tmp/design_trace.out" "r['correct'] is True and r['metrics']['gershgorin.rotation_admissible.errors']['value'] == 0 and r['metrics']['gershgorin.rotation_admissible.calls']['value'] > 0"
check "traced design_sweep: correct, rotation certificates called, none raising"

# the stiffness guard's norm bound clears every spotcheck_large run, so a
# traced pass must be correct with the guard solving nothing: no Laplacian
# spectrum and no stiffest_mode_modulus call in it (the eigh that splits
# an undirected network into modes is not a guard call and is not counted)
python3 perfbench/run.py --workload spotcheck_large --seed 1 --seconds 3 --trace 1 > "$tmp/spotcheck_trace.out"
result_holds "$tmp/spotcheck_trace.out" "r['correct'] is True and r['metrics']['graph.spectrum.sim_calls']['value'] == 0 and r['metrics']['coupling.stiffest_mode_modulus.calls']['value'] == 0"
check "traced spotcheck_large: correct, the stiffness guard solving nothing"

echo "all CI checks passed"
