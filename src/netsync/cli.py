"""Command-line front end.

Subcommands: ``spectrum`` (Laplacian spectrum of a topology file),
``design`` (inner coupling synthesis + verification), ``dualize``
(coupling matrix <-> feedback gain), and ``reproduce`` (run a bundled
reference scenario and write its artifacts).

Exit codes: 0 on success (or a reproduce scenario meeting its contracted
verdict), 1 on a domain failure (defective dynamics, margin violations,
rank gates) or an unmet verdict, 2 on usage, file, or validation errors.
Only a raised NetsyncError writes its name to stderr.  An unmet verdict,
a design that is not Hurwitz or a scenario that misses its contracted
outcome, writes its report or ``verdict-failed`` status line to stdout.
It writes nothing to stderr, except that a ``reproduce`` run may print
the simulators' stiffness warning (``stiffest mode modulus ... expect
instability``) there.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import scenarios
from .artifacts import atomic_write_text, dump_json
from .coupling import (
    decompose,
    design_directed,
    design_report,
    design_undirected,
    realize,
    verify,
)
from .duality import (
    controllability,
    gain_from_h,
    h_from_gain,
    pseudo_inverse,
    recovery_residual,
)
from .errors import DimensionMismatch, InvalidInput, NetsyncError, _json_matrix
from .graph import build_laplacian, is_connected, load_topology, spectrum

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2

# Errors that signal a malformed request rather than a failed computation;
# a matrix file of the wrong shape is one.
_USAGE_ERRORS = (InvalidInput, DimensionMismatch)


def _fail(exc: NetsyncError) -> int:
    print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
    return EXIT_USAGE if isinstance(exc, _USAGE_ERRORS) else EXIT_DOMAIN


def _load_matrix(path) -> np.ndarray:
    """Row-major JSON array-of-arrays matrix file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InvalidInput(f"cannot read matrix file {path}: {exc}") from exc
    m = _json_matrix(str(path), payload)
    if m.ndim == 1:
        m = m.reshape(-1, 1)
    if m.ndim != 2:
        raise InvalidInput(f"{path} must hold a 2-D array")
    if not np.isfinite(m).all():
        raise InvalidInput(f"{path} has non-finite entries")
    return m


def _emit(payload: dict, out_dir, filename: str) -> None:
    text = dump_json(payload)
    if out_dir is None:
        sys.stdout.write(text)
        return
    try:
        os.makedirs(out_dir, exist_ok=True)
        atomic_write_text(os.path.join(out_dir, filename), text)
    except OSError as exc:
        raise InvalidInput(f"cannot write artifacts: {exc}") from exc


def _cmd_spectrum(args) -> int:
    topology = load_topology(args.topology)
    lap = build_laplacian(topology)
    lap_spec = spectrum(lap)
    payload = {
        "eigenvalues": [[v.real, v.imag] for v in lap_spec.eigenvalues],
        "lambda2": [lap_spec.lambda2.real, lap_spec.lambda2.imag],
        "theta_max_radians": lap_spec.theta_max,
        "theta_max_degrees": float(np.degrees(lap_spec.theta_max)),
        "connected": is_connected(lap_spec),
    }
    _emit(payload, args.out, "spectrum.json")
    return EXIT_OK


def _parse_poles(text, n: int):
    if text is None:
        return None
    try:
        poles = [float(p) for p in text.split(",") if p.strip()]
    except ValueError as exc:
        raise InvalidInput(f"--poles must be comma-separated reals: {exc}") from exc
    if not np.isfinite(poles).all():
        raise InvalidInput("--poles must be finite")
    if len(poles) == 1:
        poles = poles * n
    if len(poles) != n:
        raise InvalidInput(f"need 1 or {n} poles, got {len(poles)}")
    return poles


def _cmd_design(args) -> int:
    if not (np.isfinite(args.sigma) and args.sigma > 0.0):
        raise InvalidInput("--sigma must be positive and finite")
    if not np.isfinite(args.margin):
        raise InvalidInput("--margin must be finite")
    if args.argument is not None and not np.isfinite(args.argument):
        raise InvalidInput("--argument must be finite")
    A = _load_matrix(args.A)
    topology = load_topology(args.topology)
    if topology.directed != (args.argument is not None):
        raise InvalidInput("a directed topology requires --argument (degrees), "
                           "an undirected one takes none")

    lap_spec = spectrum(build_laplacian(topology))
    if not is_connected(lap_spec):
        raise InvalidInput("topology is not connected; no design exists")
    decomp = decompose(A)
    poles = _parse_poles(args.poles, decomp.n)
    if not topology.directed:
        spec = design_undirected(decomp, lap_spec.lambda2.real, poles=poles,
                                 margin=args.margin, sigma=args.sigma)
    else:
        spec = design_directed(decomp, lap_spec.lambda2, lap_spec.theta_max,
                               argument=float(np.radians(args.argument)),
                               poles=poles, margin=args.margin,
                               sigma=args.sigma)
    mats = realize(spec, decomp)
    analysis = verify(A, mats.H_eff, args.sigma, lap_spec)
    payload = design_report(spec, mats, analysis)
    _emit(payload, args.out, "design_report.json")
    return EXIT_OK if analysis.overall_hurwitz else EXIT_DOMAIN


def _cmd_dualize(args) -> int:
    B = _load_matrix(args.B)
    if args.K is not None:
        K = _load_matrix(args.K)
        H_paper = h_from_gain(B, K)
        residual = 0.0
    else:
        H_paper = _load_matrix(args.H)
        K = gain_from_h(B, H_paper)
        residual = recovery_residual(B, H_paper, K)
    payload = {"B": B.tolist(), "K": K.tolist(), "H_paper": H_paper.tolist(),
               "H_eff": (-H_paper).tolist(), "residual": residual}
    if args.H is not None:
        payload["pseudo_inverse"] = pseudo_inverse(B).tolist()
    if args.A is not None:
        A = _load_matrix(args.A)
        rank = controllability(A, B)
        payload["controllability_rank"] = rank
        payload["controllable"] = bool(rank == A.shape[0])
    _emit(payload, args.out, "dualize_report.json")
    return EXIT_OK


def _cmd_reproduce(args) -> int:
    if args.seed < 0:
        raise InvalidInput("--seed must be a nonnegative integer")
    names = scenarios.SCENARIOS if args.name == "all" else [args.name]
    overrides = {key: value for key, value in
                 (("t_end", args.t_end), ("dt", args.dt)) if value is not None}

    all_ok = True
    for name in names:
        runner, kwargs = scenarios.SCENARIOS[name]
        # looked up per run, so a runner wrapped after import (perfbench's
        # tracer, a test's stub) is the one that runs
        result = getattr(scenarios, f"run_{runner}")(
            seed=args.seed, **overrides, **kwargs)
        try:
            written = scenarios.write_artifacts(result, args.out)
        except OSError as exc:
            raise InvalidInput(f"cannot write artifacts: {exc}") from exc
        status = "ok" if result.verdict else "verdict-failed"
        print(f"{result.name}: {status} ({len(written)} artifacts in "
              f"{os.path.join(args.out, result.name)})")
        all_ok = all_ok and result.verdict
    return EXIT_OK if all_ok else EXIT_DOMAIN


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netsync",
        description="Design, dualize, verify, and simulate inner coupling "
                    "matrices for diffusively coupled linear networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="Laplacian spectrum of a topology file")
    p.add_argument("--topology", required=True, help="topology JSON file")
    p.add_argument("--out", default=None, help="output directory (default: stdout)")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("design", help="synthesize and verify an inner coupling matrix")
    p.add_argument("--A", required=True, help="node dynamic matrix JSON file")
    p.add_argument("--topology", required=True, help="topology JSON file")
    target = p.add_mutually_exclusive_group()
    target.add_argument("--poles", default=None,
                        help="comma-separated desired poles (one value is "
                             "broadcast)")
    target.add_argument("--margin", type=float, default=1.0,
                        help="stability margin when no poles are given")
    p.add_argument("--argument", type=float, default=None,
                   help="modal entry argument in degrees (directed topologies)")
    p.add_argument("--sigma", type=float, default=1.0, help="coupling strength")
    p.add_argument("--out", default=None, help="output directory (default: stdout)")
    p.set_defaults(func=_cmd_design)

    p = sub.add_parser("dualize", help="convert between gains and coupling matrices")
    p.add_argument("--B", required=True, help="input matrix JSON file")
    given = p.add_mutually_exclusive_group(required=True)
    given.add_argument("--K", default=None, help="gain matrix JSON file")
    given.add_argument("--H", default=None, help="inner coupling matrix JSON file")
    p.add_argument("--A", default=None,
                   help="dynamics matrix JSON file (adds the controllability gate)")
    p.add_argument("--out", default=None, help="output directory (default: stdout)")
    p.set_defaults(func=_cmd_dualize)

    p = sub.add_parser("reproduce", help="run a bundled reference scenario")
    p.add_argument("name", choices=[*scenarios.SCENARIOS, "all"])
    p.add_argument("--seed", type=int, default=scenarios.DEFAULT_SEED)
    p.add_argument("--t-end", dest="t_end", type=float, default=None)
    p.add_argument("--dt", type=float, default=None)
    p.add_argument("--out", default="runs", help="artifact directory")
    p.set_defaults(func=_cmd_reproduce)
    return parser


def _join_poles(argv: list) -> list:
    """argv with ``--poles V`` as ``--poles=V`` when V starts with a single
    ``-``, which argparse would read as an option (``-2,-2``); also for
    the abbreviations of ``--poles`` that argparse accepts."""
    out = []
    for arg in argv:
        if (out and len(out[-1]) > 2 and "--poles".startswith(out[-1])
                and arg.startswith("-") and not arg.startswith("--")):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_poles(
        sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except NetsyncError as exc:
        return _fail(exc)


if __name__ == "__main__":
    sys.exit(main())
