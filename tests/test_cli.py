"""Command-line interface tests.

Covers the exit-code contract (0 success / expected verdict, 1 domain
failure, 2 usage or I/O failure, also when the range of a failed forked
CSV worker fails again in the parent), report schemas, error names on
stderr, byte-identical outputs for identical configurations, and the
README's usage lines against the parser; a derandomized property over
generated spectrum, design, dualize and reproduce command lines.
"""

import argparse
import contextlib
import errno
import io
import json
import os
import re
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from helpers import assert_no_child_left, force_csv_processes

import netsync
from netsync import artifacts, errors, scenarios
from netsync.cli import build_parser, main
from netsync.scenarios import load_fixture


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def _exit_code(argv):
    """main's exit code, also when argparse rejects the command line."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.fixture()
def path_topology_file(tmp_path):
    w = [[0, 1, 0, 0, 0],
         [1, 0, 1, 0, 0],
         [0, 1, 0, 1, 0],
         [0, 0, 1, 0, 1],
         [0, 0, 0, 1, 0]]
    return _write_json(tmp_path / "path.json", {"directed": False, "weights": w})


@pytest.fixture()
def directed_topology_file(tmp_path):
    fx = load_fixture("example2")
    L = np.array(fx["laplacian"], dtype=float)
    adjacency = (-(L - np.diag(np.diag(L)))).tolist()
    return _write_json(tmp_path / "directed.json",
                       {"directed": True, "weights": adjacency})


# ── spectrum ─────────────────────────────────────────────────────────────────


def test_spectrum_path_graph(path_topology_file, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["spectrum", "--topology", path_topology_file,
                 "--out", str(out)]) == 0
    payload = json.loads((out / "spectrum.json").read_text())
    assert abs(payload["lambda2"][0] - 0.3820) < 5e-4
    assert payload["connected"] is True


def test_spectrum_to_stdout(path_topology_file, capsys):
    assert main(["spectrum", "--topology", path_topology_file]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["eigenvalues"]) == 5


def test_spectrum_disconnected_reports_not_failing(tmp_path, capsys):
    w = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
    topo = _write_json(tmp_path / "disc.json", {"directed": False, "weights": w})
    assert main(["spectrum", "--topology", topo]) == 0
    assert json.loads(capsys.readouterr().out)["connected"] is False


def test_spectrum_single_node_is_usage_error(tmp_path, capsys):
    topo = _write_json(tmp_path / "one.json", {"directed": False, "weights": [[0]]})
    assert main(["spectrum", "--topology", topo]) == 2
    assert "InvalidInput" in capsys.readouterr().err


def test_spectrum_malformed_file_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert main(["spectrum", "--topology", str(bad)]) == 2
    assert main(["spectrum", "--topology", str(tmp_path / "missing.json")]) == 2


@pytest.mark.parametrize("payload", [
    {"directed": False, "weights": [[0, 1e308], [1e308, 0]]},
    {"directed": False, "weights": [[0, 1e308, 1e308], [1e308, 0, 1e308],
                                    [1e308, 1e308, 0]]},
    {"directed": "yes", "weights": [[0, 1], [1, 0]]},
])
def test_spectrum_bad_topology_is_usage_error_without_warning(
        payload, tmp_path, capsys):
    # overflowing degrees printed Infinity (exit 0) or failed in the
    # eigensolver (exit 1) after RuntimeWarnings; "yes" read as true
    topo = _write_json(tmp_path / "bad.json", payload)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["spectrum", "--topology", topo]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("InvalidInput: ")


# ── design ───────────────────────────────────────────────────────────────────


def test_design_undirected_uniform_level(path_topology_file, tmp_path, capsys):
    fx = load_fixture("example1")
    a_file = _write_json(tmp_path / "A.json", fx["A"])
    lam2 = 2.0 - 2.0 * np.cos(np.pi / 5.0)
    code = main(["design", "--A", a_file, "--topology", path_topology_file,
                 "--poles", str(-20.0 * lam2)])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["hurwitz"] is True
    assert np.allclose(report["H_eff"], -20.0 * np.eye(5), atol=1e-6)
    assert np.allclose(report["H_paper"], 20.0 * np.eye(5), atol=1e-6)


def test_design_directed_reproduces_fixture(directed_topology_file, tmp_path,
                                            capsys):
    fx = load_fixture("example2")
    a_file = _write_json(tmp_path / "A.json", fx["A"])
    spec = json.loads((capsys.readouterr().out or "null"))  # drain
    lam2_real = 0.9924476406218199
    code = main(["design", "--A", a_file, "--topology", directed_topology_file,
                 "--argument", str(fx["H4_argument_deg"]),
                 "--poles", str(-lam2_real)])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["hurwitz"] is True
    assert np.abs(np.array(report["H_eff"])
                  - np.array(fx["H4"], dtype=float)).max() < 1e-3


def test_design_argument_margin_violation_is_domain_error(
        directed_topology_file, tmp_path, capsys):
    fx = load_fixture("example2")
    a_file = _write_json(tmp_path / "A.json", fx["A"])
    code = main(["design", "--A", a_file, "--topology", directed_topology_file,
                 "--argument", "100.0"])
    assert code == 1
    assert "ArgumentMarginViolation" in capsys.readouterr().err


def test_design_disconnected_topology_is_usage_error(tmp_path, capsys):
    w = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
    topo = _write_json(tmp_path / "disc.json", {"directed": False, "weights": w})
    a_file = _write_json(tmp_path / "A.json", [[0.0]])
    assert main(["design", "--A", a_file, "--topology", topo]) == 2


def test_design_one_way_chain_is_hurwitz(tmp_path, capsys):
    # one-way chain: eigenvalue 1 is repeated without a full eigenbasis,
    # and the modes are still exactly the mode matrices at {1, 1}
    w = [[0, 0, 0], [1, 0, 0], [0, 1, 0]]
    topo = _write_json(tmp_path / "chain.json", {"directed": True, "weights": w})
    a_file = _write_json(tmp_path / "A.json", [[0.0]])
    code = main(["design", "--A", a_file, "--topology", topo,
                 "--argument", "150"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["hurwitz"] is True
    assert [m["max_real_part"] for m in report["modes"]] == [-1.0, -1.0]


def test_reproduce_rossler_baseline_expected_verdict(tmp_path):
    out = tmp_path / "runs"
    code = main(["reproduce", "rossler-baseline",
                 "--t-end", "10.0", "--dt", "2e-3", "--out", str(out)])
    assert code == 0      # the contracted outcome for the baseline is no sync
    report = json.loads(
        (out / "rossler-baseline" / "baseline_sync_report.json").read_text())
    assert report["converged"] is False


def _strict_json(text):
    """json.loads that rejects NaN and Infinity, as strict JSON does."""
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=reject)


def test_design_invalid_sigma_or_matrix_is_usage_error(path_topology_file,
                                                       tmp_path, capsys):
    a_file = _write_json(tmp_path / "A.json", np.eye(2).tolist())
    rotation_file = _write_json(tmp_path / "A_rot.json",
                                [[0.0, 1.0], [-1.0, 0.0]])
    nan_file = tmp_path / "A_nan.json"
    nan_file.write_text("[[1.0, NaN], [0.0, 1.0]]")
    base = ["design", "--topology", path_topology_file]
    for extra in (["--A", a_file, "--sigma", "0"],
                  ["--A", a_file, "--sigma", "nan"],
                  ["--A", a_file, "--sigma", "-1"],
                  ["--A", str(nan_file)],
                  ["--A", rotation_file, "--margin", "nan"],
                  ["--A", rotation_file, "--margin", "inf"],
                  ["--A", rotation_file, "--poles", "nan"],
                  ["--A", rotation_file, "--poles", "inf"],
                  ["--A", str(tmp_path / "missing.json")],
                  ["--A", rotation_file, "--poles", "a,b"],
                  ["--A", rotation_file, "--poles=-1,-2,-3"],
                  # finite flags whose modal entries overflow
                  ["--A", rotation_file, "--margin", "1e308"],
                  ["--A", rotation_file, "--poles=-1e308"]):
        assert main(base + extra) == 2, extra
        assert "InvalidInput" in capsys.readouterr().err, extra
    # on the 3-node path the entries stay finite, and the mode matrices
    # A + sigma * lambda_k * H_eff overflow instead, or for a non-normal
    # A its realization P M P^-1
    path3 = _write_json(tmp_path / "path3.json",
                        {"directed": False,
                         "weights": [[0, 1, 0], [1, 0, 1], [0, 1, 0]]})
    ramp_file = _write_json(tmp_path / "A_ramp.json", [[1.0, 3.0], [0.0, 2.0]])
    for a, flag in ((rotation_file, "--margin=1e308"),
                    (rotation_file, "--poles=-1e308"),
                    (ramp_file, "--margin=1e308")):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["design", "--A", a, "--topology", path3,
                         flag]) == 2, (a, flag)
        assert "InvalidInput" in capsys.readouterr().err, (a, flag)
    # a finite negative margin stays the library's domain error
    assert main(base + ["--A", rotation_file, "--margin", "-1"]) == 1
    assert "PreconditionViolation" in capsys.readouterr().err
    cycle = _write_json(tmp_path / "cycle.json",
                        {"directed": True,
                         "weights": [[0, 0, 1], [1, 0, 0], [0, 1, 0]]})
    for extra in (["--argument", "nan"], ["--argument", "inf"], []):
        assert main(["design", "--A", rotation_file, "--topology", cycle]
                    + extra) == 2, extra
        assert "InvalidInput" in capsys.readouterr().err, extra


def test_design_poles_as_separate_negative_list(path_topology_file, tmp_path,
                                                capsys):
    # "--poles -2,-2" is the value of --poles, not an unknown option
    rotation_file = _write_json(tmp_path / "A_rot.json",
                                [[0.0, 1.0], [-1.0, 0.0]])
    base = ["design", "--A", rotation_file, "--topology", path_topology_file]
    outputs = []
    for poles in (["--poles", "-2,-2"], ["--p", "-2,-2"],
                  ["--poles=-2,-2"]):
        assert main(base + poles) == 0, poles
        outputs.append(capsys.readouterr())
    assert outputs[0].out and all(o.out == outputs[0].out for o in outputs)
    assert all(o.err == "" for o in outputs)
    assert main(base + ["--poles", "-a,-b"]) == 2
    assert "InvalidInput" in capsys.readouterr().err


def test_wrong_shaped_matrix_file_is_usage_error(path_topology_file,
                                                 tmp_path, capsys):
    wide = _write_json(tmp_path / "A_wide.json", [[1.0, 0.0, 0.0],
                                                  [0.0, 1.0, 0.0]])
    b_file = _write_json(tmp_path / "B.json", [[1.0], [-1.0]])
    k_file = _write_json(tmp_path / "K.json", [[1.0, 0.9]])
    h_file = _write_json(tmp_path / "H.json", np.eye(3).tolist())
    for argv in (["design", "--A", wide, "--topology", path_topology_file],
                 ["dualize", "--B", b_file, "--K", k_file, "--A", wide],
                 ["dualize", "--B", b_file, "--H", h_file]):
        assert main(argv) == 2, argv
        assert "DimensionMismatch" in capsys.readouterr().err, argv


# ── dualize ──────────────────────────────────────────────────────────────────


def test_dualize_gain_to_h(tmp_path, capsys):
    fx = load_fixture("example3")
    b_file = _write_json(tmp_path / "B.json", fx["B"])
    k_file = _write_json(tmp_path / "K.json", fx["K"])
    a_file = _write_json(tmp_path / "A.json", fx["A"])
    code = main(["dualize", "--B", b_file, "--K", k_file, "--A", a_file])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert "c" not in report       # H_paper = -B K holds at every c
    assert np.array_equal(report["H_paper"], fx["H6"])
    assert report["controllability_rank"] == 2 and report["controllable"]


def test_dualize_h_to_gain(tmp_path, capsys):
    fx = load_fixture("example3")
    b_file = _write_json(tmp_path / "B.json", fx["B"])
    h_file = _write_json(tmp_path / "H.json", fx["H6"])
    code = main(["dualize", "--B", b_file, "--H", h_file])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert np.abs(np.array(report["K"]) - np.array(fx["K"])).max() < 1e-12
    assert report["residual"] <= 1e-12


def test_dualize_zero_gain_is_domain_error(tmp_path, capsys):
    b_file = _write_json(tmp_path / "B.json", [[1.0], [0.0]])
    h_file = _write_json(tmp_path / "H.json", [[0.0, 0.0], [1.0, 1.0]])
    code = main(["dualize", "--B", b_file, "--H", h_file])
    assert code == 1
    assert "ZeroGain" in capsys.readouterr().err


def test_dualize_rank_deficient_is_domain_error(tmp_path, capsys):
    h_file = _write_json(tmp_path / "H.json", [[1.0, 0.0], [0.0, 1.0]])
    # a rank-1 B, and a B of full rank whose B^T B underflows to zero
    for name, B in (("rank-1", [[1.0, 1.0], [1.0, 1.0]]),
                    ("subnormal", [[5e-324, 0.0], [0.0, 5e-324]])):
        b_file = _write_json(tmp_path / f"B_{name}.json", B)
        code = main(["dualize", "--B", b_file, "--H", h_file])
        assert code == 1, name
        assert "RankDeficient" in capsys.readouterr().err, name


def test_dualize_gain_not_fitting_b_is_usage_error(tmp_path, capsys):
    # B is 2 x 1, so K must be 1 x 2: neither a size that does not divide
    # nor a 1 x 3 gain (which would give a 2 x 3 H_eff) is accepted, nor
    # a product that overflows
    b_file = _write_json(tmp_path / "B.json", [[1.0], [-1.0]])
    for name, K in (("odd", [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]),
                    ("wide", [[1.0, 2.0, 3.0]]),
                    ("column", [[1.0], [0.9]])):
        k_file = _write_json(tmp_path / f"K_{name}.json", K)
        code = main(["dualize", "--B", b_file, "--K", k_file])
        assert code == 2, name
        assert "DimensionMismatch: K must be 1 x 2" in (
            capsys.readouterr().err), name
    # finite matrices whose H_paper, Krylov blocks or B^T B overflow
    big = _write_json(tmp_path / "big.json", [[1e308, 1e308], [1e308, 1e308]])
    ones = _write_json(tmp_path / "ones.json", [[1.0, 1.0], [1.0, 1.0]])
    eye = _write_json(tmp_path / "eye.json", [[1.0, 0.0], [0.0, 1.0]])
    column = _write_json(tmp_path / "column.json", [[1e200], [1e200]])
    for name, argv in (
            ("H_paper", ["--B", big, "--K", big, "--A", big]),
            ("krylov", ["--B", ones, "--K", eye, "--A", big]),
            ("gram", ["--B", column, "--H", eye])):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["dualize"] + argv)
        assert code == 2, name
        assert "InvalidInput" in capsys.readouterr().err, name


def test_dualize_missing_matrix_is_usage_error(tmp_path, capsys):
    b_file = _write_json(tmp_path / "B.json", [[1.0], [-1.0]])
    assert _exit_code(["dualize", "--B", b_file]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: one of the arguments --K --H is required" in captured.err


def test_input_the_command_would_ignore_is_usage_error(path_topology_file,
                                                       tmp_path, capsys):
    # each line once exited 0 and ignored part of its input: an --H beside
    # --K, an --argument for an undirected topology, a --margin beside
    # --poles
    rotation_file = _write_json(tmp_path / "A_rot.json",
                                [[0.0, 1.0], [-1.0, 0.0]])
    b_file = _write_json(tmp_path / "B.json", [[1.0], [-1.0]])
    k_file = _write_json(tmp_path / "K.json", [[1.0, 0.9]])
    h_file = _write_json(tmp_path / "H.json", {"not": "a matrix"})
    design = ["design", "--A", rotation_file, "--topology", path_topology_file]
    for argv, error in (
            (["dualize", "--B", b_file, "--K", k_file, "--H", h_file],
             "error: argument --H: not allowed with argument --K"),
            (design + ["--argument", "150"], "InvalidInput: "),
            (design + ["--poles=-2", "--margin", "7"],
             "error: argument --margin: not allowed with argument --poles")):
        assert _exit_code(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and error in captured.err, argv


# ── reproduce ────────────────────────────────────────────────────────────────


def test_reproduce_example1_writes_artifacts(tmp_path, capsys):
    out = tmp_path / "runs"
    code = main(["reproduce", "example1", "--t-end", "4.0",
                 "--out", str(out)])
    assert code == 0
    scenario_dir = out / "example1"
    for name in ("H1_trajectory.csv", "H2_trajectory.csv", "H3_trajectory.csv",
                 "H1_sync_report.json", "design_report.json", "summary.json"):
        assert (scenario_dir / name).exists(), name
    summary = json.loads((scenario_dir / "summary.json").read_text())
    assert summary["verdict"] is True
    report = json.loads((scenario_dir / "H1_sync_report.json").read_text())
    assert report["converged"] is True


# the selector baseline steps the float kernel through its coupling matrix
@pytest.mark.parametrize("args, scenario", [
    (["example4", "--t-end", "30.0"], "example4"),
    (["rossler-baseline", "--t-end", "5"], "rossler-baseline")],
    ids=["example4", "rossler-baseline"])
def test_reproduce_determinism_byte_identical(tmp_path, args, scenario):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["reproduce", *args, "--out", str(out_a)]) == 0
    assert main(["reproduce", *args, "--out", str(out_b)]) == 0
    dir_a, dir_b = out_a / scenario, out_b / scenario
    names = sorted(p.name for p in dir_a.iterdir())
    assert names == sorted(p.name for p in dir_b.iterdir())
    for name in names:
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes(), name


def test_reproduce_rossler_baseline_writes_the_baseline_run(tmp_path):
    # the scenario name selects what the removed --baseline flag did:
    # run_rossler(baseline=True), its artifacts byte for byte
    out, direct = tmp_path / "cli", tmp_path / "direct"
    assert main(["reproduce", "rossler-baseline", "--t-end", "5",
                 "--out", str(out)]) == 0
    scenarios.write_artifacts(
        scenarios.run_rossler(baseline=True, t_end=5.0), str(direct))
    dir_a, dir_b = out / "rossler-baseline", direct / "rossler-baseline"
    names = sorted(p.name for p in dir_b.iterdir())
    assert names == sorted(p.name for p in dir_a.iterdir())
    assert "baseline_trajectory.csv" in names
    for name in names:
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes(), name


def test_reproduce_diverged_rossler_writes_strict_json(tmp_path):
    # at dt = 0.5 the run diverges within 4 samples and its squares
    # overflow: the RMS must stay finite and the run must not converge
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = scenarios.run_rossler(dt=0.5, t_end=5.0)
        written = scenarios.write_artifacts(result, str(tmp_path))
    reports = [path for path in written if path.endswith(".json")]
    assert len(reports) == 3
    for path in reports:
        with open(path, encoding="utf-8") as fh:
            _strict_json(fh.read())
    with open(os.path.join(tmp_path, "rossler",
                           "designed_sync_report.json")) as fh:
        report = json.load(fh)
    assert report["converged"] is False and report["sync_time"] is None
    assert not result.verdict


def test_reproduce_unwritable_out_is_io_error(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("file, not a directory")
    code = main(["reproduce", "example4", "--t-end", "5.0",
                 "--out", str(blocker)])
    assert code == 2
    assert "InvalidInput: cannot write artifacts" in capsys.readouterr().err


def test_reproduce_failing_csv_worker_is_io_error(tmp_path, monkeypatch,
                                                 capsys):
    force_csv_processes(monkeypatch, 2)
    write = artifacts._write_csv_samples

    # a worker's range fails, then again when the parent writes it
    def fail_past_range_0(traj, fh, start, stop):
        if start > 0:
            raise OSError(errno.ENOSPC, "No space left on device")
        write(traj, fh, start, stop)

    monkeypatch.setattr(artifacts, "_write_csv_samples", fail_past_range_0)
    code = main(["reproduce", "example4", "--t-end", "5.0",
                 "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("InvalidInput: cannot write artifacts: ")
    assert "No space left on device" in err and "Traceback" not in err
    assert os.listdir(tmp_path / "example4") == []
    assert_no_child_left()


@pytest.mark.parametrize("command", ["spectrum", "design", "dualize"])
def test_report_unwritable_out_is_usage_error(command, path_topology_file,
                                              tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("file, not a directory")
    one = _write_json(tmp_path / "one.json", [[1.0]])
    argv = {
        "spectrum": ["spectrum", "--topology", path_topology_file],
        "design": ["design", "--A", one, "--topology", path_topology_file],
        "dualize": ["dualize", "--B", one, "--K", one],
    }[command]
    assert main(argv + ["--out", str(blocker / "x")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "InvalidInput: cannot write artifacts" in captured.err
    assert blocker.read_text() == "file, not a directory"


def test_reproduce_unknown_name_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["reproduce", "example9"])
    assert exc.value.code == 2


def test_reproduce_flag_validation(tmp_path, capsys):
    out = str(tmp_path / "runs")
    assert main(["reproduce", "example1", "--seed", "-1", "--out", out]) == 2
    assert main(["reproduce", "example1", "--t-end", "0", "--out", out]) == 2
    assert main(["reproduce", "example1", "--dt", "-0.1", "--out", out]) == 2
    assert main(["reproduce", "example1", "--t-end", "nan", "--out", out]) == 2
    assert main(["reproduce", "example1", "--t-end", "inf", "--out", out]) == 2
    assert main(["reproduce", "example1", "--dt", "nan", "--out", out]) == 2
    assert main(["reproduce", "example1", "--dt", "2", "--t-end", "1",
                 "--out", out]) == 2
    # --dt above the scenario's default horizon, and a horizon below the
    # default --dt
    assert main(["reproduce", "example1", "--dt", "10", "--out", out]) == 2
    assert main(["reproduce", "example1", "--t-end", "0.0005",
                 "--out", out]) == 2
    # a finite horizon whose grid cannot exist fails before allocating
    assert main(["reproduce", "example1", "--t-end", "1e300",
                 "--out", out]) == 2
    assert "InvalidInput" in capsys.readouterr().err
    # a grid too large for any address space (1e17 samples, 711 PiB) is
    # refused by the allocator; that too is a usage error
    assert main(["reproduce", "example1", "--t-end", "1e14",
                 "--out", out]) == 2
    assert "InvalidInput" in capsys.readouterr().err


def test_removed_flags_are_usage_errors(tmp_path, capsys):
    # the scenario name says what --baseline did, and nothing dualize
    # computes reads a coupling strength: argparse rejects both flags
    b_file = _write_json(tmp_path / "B.json", [[1.0], [-1.0]])
    k_file = _write_json(tmp_path / "K.json", [[1.0, 0.9]])
    out = str(tmp_path / "runs")
    for argv in (["reproduce", "rossler", "--baseline", "--out", out],
                 ["dualize", "--B", b_file, "--K", k_file, "--c", "1"]):
        assert _exit_code(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert "error: unrecognized arguments: " in captured.err, argv
    assert not os.path.exists(out)


def test_reproduce_all_dispatch_and_aggregation(tmp_path, monkeypatch, capsys):
    """`all` runs every scenario of the table in its order and ANDs the
    verdicts into the exit code (stubbed runners keep this fast)."""
    from netsync import scenarios as sc

    seen = []

    def stub(name):
        def run(seed=42, baseline=False, **kwargs):
            label = f"{name}-baseline" if baseline else name
            seen.append(label)
            return sc.ScenarioResult(name=label, verdict=(label != "rossler"),
                                     summary={"variants": {}})
        return run

    for name in ("example1", "example2", "example3", "example4", "rossler"):
        monkeypatch.setattr(sc, f"run_{name.replace('-', '_')}", stub(name))
    code = main(["reproduce", "all", "--out", str(tmp_path / "runs")])
    assert seen == list(scenarios.SCENARIOS) == [
        "example1", "example2", "example3", "example4", "rossler",
        "rossler-baseline"]
    assert code == 1  # the stubbed rossler verdict fails, so `all` fails


def test_console_entry_point_runs():
    # the child process imports the same netsync as this one, installed or not
    src = os.path.dirname(os.path.dirname(netsync.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "netsync.cli", "--help"],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "reproduce" in proc.stdout


def test_readme_command_line_matches_parser():
    # each subcommand's README usage lines name exactly its options, and
    # a positional's choices as written there
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        block = re.search(r"^## Command line\n\n```\n(.*?)^```$", fh.read(),
                          re.MULTILINE | re.DOTALL).group(1)
    usage = dict(re.findall(r"^netsync (\w+)(.*(?:\n .*)*)", block,
                            re.MULTILINE))
    parsers = next(action.choices for action in build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction))
    assert set(usage) == set(parsers)
    for name, parser in parsers.items():
        options = {option for action in parser._actions
                   for option in action.option_strings
                   if option.startswith("--") and option != "--help"}
        assert set(re.findall(r"--[\w-]+", usage[name])) == options, name
        for action in parser._actions:
            if not action.option_strings and action.choices:
                assert "|".join(action.choices) in usage[name], name


# ── generated input ──────────────────────────────────────────────────────────

_FINITE = st.floats(-3.0, 3.0)
_EXTREME = st.sampled_from([0.0, 5e-324, 1e-300, 1e308, -1e308, float("nan"),
                            float("inf"), float("-inf")])
_MALFORMED = st.one_of(
    st.lists(_FINITE, max_size=3),                      # 1-D, also empty
    st.lists(st.lists(_FINITE, min_size=1, max_size=3), min_size=1,
             max_size=3),                               # ragged or misfit
    st.sampled_from([[[]], [[[1.0]]], [["x"]], "A", {"a": 1}, None, True]))
_TOPOLOGIES = st.sampled_from([
    {"directed": False, "weights": [[0, 1, 0], [1, 0, 1], [0, 1, 0]]},
    {"directed": False, "weights": [[0, 2], [2, 0]]},
    {"directed": True, "weights": [[0, 0, 1], [1, 0, 0], [0, 1, 0]]},
    {"directed": True, "weights": [[0, 1], [1, 0]]},
])
_EXTREME_FLAGS = st.sampled_from(["0", "-1", "90.0000001", "180", "1e-320",
                                   "1e308", "-1e308", "nan", "inf", "-inf"])
# half the draws are in range for the flag (an argument in degrees for
# --argument, a pole for --poles)
_FLAGS = {flag: st.one_of(st.sampled_from(values), _EXTREME_FLAGS)
          for flag, values in (("--margin", ["0.5", "1", "2"]),
                               ("--sigma", ["0.5", "1", "2"]),
                               ("--argument", ["120", "150", "170"]),
                               ("--poles", ["-0.5", "-1", "-2"]))}


_SEEDS = st.one_of(st.integers(0, 99), st.integers(min_value=2 ** 63),
                   st.integers(max_value=-1))
# --t-end and --dt: a valid grid of at most 100 samples (half the draws),
# or values rejected before any array is allocated; never a horizon of
# many samples
_GRIDS = st.builds(lambda dt, k: [f"--t-end={k * dt!r}", f"--dt={dt!r}"],
                   st.sampled_from([1e-3, 0.02, 0.5]), st.integers(1, 99))
_BAD_TIMES = st.sampled_from(["0", "-1", "-1e-3", "nan", "inf", "-inf"])
_HORIZONS = st.one_of(_GRIDS, st.one_of(
    st.builds(lambda t: [f"--t-end={t}"], _BAD_TIMES),
    st.builds(lambda dt: [f"--dt={dt}"], _BAD_TIMES),
    st.builds(lambda t, dt: [f"--t-end={t}", f"--dt={dt}"], _BAD_TIMES,
              _BAD_TIMES),
    st.sampled_from([["--t-end=0.01", "--dt=0.02"],          # dt > t_end
                     ["--t-end=1e300", "--dt=1"],            # t_end / dt
                     ["--t-end=1", "--dt=1e-300"],           # >= 1e300
                     ["--t-end=1e308", "--dt=1e-308"]])))


def _matrices(rows: int, cols: int):
    """A rows x cols matrix of small finite entries (half the draws), of
    entries that may be extreme or non-finite, or a malformed payload."""
    def grid(entries):
        return st.lists(st.lists(entries, min_size=cols, max_size=cols),
                        min_size=rows, max_size=rows)
    return st.one_of(grid(_FINITE), grid(_FINITE),
                     grid(st.one_of(_FINITE, _EXTREME)), _MALFORMED)


@st.composite
def _argvs(draw):
    """A spectrum, design, dualize or reproduce command line over
    generated files, as ``(argv, files)`` with files a map of file name to
    JSON payload; a reproduce line has no --out yet."""
    command = draw(st.sampled_from(["reproduce", "spectrum", "design",
                                    "dualize"]))
    if command == "reproduce":
        argv = [command, draw(st.sampled_from([*scenarios.SCENARIOS,
                                               "all"])),
                f"--seed={draw(_SEEDS)}"]
        return argv + draw(_HORIZONS), {}
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, n))
    files = {}

    def file_flag(flag, strategy):
        name = flag.strip("-") + ".json"
        files[name] = draw(strategy)
        return [flag, name]

    def value_flags(*flags):
        return [f"{flag}={draw(_FLAGS[flag])}" for flag in flags
                if draw(st.booleans())]

    topology = st.one_of(
        _TOPOLOGIES, _TOPOLOGIES, _TOPOLOGIES,
        st.builds(lambda directed, weights: {"directed": directed,
                                             "weights": weights},
                  st.booleans(), _matrices(n + 1, n + 1)))
    if command == "spectrum":
        return [command] + file_flag("--topology", topology), files
    if command == "design":
        argv = [command] + file_flag("--topology", topology)
        argv += file_flag("--A", _matrices(n, n))
        argv += value_flags("--sigma")
        if files["topology.json"]["directed"]:
            argv.append(f"--argument={draw(_FLAGS['--argument'])}")
        if draw(st.booleans()):     # --poles and --margin exclude each other
            poles = draw(st.lists(_FLAGS["--poles"], min_size=1, max_size=n))
            argv.append("--poles=" + ",".join(poles))
        else:
            argv += value_flags("--margin")
        return argv, files
    argv = [command] + file_flag("--B", _matrices(n, m))
    argv += (file_flag("--K", _matrices(m, n)) if draw(st.booleans())
             else file_flag("--H", _matrices(n, n)))
    if draw(st.booleans()):
        argv += file_flag("--A", _matrices(n, n))
    return argv, files


# zero or more stiffness warnings as ``warnings.formatwarning`` writes
# them: the message line, then the source line it points at
_STIFFNESS_WARNINGS = re.compile(
    r"(?:[^\n]*: UserWarning: stiffest mode modulus [^\n]*; expect "
    r"instability\n(?:  [^\n]*\n)?)*")


@settings(max_examples=400, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=_argvs())
def test_generated_command_lines_end_in_exit_code_and_strict_json(tmp_path,
                                                                  case):
    # every outcome is 0, 1 or 2; a failure names a NetsyncError subclass
    # on stderr, and stdout and every JSON artifact are strict JSON (no
    # NaN, no Infinity).  An unmet verdict exits 1 with nothing on stderr
    # but stiffness warnings, which are routed there as a plain run
    # prints them: a design that fails its Hurwitz verdict with its
    # report, a reproduce run with a verdict-failed status line.
    argv, files = case
    for name, payload in files.items():
        (tmp_path / name).write_text(json.dumps(payload))
    argv = [str(tmp_path / a) if a in files else a for a in argv]
    runs = tmp_path / "runs"
    shutil.rmtree(runs, ignore_errors=True)
    if argv[0] == "reproduce":
        argv += ["--out", str(runs)]
    out, err = io.StringIO(), io.StringIO()

    def show(message, category, filename, lineno, file=None, line=None):
        err.write(warnings.formatwarning(message, category, filename,
                                         lineno, line))

    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.showwarning = show
        try:
            code = main(argv)
        except SystemExit as exc:           # argparse rejected the line
            code = exc.code
    assert code in (0, 1, 2), (argv, code)
    named = err.getvalue().split(":")[0] in errors.__all__
    if argv[0] == "reproduce":
        for path in runs.rglob("*.json"):
            _strict_json(path.read_text())
        unmet = code == 1 and "verdict-failed" in out.getvalue()
        assert code == 0 or unmet or named, (argv, out.getvalue(), err)
        if unmet:
            assert _STIFFNESS_WARNINGS.fullmatch(err.getvalue()), (
                argv, err.getvalue())
        return
    report = _strict_json(out.getvalue()) if out.getvalue() else None
    if code == 0:
        assert report is not None, argv
    elif report is not None:
        assert code == 1 and report["hurwitz"] is False, argv
    else:
        assert named, (argv, err)
