"""Command-line interface tests.

Covers the exit-code contract (0 success / expected verdict, 1 domain
failure, 2 usage or I/O failure, also when a forked CSV worker fails),
report schemas, error names on stderr, and byte-identical outputs for
identical configurations.
"""

import errno
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from helpers import force_csv_processes

import netsync
from netsync import dynamics
from netsync.cli import main
from netsync.scenarios import load_fixture


def _write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


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
                 "--mode", "undirected", "--poles", str(-20.0 * lam2)])
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
                 "--mode", "directed", "--argument", str(fx["H4_argument_deg"]),
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
                 "--mode", "directed", "--argument", "100.0"])
    assert code == 1
    assert "ArgumentMarginViolation" in capsys.readouterr().err


def test_design_mode_topology_mismatch_is_usage_error(
        path_topology_file, directed_topology_file, tmp_path, capsys):
    a_file = _write_json(tmp_path / "A.json", [[0.0]])
    assert main(["design", "--A", a_file, "--topology", path_topology_file,
                 "--mode", "directed", "--argument", "150"]) == 2
    assert main(["design", "--A", a_file, "--topology", directed_topology_file,
                 "--mode", "undirected"]) == 2


def test_design_disconnected_topology_is_usage_error(tmp_path, capsys):
    w = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
    topo = _write_json(tmp_path / "disc.json", {"directed": False, "weights": w})
    a_file = _write_json(tmp_path / "A.json", [[0.0]])
    assert main(["design", "--A", a_file, "--topology", topo,
                 "--mode", "undirected"]) == 2


def test_design_defective_laplacian_is_domain_error(tmp_path, capsys):
    # one-way chain: eigenvalue 1 is repeated without a full eigenbasis
    w = [[0, 0, 0], [1, 0, 0], [0, 1, 0]]
    topo = _write_json(tmp_path / "chain.json", {"directed": True, "weights": w})
    a_file = _write_json(tmp_path / "A.json", [[0.0]])
    code = main(["design", "--A", a_file, "--topology", topo,
                 "--mode", "directed", "--argument", "150"])
    assert code == 1
    assert "DefectiveMatrix" in capsys.readouterr().err


def test_reproduce_rossler_baseline_expected_verdict(tmp_path):
    out = tmp_path / "runs"
    code = main(["reproduce", "rossler", "--baseline",
                 "--t-end", "10.0", "--dt", "2e-3", "--out", str(out)])
    assert code == 0      # the contracted outcome for the baseline is no sync
    report = json.loads(
        (out / "rossler-baseline" / "baseline_sync_report.json").read_text())
    assert report["converged"] is False


def test_design_invalid_sigma_or_matrix_is_usage_error(path_topology_file,
                                                       tmp_path, capsys):
    a_file = _write_json(tmp_path / "A.json", np.eye(2).tolist())
    rotation_file = _write_json(tmp_path / "A_rot.json",
                                [[0.0, 1.0], [-1.0, 0.0]])
    nan_file = tmp_path / "A_nan.json"
    nan_file.write_text("[[1.0, NaN], [0.0, 1.0]]")
    base = ["design", "--topology", path_topology_file, "--mode",
            "undirected"]
    for extra in (["--A", a_file, "--sigma", "0"],
                  ["--A", a_file, "--sigma", "nan"],
                  ["--A", a_file, "--sigma", "-1"],
                  ["--A", str(nan_file)],
                  ["--A", rotation_file, "--margin", "nan"],
                  ["--A", rotation_file, "--margin", "inf"],
                  ["--A", rotation_file, "--poles", "nan"],
                  ["--A", rotation_file, "--poles", "inf"]):
        assert main(base + extra) == 2, extra
        assert "InvalidInput" in capsys.readouterr().err, extra
    # a finite negative margin stays the library's domain error
    assert main(base + ["--A", rotation_file, "--margin", "-1"]) == 1
    assert "PreconditionViolation" in capsys.readouterr().err
    cycle = _write_json(tmp_path / "cycle.json",
                        {"directed": True,
                         "weights": [[0, 0, 1], [1, 0, 0], [0, 1, 0]]})
    for value in ("nan", "inf"):
        assert main(["design", "--A", rotation_file, "--topology", cycle,
                     "--mode", "directed", "--argument", value]) == 2, value
        assert "InvalidInput" in capsys.readouterr().err, value


def test_wrong_shaped_matrix_file_is_usage_error(path_topology_file,
                                                 tmp_path, capsys):
    wide = _write_json(tmp_path / "A_wide.json", [[1.0, 0.0, 0.0],
                                                  [0.0, 1.0, 0.0]])
    b_file = _write_json(tmp_path / "B.json", [[1.0], [-1.0]])
    k_file = _write_json(tmp_path / "K.json", [[1.0, 0.9]])
    h_file = _write_json(tmp_path / "H.json", np.eye(3).tolist())
    for argv in (["design", "--A", wide, "--topology", path_topology_file,
                  "--mode", "undirected"],
                 ["dualize", "--direction", "gain-to-h", "--B", b_file,
                  "--K", k_file, "--A", wide],
                 ["dualize", "--direction", "h-to-gain", "--B", b_file,
                  "--H", h_file]):
        assert main(argv) == 2, argv
        assert "DimensionMismatch" in capsys.readouterr().err, argv


# ── dualize ──────────────────────────────────────────────────────────────────


def test_dualize_gain_to_h(tmp_path, capsys):
    fx = load_fixture("example3")
    b_file = _write_json(tmp_path / "B.json", fx["B"])
    k_file = _write_json(tmp_path / "K.json", fx["K"])
    a_file = _write_json(tmp_path / "A.json", fx["A"])
    code = main(["dualize", "--direction", "gain-to-h", "--B", b_file,
                 "--K", k_file, "--A", a_file, "--c", str(fx["c"])])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert np.array_equal(report["H_paper"], fx["H6"])
    assert report["controllability_rank"] == 2 and report["controllable"]


def test_dualize_h_to_gain(tmp_path, capsys):
    fx = load_fixture("example3")
    b_file = _write_json(tmp_path / "B.json", fx["B"])
    h_file = _write_json(tmp_path / "H.json", fx["H6"])
    code = main(["dualize", "--direction", "h-to-gain", "--B", b_file,
                 "--H", h_file])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert np.abs(np.array(report["K"]) - np.array(fx["K"])).max() < 1e-12
    assert report["residual"] <= 1e-12


def test_dualize_zero_gain_is_domain_error(tmp_path, capsys):
    b_file = _write_json(tmp_path / "B.json", [[1.0], [0.0]])
    h_file = _write_json(tmp_path / "H.json", [[0.0, 0.0], [1.0, 1.0]])
    code = main(["dualize", "--direction", "h-to-gain", "--B", b_file,
                 "--H", h_file])
    assert code == 1
    assert "ZeroGain" in capsys.readouterr().err


def test_dualize_rank_deficient_is_domain_error(tmp_path, capsys):
    b_file = _write_json(tmp_path / "B.json", [[1.0, 1.0], [1.0, 1.0]])
    h_file = _write_json(tmp_path / "H.json", [[1.0, 0.0], [0.0, 1.0]])
    code = main(["dualize", "--direction", "h-to-gain", "--B", b_file,
                 "--H", h_file])
    assert code == 1
    assert "RankDeficient" in capsys.readouterr().err


def test_dualize_gain_not_fitting_b_is_usage_error(tmp_path, capsys):
    # B is 2 x 1, so K must be 1 x 2: neither a size that does not divide
    # nor a 1 x 3 gain (which would give a 2 x 3 H_eff) is accepted, and
    # neither is a fitting K with a NaN or negative coupling strength
    b_file = _write_json(tmp_path / "B.json", [[1.0], [-1.0]])
    for name, K, extra in (
            ("odd", [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]], []),
            ("wide", [[1.0, 2.0, 3.0]], []),
            ("column", [[1.0], [0.9]], []),
            ("c_nan", [[1.0, 0.9]], ["--c", "nan"]),
            ("c_negative", [[1.0, 0.9]], ["--c", "-1"])):
        k_file = _write_json(tmp_path / f"K_{name}.json", K)
        code = main(["dualize", "--direction", "gain-to-h", "--B", b_file,
                     "--K", k_file] + extra)
        assert code == 2, name
        assert "InvalidInput" in capsys.readouterr().err, name


def test_dualize_missing_matrix_is_usage_error(tmp_path, capsys):
    b_file = _write_json(tmp_path / "B.json", [[1.0], [-1.0]])
    assert main(["dualize", "--direction", "gain-to-h", "--B", b_file]) == 2


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


def test_reproduce_determinism_byte_identical(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["reproduce", "example4", "--t-end", "30.0",
                 "--out", str(out_a)]) == 0
    assert main(["reproduce", "example4", "--t-end", "30.0",
                 "--out", str(out_b)]) == 0
    dir_a, dir_b = out_a / "example4", out_b / "example4"
    names = sorted(p.name for p in dir_a.iterdir())
    assert names == sorted(p.name for p in dir_b.iterdir())
    for name in names:
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes(), name


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
    write = dynamics._write_csv_samples

    def fail_in_worker(traj, fh, start, stop):
        if start > 0:
            raise OSError(errno.ENOSPC, "No space left on device")
        write(traj, fh, start, stop)

    monkeypatch.setattr(dynamics, "_write_csv_samples", fail_in_worker)
    code = main(["reproduce", "example4", "--t-end", "5.0",
                 "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("InvalidInput: cannot write artifacts: ")
    assert "No space left on device" in err and "Traceback" not in err
    assert os.listdir(tmp_path / "example4") == []


@pytest.mark.parametrize("command", ["spectrum", "design", "dualize"])
def test_report_unwritable_out_is_usage_error(command, path_topology_file,
                                              tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("file, not a directory")
    one = _write_json(tmp_path / "one.json", [[1.0]])
    argv = {
        "spectrum": ["spectrum", "--topology", path_topology_file],
        "design": ["design", "--A", one, "--topology", path_topology_file,
                   "--mode", "undirected"],
        "dualize": ["dualize", "--direction", "gain-to-h", "--B", one,
                    "--K", one],
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
    assert main(["reproduce", "example4", "--baseline", "--out", out]) == 2
    assert "InvalidInput: --baseline applies to rossler only" in (
        capsys.readouterr().err)


def test_reproduce_all_dispatch_and_aggregation(tmp_path, monkeypatch, capsys):
    """`all` runs every scenario plus the chaotic baseline and ANDs the
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
    assert seen == ["example1", "example2", "example3", "example4",
                    "rossler", "rossler-baseline"]
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
