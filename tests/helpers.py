"""Shared generators and oracles for the test suite."""

from __future__ import annotations

import os
import sys

import numpy as np
import pytest

from netsync import Laplacian, Topology, build_laplacian, dynamics


def path_topology(n: int) -> Topology:
    """Undirected unit-weight path on n nodes."""
    w = np.zeros((n, n))
    for i in range(n - 1):
        w[i, i + 1] = w[i + 1, i] = 1.0
    return Topology(n_nodes=n, directed=False, weights=w)


def random_connected_topology(rng: np.random.Generator, n_nodes: int,
                              directed: bool = False) -> Topology:
    """Random weighted topology made connected by a random spanning path."""
    w = np.where(rng.random((n_nodes, n_nodes)) < 0.4,
                 rng.uniform(0.2, 2.0, (n_nodes, n_nodes)), 0.0)
    np.fill_diagonal(w, 0.0)
    if not directed:
        w = np.triu(w, 1)
        w = w + w.T
    order = rng.permutation(n_nodes)
    for a, b in zip(order[:-1], order[1:]):
        w[a, b] = max(w[a, b], rng.uniform(0.5, 1.5))
        # keep the path two-way so exactly one eigenvalue is zero
        w[b, a] = w[a, b] if not directed else max(w[b, a], rng.uniform(0.5, 1.5))
    return Topology(n_nodes=n_nodes, directed=directed, weights=w)


def assert_spectra_close(actual, expected, atol: float) -> None:
    """Multiset comparison of two complex spectra by greedy nearest match.

    Robust to reorderings caused by last-ulp real-part ties, which break
    lexicographic sorting.
    """
    actual = list(np.asarray(actual, dtype=complex))
    expected = list(np.asarray(expected, dtype=complex))
    assert len(actual) == len(expected)
    for value in expected:
        dists = [abs(value - a) for a in actual]
        best = int(np.argmin(dists))
        assert dists[best] <= atol, (
            f"no eigenvalue within {atol} of {value}; closest {actual[best]}"
        )
        actual.pop(best)


def random_laplacian(rng: np.random.Generator, n_nodes: int) -> Laplacian:
    return build_laplacian(random_connected_topology(rng, n_nodes))


def strictly_left_matrix(rng: np.random.Generator, n: int,
                         radius_fraction: float = 0.8) -> np.ndarray:
    """Complex matrix whose Geršgorin discs all sit strictly left.

    Centers have real part in [-5, -1]; each row's off-diagonal moduli
    are rescaled so the disc radius is at most ``radius_fraction`` of
    the center's distance to the imaginary axis.
    """
    centers = rng.uniform(-5.0, -1.0, n) + 1j * rng.uniform(-1.0, 1.0, n)
    Z = rng.normal(0, 1, (n, n)) + 1j * rng.normal(0, 1, (n, n))
    np.fill_diagonal(Z, 0.0)
    row = np.abs(Z).sum(axis=1)
    budget = radius_fraction * rng.uniform(0.2, 1.0, n) * np.abs(centers.real)
    scale = np.where(row > 0, budget / np.maximum(row, 1e-300), 0.0)
    Z *= scale[:, None]
    Z += np.diag(centers)
    return Z


def admissible_rotation_window(Z) -> tuple:
    """Feasible [theta_lo, theta_hi) rotation-angle window implied by the
    disc certificate (radial condition from below, phase margin from
    above); used to bias samplers so both verdicts occur."""
    from netsync import discs

    d = discs(Z)
    with np.errstate(invalid="ignore"):
        lo = np.arcsin(
            np.clip(d.radii / np.maximum(d.center_moduli, 1e-300), 0, 1)
        ).max()
    hi = ((np.abs(d.center_arguments) - np.pi / 2.0) / 2.0).min()
    return lo, hi


def hurwitz_2x2(M: np.ndarray) -> bool:
    """Closed-form Hurwitz test for a real 2x2 matrix: tr < 0 < det."""
    tr = M[0, 0] + M[1, 1]
    det = M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
    return tr < 0.0 and det > 0.0


def relative_final_state_change(traj_a, traj_b) -> float:
    """Max-norm change of the final state, relative to its magnitude."""
    fa, fb = traj_a.states[-1], traj_b.states[-1]
    return float(np.abs(fa - fb).max() / max(1.0, np.abs(fb).max()))


def force_csv_processes(monkeypatch, processes: int) -> None:
    """Make the trajectory CSV writer use ``processes`` processes on any
    file of at least that many chunks; skips the test where the writer
    never forks (off Linux)."""
    if processes > 1 and sys.platform != "linux":
        pytest.skip("the CSV writer forks workers on Linux only")
    monkeypatch.setattr(dynamics.os, "sched_getaffinity",
                        lambda pid: set(range(processes)), raising=False)
    monkeypatch.setattr(dynamics, "_CSV_MIN_CHUNKS_PER_PROCESS", 1)


def assert_no_child_left() -> None:
    """This process has no child left, running or unreaped; checked on
    Linux only, where the CSV writer forks (``os.WNOHANG`` is Unix-only)."""
    if sys.platform != "linux":
        return
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
