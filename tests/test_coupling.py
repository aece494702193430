"""Modal decomposition, coupling design, realization, verification.

Covers:
  - decompose: fixture dynamics (including the defective ramp pair, via
    the Schur block fallback), plain diagonal matrices, reconstruction
    invariants, eigenvalue clusters linked through chains, and the
    ill-conditioned failure mode, also when the block form overflows
  - design_undirected: pole placement arithmetic, margin designs, the
    already-stable clamp, and precondition errors
  - design_directed: the two fixture designs, conjugate closure, the
    argument-margin gate
  - realize: fixture regressions (entrywise to the printed precision),
    scalar commutation, conjugate-closure residue gate
  - verify: closed-form mode eigenvalues for diagonal couplings, the
    2x2 trace/determinant oracle on the consensus fixture, sigma outside
    (0, inf) rejected
  - properties: realization round-trip, design soundness over random
    instances, exact pole placement, H_paper = -H_eff and read-only
"""

import warnings

import numpy as np
import pytest

from helpers import assert_spectra_close, hurwitz_2x2, random_connected_topology

from netsync import (
    DefectiveMatrix,
    DimensionMismatch,
    ArgumentMarginViolation,
    Laplacian,
    ModalCouplingSpec,
    PreconditionViolation,
    RealizationResidue,
    build_laplacian,
    decompose,
    design_directed,
    design_report,
    design_undirected,
    realize,
    spectrum,
    verify,
)
from netsync.coupling import _cluster_labels
from netsync.scenarios import load_fixture


@pytest.fixture(scope="module")
def fx1():
    return load_fixture("example1")


@pytest.fixture(scope="module")
def fx2():
    return load_fixture("example2")


@pytest.fixture(scope="module")
def fx3():
    return load_fixture("example3")


def _sorted(vals):
    return np.sort_complex(np.asarray(vals))


# ── decompose ────────────────────────────────────────────────────────────────


def test_decompose_fixture_dynamic_with_ramp_pair(fx1):
    A = np.array(fx1["A"], dtype=float)
    d = decompose(A)
    assert np.allclose(_sorted(d.mode_eigenvalues),
                       _sorted([10j, -10j, -3.0, 0.0, 0.0]), atol=1e-9)
    # the double zero has no full eigenbasis: flagged as one block
    assert len(d.defective_blocks) == 1 and len(d.defective_blocks[0]) == 2
    assert d.condition < 1e6
    recon = d.P @ d.modal_matrix @ d.P_inv
    assert np.abs(recon - A).max() <= 1e-8 * max(1.0, np.abs(A).max())


def test_decompose_diagonal():
    d = decompose(np.diag([1.0, 2.0]))
    assert not d.defective
    assert np.allclose(_sorted(d.mode_eigenvalues), [1.0, 2.0])
    assert np.allclose(d.P @ np.diag(d.mode_eigenvalues) @ d.P_inv,
                       np.diag([1.0, 2.0]), atol=1e-12)


def test_decompose_planar_rotation(fx2):
    d = decompose(np.array(fx2["A"], dtype=float))
    assert np.allclose(_sorted(d.mode_eigenvalues),
                       _sorted([1j * np.sqrt(8.0), -1j * np.sqrt(8.0)]),
                       atol=1e-9)
    assert not d.defective


def test_decompose_repeated_but_diagonalizable():
    d = decompose(np.diag([2.0, 2.0, 1.0]))
    assert not d.defective
    assert d.condition < 10.0


def test_decompose_rejects_nonsquare():
    with pytest.raises(DimensionMismatch):
        decompose(np.zeros((2, 3)))


def test_cluster_labels_follow_chains():
    # 1.2e-8 ~ 0.6e-8 ~ 0.0 within tol 1e-8, though |1.2e-8 - 0.0| > tol:
    # one cluster, linked through the entry listed last
    labels = _cluster_labels(np.array([1.2e-8, 5.0, 0.0, 0.6e-8]), 1e-8)
    assert labels[0] == labels[2] == labels[3] != labels[1]


def test_decompose_ill_conditioned_clusters_raise():
    # eigenvalues 1 and 1 + 2e-8 stay in distinct clusters, but the
    # huge off-diagonal coupling makes every modal basis ill-conditioned
    A = np.array([[1.0, 1e6], [0.0, 1.0 + 2e-8]])
    with pytest.raises(DefectiveMatrix):
        decompose(A)
    # eigenvalues near +-1e154 i, whose block similarity overflows
    A = np.array([[-0.23, 0.0, -0.7], [2e-16, 0.0, -1e308],
                  [1e308, -5e-277, 0.42]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DefectiveMatrix):
            decompose(A)


# ── design_undirected ────────────────────────────────────────────────────────


def test_design_uniform_level_via_poles(fx1):
    lam2 = spectrum(Laplacian(np.array(fx1["laplacian"], float))).lambda2.real
    d = decompose(np.array(fx1["A"], float))
    spec = design_undirected(d, lam2, poles=[-20.0 * lam2] * 5)
    assert np.allclose(spec.entries, -20.0, atol=1e-9)
    assert np.abs(spec.entries.imag).max() == 0.0


def test_design_pole_arithmetic():
    # dominant mode at 0, pole request -2, lambda2 from the 5-node path
    d = decompose(np.diag([0.0, -1.0]))
    lam2 = 2.0 - 2.0 * np.cos(np.pi / 5.0)
    spec = design_undirected(d, lam2, poles=[-2.0, -2.0])
    assert np.allclose(spec.entries.real, -2.0 / lam2, atol=1e-12)


def test_design_stable_dynamic_zero_margin_gives_zero_coupling():
    d = decompose(np.diag([-1.0, -2.0]))
    spec = design_undirected(d, 0.382, margin=0.0)
    assert np.all(spec.entries == 0.0)


def test_design_margin_is_strict():
    d = decompose(np.diag([0.5, -1.0]))
    lam2 = 0.7
    spec = design_undirected(d, lam2, margin=1.0)
    assert np.allclose(spec.entries.real, -(0.5 + 1.0) / lam2)


def test_design_undirected_preconditions():
    d = decompose(np.diag([0.0, -1.0]))
    with pytest.raises(PreconditionViolation):
        design_undirected(d, -0.3)
    with pytest.raises(PreconditionViolation):
        design_undirected(d, 0.5, poles=[2.0, -1.0])
    with pytest.raises(PreconditionViolation):
        # pole right of the dominant mode of a stable dynamic
        design_undirected(decompose(np.diag([-1.0, -3.0])), 0.5,
                          poles=[-0.5, -0.5])
    with pytest.raises(DimensionMismatch):
        design_undirected(d, 0.5, poles=[-1.0])


def test_design_defective_cluster_requires_equal_poles(fx1):
    d = decompose(np.array(fx1["A"], float))
    block = d.defective_blocks[0]
    poles = np.full(5, -2.0)
    poles[block[0]] = -3.0  # differs inside the defective cluster
    with pytest.raises(PreconditionViolation):
        design_undirected(d, 0.382, poles=poles)


# ── design_directed ──────────────────────────────────────────────────────────


def _directed_design(fx2, argument_deg):
    A = np.array(fx2["A"], dtype=float)
    lap_spec = spectrum(Laplacian(np.array(fx2["laplacian"], float)))
    d = decompose(A)
    spec = design_directed(
        d, lap_spec.lambda2, lap_spec.theta_max,
        argument=np.radians(argument_deg),
        poles=[-lap_spec.lambda2.real] * 2,
    )
    return d, spec


def test_design_directed_small_margin_entries(fx2):
    _, spec = _directed_design(fx2, fx2["H4_argument_deg"])
    assert np.allclose(_sorted(spec.entries),
                       _sorted([-1.0 + 0.5j, -1.0 - 0.5j]), atol=1e-4)
    # conjugate closure with the positive-imaginary mode first
    assert np.isclose(spec.entries[0], np.conj(spec.entries[1]))


def test_design_directed_large_margin_entries(fx2):
    _, spec = _directed_design(fx2, fx2["H5_argument_deg"])
    assert np.allclose(_sorted(spec.entries),
                       _sorted([-1.0 + 0.1j, -1.0 - 0.1j]), atol=1e-4)


def test_design_directed_margin_violation():
    d = decompose(np.array([[-1.0, -3.0], [3.0, 1.0]]))
    with pytest.raises(ArgumentMarginViolation):
        design_directed(d, 1.0 + 0.3j, np.radians(30.0),
                        argument=np.radians(100.0))


def test_design_directed_preconditions():
    d = decompose(np.array([[-1.0, -3.0], [3.0, 1.0]]))
    with pytest.raises(PreconditionViolation):
        design_directed(d, -1.0 + 0.2j, 0.3, argument=2.8)
    with pytest.raises(PreconditionViolation):
        design_directed(d, 1.0, np.pi / 2.0, argument=2.8)


def test_design_directed_real_modes_get_real_entries():
    d = decompose(np.diag([0.0, -1.0]))
    spec = design_directed(d, 1.0 + 0.2j, np.radians(11.0),
                           argument=np.radians(150.0), margin=1.0)
    assert np.abs(spec.entries.imag).max() == 0.0
    assert np.all(spec.entries.real < 0.0)


# ── realize ──────────────────────────────────────────────────────────────────


def test_realize_fixture_design_small_margin(fx2):
    d, spec = _directed_design(fx2, fx2["H4_argument_deg"])
    mats = realize(spec, d)
    assert np.abs(mats.H_eff - np.array(fx2["H4"], float)).max() < 1e-4
    assert np.array_equal(mats.H_paper, -mats.H_eff)


def test_realize_scalar_commutes():
    rng = np.random.default_rng(3)
    for _ in range(10):
        A = rng.normal(0, 1, (4, 4))
        d = decompose(A)
        spec = ModalCouplingSpec(entries=np.full(4, -2.5, complex))
        mats = realize(spec, d)
        assert np.allclose(mats.H_eff, -2.5 * np.eye(4), atol=1e-9)


def test_realize_ramp_pair_strengthening(fx1):
    d = decompose(np.array(fx1["A"], float))
    entries = np.where(np.abs(d.mode_eigenvalues) <= 1e-6, -30.0, -20.0)
    mats = realize(ModalCouplingSpec(entries=entries.astype(complex)), d)
    assert np.allclose(mats.H_eff, np.array(fx1["H2"], float), atol=1e-9)


def test_realize_rejects_unclosed_entries(fx2):
    d = decompose(np.array(fx2["A"], float))
    spec = ModalCouplingSpec(entries=np.array([-1.0 + 0.5j, -1.0 + 0.5j]))
    with pytest.raises(RealizationResidue):
        realize(spec, d)


def test_realize_dimension_gate():
    d = decompose(np.diag([-1.0, -2.0]))
    with pytest.raises(DimensionMismatch):
        realize(ModalCouplingSpec(entries=np.full(3, -1.0, complex)), d)


def test_modal_spec_validation():
    with pytest.raises(PreconditionViolation):
        ModalCouplingSpec(entries=np.array([0.5 + 0.0j]))   # positive real part
    with pytest.raises(PreconditionViolation):
        ModalCouplingSpec(entries=np.array([-1.0 + 0.0j]), sigma=0.0)
    off = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(PreconditionViolation):
        ModalCouplingSpec(entries=np.full(2, -1.0, complex), off_diagonal=off)


# ── verify ───────────────────────────────────────────────────────────────────


def test_verify_closed_form_for_uniform_coupling(fx1):
    A = np.array(fx1["A"], dtype=float)
    lap_spec = spectrum(Laplacian(np.array(fx1["laplacian"], float)))
    analysis = verify(A, -20.0 * np.eye(5), 1.0, lap_spec)
    mode_vals = np.linalg.eigvals(A)
    for record in analysis.modes:
        expected = mode_vals - 20.0 * record.laplacian_eigenvalue
        assert_spectra_close(record.eigenvalues, expected, atol=1e-8)
    assert analysis.overall_hurwitz


def test_verify_zero_coupling_reports_raw_modes(fx1):
    A = np.array(fx1["A"], dtype=float)
    lap_spec = spectrum(Laplacian(np.array(fx1["laplacian"], float)))
    analysis = verify(A, np.zeros((5, 5)), 1.0, lap_spec)
    assert not analysis.overall_hurwitz  # A itself is not Hurwitz
    stable = verify(-np.eye(2), np.zeros((2, 2)), 1.0,
                    spectrum(Laplacian(np.array([[1., -1.], [-1., 1.]]))))
    assert stable.overall_hurwitz


def test_verify_consensus_fixture_against_2x2_oracle(fx3):
    A = np.array(fx3["A"], dtype=float)
    B = np.array(fx3["B"], dtype=float)
    K = np.array(fx3["K"], dtype=float)
    c = float(fx3["c"])
    lap_spec = spectrum(Laplacian(np.array(fx3["laplacian"], float)))
    analysis = verify(A, B @ K, c, lap_spec)
    assert analysis.overall_hurwitz
    # independent closed-form oracle: tr < 0 < det per mode
    for lam in lap_spec.eigenvalues[1:]:
        assert hurwitz_2x2(A + c * lam.real * (B @ K))


def test_verify_requires_positive_sigma(fx1):
    # finite too: an infinite sigma is rejected without a warning
    lap_spec = spectrum(Laplacian(np.array(fx1["laplacian"], float)))
    for sigma in (0.0, -1.0, np.inf, np.nan):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PreconditionViolation):
                verify(np.eye(5), np.eye(5), sigma, lap_spec)


# ── properties ───────────────────────────────────────────────────────────────


def test_round_trip_recovers_modal_levels():
    rng = np.random.default_rng(17)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        A = rng.normal(0, 1, (n, n))
        d = decompose(A)
        if d.defective:
            continue
        spec = design_undirected(d, rng.uniform(0.2, 2.0),
                                 margin=rng.uniform(0.1, 2.0))
        mats = realize(spec, d)
        extracted = np.diag(d.P_inv @ mats.H_eff @ d.P)
        assert np.abs(extracted.real - spec.entries.real).max() <= 1e-8 * max(
            1.0, np.abs(spec.entries.real).max())


def test_design_soundness_randomized_200():
    """Any margin design verified against the spectrum it was built for
    must be Hurwitz in every transverse mode."""
    rng = np.random.default_rng(99)
    checked = 0
    while checked < 200:
        n = int(rng.integers(2, 6))
        N = int(rng.integers(2, 9))
        A = rng.normal(0, 1.5, (n, n))
        d = decompose(A)
        lap_spec = spectrum(build_laplacian(random_connected_topology(rng, N)))
        spec = design_undirected(d, lap_spec.lambda2.real,
                                 margin=rng.uniform(0.05, 2.0))
        mats = realize(spec, d)
        assert verify(A, mats.H_eff, 1.0, lap_spec).overall_hurwitz
        checked += 1


def test_pole_placement_exact_on_lambda2_mode():
    rng = np.random.default_rng(5)
    for _ in range(30):
        n = int(rng.integers(2, 6))
        modes = -rng.uniform(0.2, 4.0, n) + rng.uniform(0, 2.0)
        while np.unique(np.round(modes, 6)).size < n:
            modes = -rng.uniform(0.2, 4.0, n) + rng.uniform(0, 2.0)
        Q = rng.normal(0, 1, (n, n))
        A = Q @ np.diag(modes) @ np.linalg.inv(Q)
        d = decompose(A)
        lam2 = rng.uniform(0.3, 1.5)
        p = -rng.uniform(0.5, 3.0) + min(0.0, modes.max())
        spec = design_undirected(d, lam2, poles=[p] * n)
        mats = realize(spec, d)
        mode_matrix = A + lam2 * mats.H_eff
        assert abs(np.linalg.eigvals(mode_matrix).real.max() - p) <= 1e-6


def test_h_paper_is_exact_negation():
    rng = np.random.default_rng(23)
    A = rng.normal(0, 1, (3, 3))
    d = decompose(A)
    mats = realize(design_undirected(d, 0.9), d)
    assert np.array_equal(mats.H_paper, -mats.H_eff)
    # derived from H_eff, and read-only like it
    assert not mats.H_paper.flags.writeable
    with pytest.raises(AttributeError):
        mats.H_paper = mats.H_eff


def test_design_report_schema(fx1):
    A = np.array(fx1["A"], dtype=float)
    lap_spec = spectrum(Laplacian(np.array(fx1["laplacian"], float)))
    d = decompose(A)
    spec = design_undirected(d, lap_spec.lambda2.real,
                             poles=[-20.0 * lap_spec.lambda2.real] * 5)
    mats = realize(spec, d)
    report = design_report(spec, mats, verify(A, mats.H_eff, 1.0, lap_spec))
    assert set(report) == {"h_entries", "sigma", "H_eff", "H_paper", "modes",
                           "hurwitz"}
    assert len(report["modes"]) == 4
    assert report["hurwitz"] is True
    assert all(len(pair) == 2 for pair in report["h_entries"])
