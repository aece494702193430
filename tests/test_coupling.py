"""Modal decomposition, coupling design, realization, verification.

Covers:
  - decompose: fixture dynamics (including the defective ramp pair, via
    the Schur block fallback), plain diagonal matrices, reconstruction
    invariants, eigenvalue clusters linked through chains, Schur
    diagonals whose clusters must be reordered, and the ill-conditioned
    failure mode, also when the block form overflows; a failed Schur
    decomposition is EigensolverFailure, any other error propagates;
    a property over similarity-transformed Jordan blocks (real and
    complex, sizes 2 and 3): one defective cluster whatever the
    rounding, pole placement on it, and per-mode requests refused
  - design_undirected: pole placement arithmetic, margin designs, the
    already-stable clamp, and precondition errors (a complex mode with
    no conjugate partner, unequal poles on a conjugate pair)
  - design_directed: the two fixture designs, conjugate closure, +0j on
    a conjugate pair at level zero, the argument-margin gate and an
    argument outside (0, pi]
  - realize: fixture regressions (entrywise to the printed precision),
    scalar commutation, conjugate-closure residue gate
  - verify: closed-form mode eigenvalues for diagonal couplings, the
    2x2 trace/determinant oracle on the consensus fixture, sigma outside
    (0, inf) rejected, and the real solve of an undirected topology's
    mode matrices against their complex solve (N = 2..48)
  - properties: realization round-trip, design soundness over random
    instances, exact pole placement, H_paper = -H_eff and read-only
  - a property over leader-follower topologies (permuted one-way chains
    and trees with equal in-degrees), whose Laplacians mostly have no
    full eigenbasis: the directed design is Hurwitz with every mode on
    the pole, verify's verdict agrees with the network Jacobian on the
    disagreement subspace, and simulate_linear synchronizes
"""

import warnings

import numpy as np
import pytest

from helpers import (assert_spectra_close, hurwitz_2x2, path_topology,
                     random_connected_topology)
from hypothesis import given, settings, strategies as st

from netsync import (
    DefectiveMatrix,
    DimensionMismatch,
    ArgumentMarginViolation,
    EigensolverFailure,
    Laplacian,
    LinearNetworkSystem,
    ModalCouplingSpec,
    PreconditionViolation,
    RealizationResidue,
    Topology,
    build_laplacian,
    decompose,
    design_directed,
    design_report,
    design_undirected,
    is_connected,
    realize,
    simulate_linear,
    spectrum,
    sync_error,
    verify,
)
from netsync.coupling import _cluster_labels, _conjugate_pairs
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


@pytest.mark.parametrize("A, blocks", [
    ([[0, 1, 1], [0, 1, 0], [0, 0, 0]], ((0, 1),)),
    ([[0, 1, 1, 0], [0, 2, 0, 1], [0, 0, 0, 1], [0, 0, 0, 2]],
     ((0, 1), (2, 3))),
    ([[-1, 1, 0, 1], [0, 2, 1, 1], [0, 0, 5, 1], [0, 0, 0, 2]],
     ((1, 2),)),
], ids=["one-cluster-split", "two-clusters-interleaved",
        "defective-cluster-in-the-middle"])
def test_decompose_reorders_schur_clusters(A, blocks):
    # the Schur diagonal interleaves the clusters, so the block form
    # reorders it before decoupling them
    A = np.array(A, dtype=float)
    d = decompose(A)
    assert d.defective_blocks == blocks
    assert np.allclose(d.P @ d.modal_matrix @ d.P_inv, A, rtol=0.0,
                       atol=1e-12)
    # block diagonal: every entry coupling two clusters is exactly zero
    vals = d.mode_eigenvalues
    other_cluster = np.abs(vals[:, None] - vals[None, :]) > 1e-6
    assert not d.modal_matrix[other_cluster].any()
    # entries constant on each cluster realize an H commuting with A
    levels = -1.0 - d.mode_eigenvalues.real
    H = realize(ModalCouplingSpec(entries=levels), d).H_eff
    assert np.allclose(H @ A, A @ H, rtol=0.0, atol=1e-12)


def test_decompose_rejects_nonsquare():
    with pytest.raises(DimensionMismatch):
        decompose(np.zeros((2, 3)))


@pytest.mark.parametrize("raised, expected", [
    (np.linalg.LinAlgError("no convergence"), EigensolverFailure),
    (MemoryError(), MemoryError),
], ids=["lapack-failure", "other-error"])
def test_decompose_schur_failure(monkeypatch, raised, expected):
    import scipy.linalg

    def schur(*args, **kwargs):
        raise raised

    monkeypatch.setattr(scipy.linalg, "schur", schur)
    with pytest.raises(expected):
        decompose(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_cluster_labels_follow_chains():
    # 1.2e-8 ~ 0.6e-8 ~ 0.0 within tol 1e-8, though |1.2e-8 - 0.0| > tol:
    # one cluster, linked through the entry listed last
    labels = _cluster_labels(np.array([1.2e-8, 5.0, 0.0, 0.6e-8]), 1e-8)
    assert labels[0] == labels[2] == labels[3] != labels[1]


def test_decompose_ill_conditioned_clusters_raise():
    # eigenvalues 1 and 1.01 are distinct clusters, but the huge
    # off-diagonal coupling makes every modal basis ill-conditioned
    with pytest.raises(DefectiveMatrix):
        decompose(np.array([[1.0, 1e15], [0.0, 1.01]]))
    # 1 and 1 + 2e-8 are one eigenvalue: a single defective cluster,
    # whose Schur basis is perfectly conditioned
    d = decompose(np.array([[1.0, 1e6], [0.0, 1.0 + 2e-8]]))
    assert d.defective_blocks == ((0, 1),) and d.condition < 10.0
    # eigenvalues near +-1e154 i, whose block similarity overflows
    A = np.array([[-0.23, 0.0, -0.7], [2e-16, 0.0, -1e308],
                  [1e308, -5e-277, 0.42]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DefectiveMatrix):
            decompose(A)


def _jordan(lam, k):
    return lam * np.eye(k) + np.eye(k, k=1)


@st.composite
def _similar_jordan_problems(draw):
    """A = S J S^-1 with cond(S) <= 1e3.  J holds one Jordan structure at
    the dominant real part (a k x k block at a real lambda, k = 2 or 3,
    or the 4 x 4 real form [[R, I], [0, R]] of two 2 x 2 blocks at
    a +- ib) and distinct modes further left: up to three real ones and
    an optional oscillatory pair, at least 0.3 from each other and from
    the structure."""
    re = draw(st.floats(-3.0, 3.0))
    kind = draw(st.sampled_from(["real-2", "real-3", "complex-2"]))
    if kind == "complex-2":
        b = draw(st.floats(0.3, 3.0))
        R = np.array([[re, b], [-b, re]])
        blocks = [np.block([[R, np.eye(2)], [np.zeros((2, 2)), R]])]
        cluster_values = [complex(re, b), complex(re, -b)]
    else:
        k = int(kind[-1])
        blocks = [_jordan(re, k)]
        cluster_values = [re]
    gaps = draw(st.lists(st.floats(0.3, 2.0), max_size=3))
    for left in re - np.cumsum(gaps):
        blocks.append(np.array([[left]]))
    if draw(st.booleans()):
        c = re - draw(st.floats(0.3, 2.0)) - sum(gaps)
        d = draw(st.floats(0.3, 3.0))
        blocks.append(np.array([[c, d], [-d, c]]))
    n = sum(len(B) for B in blocks)
    J = np.zeros((n, n))
    i = 0
    for B in blocks:
        J[i:i + len(B), i:i + len(B)] = B
        i += len(B)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    U, _, Vt = np.linalg.svd(rng.normal(size=(n, n)))
    S = U @ np.diag(np.logspace(0.0, draw(st.floats(0.0, 3.0)), n)) @ Vt
    return (S @ J @ np.linalg.inv(S), np.linalg.cond(S), len(blocks[0]),
            cluster_values)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(problem=_similar_jordan_problems(), lam2=st.floats(0.3, 2.0),
       sigma=st.floats(0.5, 2.0), depth=st.floats(0.1, 3.0))
def test_jordan_blocks_are_one_cluster_whatever_the_rounding(problem, lam2,
                                                             sigma, depth):
    A, cond_S, size, cluster_values = problem
    d = decompose(A)
    # the structure is reported as defective clusters, one per value
    k = size // len(cluster_values)
    assert d.condition < 1e6
    assert len(d.defective_blocks) == len(cluster_values)
    blocks = sorted(d.defective_blocks,
                    key=lambda b: d.mode_eigenvalues[b[0]].imag)
    for block, value in zip(blocks, sorted(cluster_values, key=np.imag)):
        assert len(block) == k
        assert np.abs(d.mode_eigenvalues[list(block)] - value).max() < 1e-3
    cluster = [i for block in d.defective_blocks for i in block]

    # a uniform pole, and a request constant on the cluster and on each
    # conjugate pair with the other modes further left, both realize an
    # H that commutes with A and put the cluster's modal real part on
    # the pole
    max_re = d.mode_eigenvalues.real.max()
    p = min(max_re, 0.0) - depth
    graded = p - 0.5 * (max_re - d.mode_eigenvalues.real)
    graded[cluster] = p
    pairs = _conjugate_pairs(d.mode_eigenvalues)
    for i, j in pairs:
        graded[j] = graded[i]
    lap_spec = spectrum(build_laplacian(path_topology(3)))
    for poles in (np.full(d.n, p), graded):
        spec = design_undirected(d, lam2, poles=poles, sigma=sigma)
        H = realize(spec, d).H_eff
        assert np.abs(H @ A - A @ H).max() <= 1e-8 * max(
            1.0, np.abs(H).max() * np.abs(A).max())
        modal = (d.mode_eigenvalues[cluster]
                 + sigma * lam2 * spec.entries[cluster])
        assert abs(modal.real.max() - p) <= 1e-12 * max(1.0, abs(max_re))
        # An eigensolver sees the defective lambda2 mode matrix M only to
        # about (eps * cond(S) * ||M||)**(1/k): rounding splits its k x k
        # Jordan block that far, into the 1e-6 range for k = 2 and
        # cond(S) in the hundreds.  So verify's slowest mode is held to
        # that bound, not to the 1e-6 of diagonalizable designs.
        M = A + sigma * lam2 * H
        split = (2.2e-16 * cond_S * np.linalg.norm(M, 2)) ** (1.0 / k)
        analysis = verify(A, H, sigma * lam2 / lap_spec.lambda2.real,
                          lap_spec)
        assert abs(analysis.modes[0].max_real_part - p) <= 10.0 * split

    # a per-mode request that differs across the cluster is refused
    partner = {i: j for pair in pairs for i, j in (pair, pair[::-1])}
    i = d.defective_blocks[0][0]
    poles = np.full(d.n, p)
    poles[[i, partner.get(i, i)]] = p - 1.0
    with pytest.raises(PreconditionViolation, match="defective mode cluster"):
        design_undirected(d, lam2, poles=poles, sigma=sigma)


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
    # a conjugate pair at level zero gets +0j, not -0.0 from cos(argument)
    d = decompose(np.array([[-1.0, -1.0], [1.0, -1.0]]))
    spec = design_directed(d, 1.0 + 0.2j, np.radians(11.0),
                           argument=np.radians(150.0), margin=0.0)
    assert np.all(spec.entries == 0.0)
    assert not np.signbit(spec.entries.real).any()
    assert not np.signbit(spec.entries.imag).any()


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
    with pytest.raises(PreconditionViolation, match="conjugate partner"):
        design_undirected(decompose(np.diag([1j, 2.0])), 0.5)
    with pytest.raises(PreconditionViolation, match="equal pole requests"):
        design_undirected(decompose(np.array([[0.0, -1.0], [1.0, 0.0]])),
                          0.5, poles=[-1.0, -2.0])


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
    with pytest.raises(PreconditionViolation, match="argument"):
        design_directed(d, 1.0, 0.3, argument=4.0)


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


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), N=st.integers(2, 48),
       n=st.integers(1, 6))
def test_real_mode_solve_matches_complex_solve(seed, N, n):
    """On an undirected topology verify solves real mode matrices; each
    mode's largest real part matches the complex solve of the same
    matrices to 1e-12 of the matrix norm (the scale of an eigensolver's
    error), with the same verdict, for a design and a random coupling."""
    rng = np.random.default_rng(seed)
    lap_spec = spectrum(build_laplacian(random_connected_topology(rng, N)))
    A = rng.normal(0, 1, (n, n))
    sigma = float(rng.uniform(0.5, 2.0))
    d = decompose(A)
    designed = realize(design_undirected(d, lap_spec.lambda2.real,
                                         margin=rng.uniform(0.05, 2.0),
                                         sigma=sigma), d).H_eff
    for H in (designed, rng.normal(0, 1, (n, n))):
        analysis = verify(A, H, sigma, lap_spec)
        scaled = sigma * lap_spec.eigenvalues[1:]
        modes = A + scaled[:, None, None] * H.astype(complex)
        ref = np.linalg.eigvals(modes).real.max(axis=1)
        norms = np.abs(modes).sum(axis=2).max(axis=1)
        got = np.array([r.max_real_part for r in analysis.modes])
        assert (np.abs(got - ref) <= 1e-12 * norms).all()
        assert analysis.overall_hurwitz == bool((ref < -1e-9).all())
        assert all(r.eigenvalues.dtype == np.complex128
                   for r in analysis.modes)


@st.composite
def _leader_follower_problems(draw):
    """(topology, A): a one-way chain or a tree on N = 3..8 permuted
    nodes, every edge of one weight w, so L is triangular up to the
    permutation with w on N - 1 diagonal places; and A = S J S^-1 with
    cond(S) <= 10 and n = 1..3 modes whose real parts are distinct
    points of a 0.1 grid in [-0.5, 0.2]."""
    N = draw(st.sampled_from(range(3, 9)))
    chain = draw(st.booleans())
    w = draw(st.floats(0.5, 2.0))
    n = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    order = rng.permutation(N)
    weights = np.zeros((N, N))
    for i in range(1, N):
        parent = order[i - 1] if chain else order[rng.integers(0, i)]
        weights[order[i], parent] = w

    real_parts = iter(rng.permutation(np.linspace(-0.5, 0.2, 8)))
    J = np.zeros((n, n))
    i = 0
    while i < n:
        re = next(real_parts)
        if n - i >= 2 and rng.random() < 0.5:
            b = rng.uniform(0.3, 2.0)
            J[i:i + 2, i:i + 2] = [[re, b], [-b, re]]
            i += 2
        else:
            J[i, i] = re
            i += 1
    U, _, Vt = np.linalg.svd(rng.normal(size=(n, n)))
    S = U @ np.diag(np.logspace(0.0, rng.uniform(0.0, 1.0), n)) @ Vt
    return (Topology(n_nodes=N, directed=True, weights=weights),
            S @ J @ np.linalg.inv(S))


def _transverse_max_real_part(A, H_eff, sigma, L):
    """Largest real part of the Nn x Nn network Jacobian restricted to
    the disagreement coordinates x_i - x_0, i = 1..N-1: D J D^+ with D
    of full row rank, which is exact since J maps the synchronous
    subspace ker D into itself."""
    N, n = L.shape[0], A.shape[0]
    J = np.kron(np.eye(N), A) + sigma * np.kron(L, H_eff)
    D = np.kron(np.hstack([-np.ones((N - 1, 1)), np.eye(N - 1)]), np.eye(n))
    return np.linalg.eigvals(D @ J @ np.linalg.pinv(D)).real.max()


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(problem=_leader_follower_problems(), sigma=st.floats(0.5, 2.0),
       argument=st.floats(135.0, 180.0), seed=st.integers(0, 2**32 - 1))
def test_leader_follower_designs_verify_and_synchronize(problem, sigma,
                                                        argument, seed):
    topology, A = problem
    lap = build_laplacian(topology)
    lap_spec = spectrum(lap)
    assert is_connected(lap_spec)
    d = decompose(A)
    spec = design_directed(d, lap_spec.lambda2, lap_spec.theta_max,
                           argument=np.radians(argument),
                           poles=[-1.0] * d.n, sigma=sigma)
    H = realize(spec, d).H_eff
    analysis = verify(A, H, sigma, lap_spec)
    assert analysis.overall_hurwitz
    assert all(abs(m.max_real_part + 1.0) <= 1e-6 for m in analysis.modes)

    # eig resolves a k x k Jordan block of the Jacobian only to about
    # eps**(1/k) * ||J||, within 0.05 here for k <= 7, so verdicts are
    # compared only 0.1 or more from the imaginary axis
    rng = np.random.default_rng(seed)
    for H_x in (H, rng.normal(0.0, 0.5, (d.n, d.n))):
        jacobian = _transverse_max_real_part(A, H_x, sigma, lap.matrix)
        if abs(jacobian) >= 0.1:
            assert verify(A, H_x, sigma, lap_spec).overall_hurwitz == (
                jacobian < 0.0)

    # a k x k Jordan block decays like t**(k - 1) * e**-t: still about
    # 4e-7 at t = 30 for N = 8, far below 1e-8 by t = 40
    system = LinearNetworkSystem(A=A, H_eff=H, sigma=sigma, laplacian=lap)
    x0 = rng.uniform(-1.0, 1.0, (topology.n_nodes, d.n))
    traj = simulate_linear(system, x0, 40.0, 1e-2)
    assert sync_error(traj, 1e-8).error_series[-1] < 1e-8
