"""Topology, Laplacian, and spectrum tests.

Covers:
  - L = D - A construction against hand-built and fixture matrices, and
    build_laplacian's unchecked construction bit for bit against the
    validated constructor: matrix, ||L||_inf, symmetry and modal basis
  - spectrum regression: the path graph's closed-form eigenvalues
    2 - 2cos(k*pi/5), and the directed fixture's complex pair/theta_max
  - symmetric Laplacians through the symmetric solver: complete graphs
    with exactly zero imaginary parts and theta_max, a complex128 spectrum
    for undirected and directed topologies, random undirected spectra
    against the general solver, and asymmetric ones bit for bit equal to
    the general solver's sorted spectrum
  - connectivity detection (one zero eigenvalue, rest right of it), and
    its tolerance and the spectrum's zero tolerance rejected unless
    positive and finite
  - the one-way chain, whose Laplacian has no full eigenbasis: its
    spectrum is exactly {0, 1, 1} and it is connected
  - structural invariants over random topologies: zero row sums, real
    nonnegative undirected spectra, trace, and the eigenvalues against
    eigvalsh (undirected) or sum(lambda^2) = tr(L^2) (directed)
  - topology and Laplacian invariant rejection (a node count that
    disagrees with the weights, a non-square or single-node Laplacian, a
    negative diagonal within the other checks' tolerances), including
    degrees whose Laplacian row norms overflow
  - topology JSON loading of a hand-written file, and rejection of
    malformed files (a non-object payload, a non-boolean "directed")
"""

import json
import warnings

import numpy as np
import pytest

from helpers import path_topology, random_connected_topology
from hypothesis import given, settings, strategies as st

from netsync import (
    InvalidInput,
    Laplacian,
    Topology,
    build_laplacian,
    is_connected,
    load_topology,
    spectrum,
)
from netsync.scenarios import load_fixture


# ── build_laplacian ───────────────────────────────────────────────────────────


def test_two_node_laplacian():
    top = Topology(n_nodes=2, directed=False, weights=np.array([[0., 1.], [1., 0.]]))
    assert np.array_equal(build_laplacian(top).matrix, [[1., -1.], [-1., 1.]])


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_nodes=st.integers(2, 12),
       directed=st.booleans())
def test_built_laplacian_equals_the_validated_one(seed, n_nodes, directed):
    # build_laplacian skips the checks its construction guarantees; what
    # it keeps must be what the public constructor computes, bit for bit
    top = random_connected_topology(np.random.default_rng(seed), n_nodes,
                                    directed)
    built = build_laplacian(top)
    checked = Laplacian(matrix=np.array(built.matrix))
    assert not built.matrix.flags.writeable
    assert built.matrix.tobytes() == checked.matrix.tobytes()
    assert built._norm == checked._norm
    assert built._symmetric == checked._symmetric == (not directed)
    if not directed:
        assert built._modal_basis.tobytes() == checked._modal_basis.tobytes()
        assert not built._modal_basis.flags.writeable


def test_path_laplacian_matches_fixture():
    fx = load_fixture("example1")
    lap = build_laplacian(path_topology(5))
    assert np.array_equal(lap.matrix, np.array(fx["laplacian"], dtype=float))


def test_directed_fixture_laplacian_from_adjacency():
    fx = load_fixture("example2")
    L = np.array(fx["laplacian"], dtype=float)
    adjacency = -(L - np.diag(np.diag(L)))
    top = Topology(n_nodes=5, directed=True, weights=adjacency)
    assert np.allclose(build_laplacian(top).matrix, L)


def test_weighted_edges_accepted():
    w = np.array([[0.0, 2.5], [0.7, 0.0]])
    lap = build_laplacian(Topology(n_nodes=2, directed=True, weights=w))
    assert np.allclose(lap.matrix, [[2.5, -2.5], [-0.7, 0.7]])


# ── spectrum ─────────────────────────────────────────────────────────────────


def test_path_spectrum_closed_form():
    lap = build_laplacian(path_topology(5))
    spec = spectrum(lap)
    expected = np.array([2.0 - 2.0 * np.cos(k * np.pi / 5) for k in range(5)])
    assert np.allclose(spec.eigenvalues.real, expected, atol=1e-10)
    assert np.abs(spec.eigenvalues.imag).max() <= 1e-10
    assert abs(spec.lambda2.real - 0.3820) < 5e-4
    assert spec.theta_max == 0.0


def test_directed_fixture_spectrum_pair_and_theta():
    fx = load_fixture("example2")
    spec = spectrum(Laplacian(np.array(fx["laplacian"], dtype=float)))
    pair = complex(*fx["lambda_pair"])
    dist = np.abs(spec.eigenvalues - pair).min()
    dist_conj = np.abs(spec.eigenvalues - pair.conjugate()).min()
    assert dist < 1e-3 and dist_conj < 1e-3
    assert abs(np.degrees(spec.theta_max) - fx["theta_max_deg"]) < 0.05


def test_two_node_spectrum():
    spec = spectrum(Laplacian(np.array([[1., -1.], [-1., 1.]])))
    assert np.allclose(spec.eigenvalues, [0.0, 2.0], atol=1e-12)


def test_sort_order_is_real_then_imag():
    fx = load_fixture("example2")
    spec = spectrum(Laplacian(np.array(fx["laplacian"], dtype=float)))
    vals = spec.eigenvalues
    key = np.lexsort((vals.imag, vals.real))
    assert np.array_equal(key, np.arange(vals.size))
    # the conjugate pair is adjacent, minus-imaginary first
    assert spec.lambda2.imag < 0


def test_undirected_spectrum_matches_eigvalsh():
    lap = build_laplacian(path_topology(5))
    spec = spectrum(lap)
    scale = np.abs(lap.matrix).sum(axis=1).max()
    assert np.abs(spec.eigenvalues - np.linalg.eigvalsh(lap.matrix)).max() \
        <= 1e-12 * scale


def test_one_way_chain_spectrum_is_exact():
    # directed chain feeding one way: eigenvalue 1 repeated with a single
    # eigenvector, so L has no full eigenbasis
    L = np.array([[0., 0., 0.], [-1., 1., 0.], [0., -1., 1.]])
    spec = spectrum(Laplacian(L))
    assert np.array_equal(spec.eigenvalues, [0.0, 1.0, 1.0])
    assert is_connected(spec)


@pytest.mark.parametrize("n", [11, 17, 19, 26])
def test_complete_graph_spectrum_is_exactly_real(n):
    # the general eigensolver returns imaginary parts of order 1e-15 on
    # these complete graphs; a symmetric L must give exact zeros
    w = np.ones((n, n)) - np.eye(n)
    spec = spectrum(build_laplacian(Topology(n_nodes=n, directed=False,
                                             weights=w)))
    assert np.all(spec.eigenvalues.imag == 0.0)
    assert spec.theta_max == 0.0
    expected = np.full(n, float(n))
    expected[0] = 0.0
    assert np.abs(spec.eigenvalues - expected).max() <= 1e-12 * n


def test_spectrum_eigenvalues_are_complex():
    chain = Laplacian(np.array([[0., 0., 0.], [-1., 1., 0.], [0., -1., 1.]]))
    for lap in (build_laplacian(path_topology(5)), chain):
        spec = spectrum(lap)
        assert spec.eigenvalues.dtype == np.complex128
        assert isinstance(spec.lambda2, complex)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 48))
def test_symmetric_spectrum_matches_general_solver(seed, n):
    rng = np.random.default_rng(seed)
    m = build_laplacian(random_connected_topology(rng, n)).matrix
    spec = spectrum(Laplacian(m))
    general = np.linalg.eigvals(m).astype(complex)
    general = general[np.argsort(general.real, kind="stable")]
    scale = np.abs(m).sum(axis=1).max()
    assert np.all(spec.eigenvalues.imag == 0.0) and spec.theta_max == 0.0
    assert np.abs(spec.eigenvalues - general).max() <= 1e-12 * scale


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 48))
def test_asymmetric_spectrum_is_the_general_solvers(seed, n):
    rng = np.random.default_rng(seed)
    m = build_laplacian(
        random_connected_topology(rng, n, directed=True)).matrix
    assert not np.array_equal(m, m.T)
    vals = np.linalg.eigvals(m).astype(complex)
    vals = vals[np.lexsort((vals.imag, vals.real))]
    spec = spectrum(Laplacian(m))
    assert np.array_equal(spec.eigenvalues.view(np.float64),
                          vals.view(np.float64))


# ── is_connected ─────────────────────────────────────────────────────────────


def test_path_is_connected():
    assert is_connected(spectrum(build_laplacian(path_topology(5))))


def test_disconnected_pair_is_not_connected():
    L = np.zeros((4, 4))
    L[:2, :2] = [[1., -1.], [-1., 1.]]
    L[2:, 2:] = [[1., -1.], [-1., 1.]]
    assert not is_connected(spectrum(Laplacian(L)))


def test_six_node_fixture_is_connected():
    fx = load_fixture("example3")
    spec = spectrum(Laplacian(np.array(fx["laplacian"], dtype=float)))
    assert is_connected(spec)


# ── invariants over random topologies ────────────────────────────────────────


def test_random_topology_invariants():
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = int(rng.integers(2, 9))
        directed = bool(rng.random() < 0.5)
        top = random_connected_topology(rng, n, directed=directed)
        lap = build_laplacian(top)
        m = lap.matrix
        assert np.abs(m.sum(axis=1)).max() <= 1e-12 * n * max(1.0, np.abs(m).max())

        spec = spectrum(lap)
        if not directed:
            assert np.abs(spec.eigenvalues.imag).max() <= 1e-10
            assert spec.eigenvalues.real.min() >= -1e-10
        # eigenvalue sum equals trace
        assert abs(spec.eigenvalues.sum() - np.trace(m)) <= 1e-8 * max(1.0, abs(np.trace(m)))
        # the eigenvalues against an independent reference
        scale = np.abs(m).sum(axis=1).max()
        if not directed:
            assert np.abs(spec.eigenvalues.real - np.linalg.eigvalsh(m)).max() \
                <= 1e-10 * scale
        else:
            assert abs((spec.eigenvalues ** 2).sum() - np.trace(m @ m)) \
                <= 1e-8 * n * scale ** 2


# ── validation ───────────────────────────────────────────────────────────────


@pytest.mark.parametrize("weights, directed", [
    (np.array([[1.0, 1.0], [1.0, 0.0]]), False),   # self-loop
    (np.array([[0.0, -1.0], [1.0, 0.0]]), True),   # negative weight
    (np.array([[0.0, 1.0], [2.0, 0.0]]), False),   # asymmetric undirected
    (np.zeros((1, 1)), False),                     # single node
    (np.zeros((2, 3)), False),                     # not square
])
def test_topology_invariant_violations(weights, directed):
    with pytest.raises(InvalidInput):
        Topology(n_nodes=weights.shape[0], directed=directed, weights=weights)


def test_laplacian_invariant_violations():
    with pytest.raises(InvalidInput):
        Laplacian(np.array([[1.0, -0.5], [-1.0, 1.0]]))   # row sums
    with pytest.raises(InvalidInput):
        Laplacian(np.array([[-1.0, 1.0], [1.0, -1.0]]))   # signs
    for bad in (np.inf, np.nan):                          # non-finite
        with pytest.raises(InvalidInput):
            Laplacian(np.array([[bad, -bad], [-bad, bad]]))
    with pytest.raises(InvalidInput, match="square"):
        Laplacian(np.zeros((2, 3)))
    # a spectrum needs a second eigenvalue, and the simulators read one
    with pytest.raises(InvalidInput, match="at least 2 nodes"):
        Laplacian(np.zeros((1, 1)))
    # rows summing to zero and off-diagonal entries within their 1e-12
    # tolerance still leave a diagonal entry of -2e-12 to reject
    with pytest.raises(InvalidInput, match="diagonal entries must be >= 0"):
        Laplacian(np.array([[-2e-12, 1e-12, 1e-12],
                            [-1.0, 1.0, 0.0],
                            [0.0, -1.0, 1.0]]))


@pytest.mark.filterwarnings("error")
def test_non_numeric_matrices_rejected():
    # not numeric, ragged, complex (a float cast would drop 1j)
    for bad in ([["a"]], [[0.0, 1.0], [1.0]], [[{}]],
                np.array([[0.0, 1.0 + 1j], [1.0 + 1j, 0.0]])):
        with pytest.raises(InvalidInput, match="Laplacian"):
            Laplacian(bad)
        with pytest.raises(InvalidInput, match="weights"):
            Topology(n_nodes=len(bad), directed=True, weights=bad)


def test_topology_node_count_must_match_weights():
    with pytest.raises(InvalidInput, match="disagrees"):
        Topology(n_nodes=3, directed=False, weights=np.zeros((2, 2)))


@pytest.mark.parametrize("weights, directed", [
    ([[0.0, 1e308], [1e308, 0.0]], False),    # degree finite, 2 * degree not
    ([[0.0, 1e308, 1e308], [1e308, 0.0, 1e308], [1e308, 1e308, 0.0]], False),
    ([[0.0, 1e308, 1e308], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]], True),
    ([[0.0, 1e308], [0.0, 0.0]], True),     # directed, 2 * degree overflows
])
def test_overflowing_degrees_rejected_without_warning(weights, directed):
    top = Topology(n_nodes=len(weights), directed=directed,
                   weights=np.array(weights))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInput, match="degree"):
            build_laplacian(top)


# ── topology files ───────────────────────────────────────────────────────────


def test_topology_json_round_trip(tmp_path):
    top = random_connected_topology(np.random.default_rng(0), 5, directed=True)
    path = tmp_path / "topology.json"
    path.write_text(json.dumps({"directed": top.directed,
                                "weights": top.weights.tolist()}))
    loaded = load_topology(path)
    assert loaded.directed == top.directed
    assert np.array_equal(loaded.weights, top.weights)


def test_topology_json_rejects_invalid(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"directed": False, "weights": [[0, 1], [2, 0]]}))
    with pytest.raises(InvalidInput):
        load_topology(bad)  # asymmetric undirected
    bad.write_text("not json {")
    with pytest.raises(InvalidInput):
        load_topology(bad)
    bad.write_text("[[0, 1], [1, 0]]")
    with pytest.raises(InvalidInput, match="object"):
        load_topology(bad)
    for directed in ("yes", "false", 1, 0, None, [True]):
        bad.write_text(json.dumps({"directed": directed,
                                   "weights": [[0, 1], [1, 0]]}))
        with pytest.raises(InvalidInput, match="boolean"):
            load_topology(bad)
    with pytest.raises(InvalidInput):
        load_topology(tmp_path / "missing.json")


def test_topology_weights_must_be_json_numbers(tmp_path):
    # np.array(..., dtype=float) would read "1" and true as weights, and an
    # integer beyond the float range would end in a raw OverflowError
    bad = tmp_path / "bad.json"
    for weights in ([[0, "1"], [True, 0]], [[0, 1], [1, None]],
                    [[0, 10 ** 400], [10 ** 400, 0]], "01"):
        bad.write_text(json.dumps({"directed": False, "weights": weights}))
        with pytest.raises(InvalidInput, match="weights"):
            load_topology(bad)
