"""Gain <-> coupling conversions and rank gates.

Covers:
  - h_from_gain against the consensus fixture matrices (also with a flat
    B, read as a column), and the shape gates of h_from_gain (also a
    3-D B and a K that is not m x n for an n x m B), recovery_residual,
    controllability and AgentModel
  - pseudoinverse: worked values, left-inverse property, the four
    Moore-Penrose conditions, rank rejection (also of a B^T B singular
    in floating point)
  - overflowing products rejected as InvalidInput without a warning
  - gain recovery: exactness on representable couplings, ZeroGain on
    range-orthogonal couplings (and not on a projection whose scale
    bound overflows), least-squares residual reporting
  - controllability rank on fixture and degenerate pairs
  - round-trip identity over 100 random full-column-rank pairs
"""

import warnings

import numpy as np
import pytest

from netsync import (
    AgentModel,
    DimensionMismatch,
    InvalidInput,
    PreconditionViolation,
    RankDeficient,
    ZeroGain,
    controllability,
    gain_from_h,
    h_from_gain,
    pseudo_inverse,
    recovery_residual,
)
from netsync.scenarios import load_fixture


# ── h_from_gain ──────────────────────────────────────────────────────────────


def test_h_from_gain_fixture():
    fx = load_fixture("example3")
    H = h_from_gain(np.array(fx["B"], float), np.array(fx["K"], float))
    assert np.array_equal(H, np.array(fx["H6"], float))
    # a flat B is read as a column
    assert np.array_equal(h_from_gain(np.ravel(fx["B"]), fx["K"]), H)


def test_h_from_gain_alternative_input_matrix():
    fx = load_fixture("example3")
    H = h_from_gain(np.array(fx["B_alt"], float), np.array(fx["K"], float))
    assert np.array_equal(H, np.array(fx["H7"], float))


def test_h_from_gain_zero_gain_gives_zero_matrix():
    assert np.array_equal(h_from_gain(np.array([[1.0], [-1.0]]), np.zeros((1, 2))),
                          np.zeros((2, 2)))


def test_h_from_gain_dimension_gate():
    with pytest.raises(DimensionMismatch):
        h_from_gain(np.array([[1.0], [-1.0]]), np.zeros((2, 2)))
    # a 1 x 3 K once gave a 2 x 3 "H_paper" for this 2 x 1 B
    for K in (np.zeros((1, 3)), np.zeros(3), np.zeros((2, 1)), 1.0):
        with pytest.raises(DimensionMismatch, match="K must be 1 x 2"):
            h_from_gain(np.array([[1.0], [-1.0]]), K)
    with pytest.raises(DimensionMismatch, match="ndim=3"):
        h_from_gain(np.ones((2, 1, 1)), np.ones((1, 2)))


def test_recovery_residual_dimension_gate():
    # numpy would broadcast a K that does not fit B into a residual
    with pytest.raises(DimensionMismatch):
        recovery_residual(np.ones((1, 1)), np.ones((1, 1)), np.ones((1, 2)))


# ── pseudo_inverse ───────────────────────────────────────────────────────────


def test_pseudo_inverse_column_vector():
    assert np.allclose(pseudo_inverse(np.array([[1.0], [-1.0]])),
                       [[0.5, -0.5]], atol=1e-14)
    assert np.allclose(pseudo_inverse(np.array([[1.0], [-2.0]])),
                       [[0.2, -0.4]], atol=1e-14)


def test_pseudo_inverse_identity():
    assert np.allclose(pseudo_inverse(np.eye(4)), np.eye(4), atol=1e-14)


def test_pseudo_inverse_left_inverse_property():
    rng = np.random.default_rng(8)
    for _ in range(50):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(1, n + 1))
        B = rng.normal(0, 1, (n, m))
        assert np.abs(pseudo_inverse(B) @ B - np.eye(m)).max() <= 1e-10


def test_pseudo_inverse_moore_penrose_conditions():
    rng = np.random.default_rng(9)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, n + 1))
        B = rng.normal(0, 2, (n, m))
        Bp = pseudo_inverse(B)
        assert np.abs(B @ Bp @ B - B).max() <= 1e-9
        assert np.abs(Bp @ B @ Bp - Bp).max() <= 1e-9
        assert np.abs((B @ Bp) - (B @ Bp).T).max() <= 1e-9
        assert np.abs((Bp @ B) - (Bp @ B).T).max() <= 1e-9


def test_pseudo_inverse_rank_gate():
    with pytest.raises(RankDeficient):
        pseudo_inverse(np.array([[1.0, 1.0], [1.0, 1.0]]))
    # full rank by its singular values, but B^T B is zero (5e-324) or
    # subnormal (1e-160) in floating point
    for tiny in (5e-324, 1e-160):
        with pytest.raises(RankDeficient):
            pseudo_inverse(np.diag([tiny, tiny]))


@pytest.mark.parametrize("call", [
    lambda: h_from_gain(np.full((2, 2), 1e308), np.full((2, 2), 1e308)),
    lambda: pseudo_inverse(np.array([[1e200], [1e200]])),
    lambda: gain_from_h(np.diag([1e-150, 1e-150]), np.diag([1e300, 1e300])),
    lambda: controllability(np.full((2, 2), 1e308), np.ones((2, 2))),
    lambda: recovery_residual(np.array([[3e97, 3e97], [0.0, 3e97]]),
                              np.full((2, 2), 1e308), np.full((2, 2), 3e211)),
], ids=["h_from_gain", "pseudo_inverse", "gain_from_h", "controllability",
        "recovery_residual"])
def test_overflowing_product_is_invalid_input_without_warning(call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInput):
            call()


# ── gain_from_h ──────────────────────────────────────────────────────────────


def test_gain_recovery_fixture():
    fx = load_fixture("example3")
    K = gain_from_h(np.array(fx["B"], float), np.array(fx["H6"], float))
    assert np.abs(K - np.array(fx["K"], float)).max() <= 1e-12


def test_gain_recovery_identity_input():
    K0 = np.array([[0.3, -1.2], [2.0, 0.7]])
    assert np.allclose(gain_from_h(np.eye(2), -K0), K0, atol=1e-14)


def test_gain_recovery_zero_gain_gate():
    with pytest.raises(ZeroGain):
        gain_from_h(np.array([[1.0], [0.0]]), np.array([[0.0, 0.0], [1.0, 1.0]]))
    # |B^+| * |H| overflows, but B^+ H = diag(0, 1e305) is finite and not 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        K = gain_from_h(np.diag([1e-150, 1e-145]), np.diag([0.0, 1e160]))
    assert K[1, 1] == pytest.approx(-1e305)


def test_gain_recovery_least_squares_residual():
    B = np.array([[1.0], [-1.0]])
    H = np.array([[-1.0, 0.0], [0.0, -1.0]])  # not of the form -B K
    K = gain_from_h(B, H)
    assert recovery_residual(B, H, K) > 0.1
    fx = load_fixture("example3")
    K6 = gain_from_h(np.array(fx["B"], float), np.array(fx["H6"], float))
    assert recovery_residual(np.array(fx["B"], float),
                             np.array(fx["H6"], float), K6) <= 1e-12


# ── controllability ──────────────────────────────────────────────────────────


def test_controllability_fixture_pair():
    fx = load_fixture("example3")
    assert controllability(np.array(fx["A"], float),
                           np.array(fx["B"], float)) == 2


def test_controllability_uncontrollable_pair():
    assert controllability(np.eye(2), np.array([[1.0], [0.0]])) == 1


def test_controllability_full_input():
    assert controllability(np.diag([1.0, 2.0, 3.0]), np.eye(3)) == 3


def test_controllability_dimension_gate():
    with pytest.raises(DimensionMismatch):
        controllability(np.eye(2), np.ones((3, 1)))


# ── properties ───────────────────────────────────────────────────────────────


def test_round_trip_identity_100():
    rng = np.random.default_rng(31)
    done = 0
    while done < 100:
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, n + 1))
        B = rng.normal(0, 2, (n, m))
        if np.linalg.matrix_rank(B) < m:
            continue
        K = rng.normal(0, 2, (m, n))
        if np.abs(K).max() < 1e-6:
            continue
        recovered = gain_from_h(B, h_from_gain(B, K))
        assert np.abs(recovered - K).max() <= 1e-10 * max(1.0, np.abs(K).max())
        done += 1


def test_agent_model_validation():
    with pytest.raises(DimensionMismatch):
        AgentModel(A=np.eye(2), B=np.ones((3, 1)))
    with pytest.raises(DimensionMismatch):
        AgentModel(A=np.eye(2), B=np.ones((2, 3)))
    with pytest.raises(PreconditionViolation):
        AgentModel(A=np.eye(2), B=np.ones((2, 1)), c=0.0)
    with pytest.raises(DimensionMismatch, match="K must be 1 x 2"):
        AgentModel(A=np.eye(2), B=np.ones((2, 1)), K=np.ones((2, 2)))
    model = AgentModel(A=np.eye(2), B=np.array([[1.0], [-1.0]]),
                       K=np.array([1.0, 0.9]), c=0.5)
    assert model.K.shape == (1, 2)
