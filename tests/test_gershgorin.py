"""Geršgorin disc geometry tests.

Covers:
  - disc extraction (centers, radii, arguments, moduli), and matrices
    that are not square, 2-D, numeric or finite rejected
  - half-plane classification
  - the rotation certificate: worked examples, preconditions (a
    non-finite rho among them), and a
    1000-trial randomized soundness suite against the dense eigensolver
  - real projection: entrywise behavior, radius shrinkage, and a
    1000-trial half-plane preservation suite
  - monotonicity of the certificate in |theta| for diagonal matrices,
    plus a documented counterexample showing the radial condition is
    not monotone for nonzero radii
"""

import numpy as np
import pytest

from helpers import admissible_rotation_window, strictly_left_matrix

from netsync import (
    HalfPlane,
    InvalidInput,
    PreconditionViolation,
    discs,
    half_plane,
    real_projection,
    rotation_admissible,
)


# ── discs ────────────────────────────────────────────────────────────────────


def test_discs_diagonal():
    d = discs(np.diag([-1.0, -2.0]))
    assert np.allclose(d.centers, [-1.0, -2.0])
    assert np.allclose(d.radii, [0.0, 0.0])


def test_discs_off_diagonal_radii():
    d = discs(np.array([[-3.0, 1.0], [0.5, -2.0]]))
    assert np.allclose(d.radii, [1.0, 0.5])
    assert np.allclose(d.centers, [-3.0, -2.0])


def test_discs_complex_modulus_and_argument():
    d = discs(np.array([[-1.0 + 1.0j, 1.0 - 1.0j], [0.0, -2.0]]))
    assert np.isclose(d.radii[0], np.sqrt(2.0))
    assert np.isclose(d.center_arguments[0], 3.0 * np.pi / 4.0)
    assert np.isclose(d.center_moduli[0], np.sqrt(2.0))


@pytest.mark.filterwarnings("error")
def test_discs_rejects_nonsquare():
    with pytest.raises(PreconditionViolation):
        discs(np.zeros((2, 3)))
    with pytest.raises(PreconditionViolation):
        discs(np.ones((2, 2, 2)))                              # not 2-D
    for Z in ([[1.0, 2.0], [3.0]], "abc", [[-np.inf, 0.0], [0.0, -1.0]],
              [[np.nan]]):                  # ragged, not numeric, not finite
        with pytest.raises(InvalidInput):
            discs(Z)


# ── half_plane ───────────────────────────────────────────────────────────────


def test_half_plane_left_diagonal():
    assert half_plane(discs(np.diag([-1.0, -2.0]))) is HalfPlane.LEFT


def test_half_plane_left_with_radii():
    assert half_plane(discs(np.array([[-3.0, 1.0], [0.5, -2.0]]))) is HalfPlane.LEFT


def test_half_plane_mixed():
    assert half_plane(discs(np.array([[-1.0, 2.0], [0.0, -1.0]]))) is HalfPlane.MIXED


def test_half_plane_right():
    assert half_plane(discs(np.array([[3.0, 1.0], [0.0, 2.0]]))) is HalfPlane.RIGHT


# ── rotation certificate ─────────────────────────────────────────────────────


def test_rotation_admissible_real_diagonal():
    # zero radii: the radial condition holds with equality at theta = 0
    assert rotation_admissible(np.diag([-1.0, -1.0]), 1.0)


def test_rotation_admissible_conjugate_centers():
    # centers at argument +-153.4349 deg, rotation angle 27.3399 deg:
    # phase margin 153.4349 - 2 * 27.3399 = 98.755 deg > 90 deg
    Z = np.diag([-1.0 + 0.5j, -1.0 - 0.5j])
    theta = np.radians(27.3399)
    assert rotation_admissible(Z, np.exp(1j * theta))


def test_rotation_rejected_by_radius():
    # r_11 sin(pi/4) = 0.707 < 0.9
    Z = np.array([[-1.0, 0.9], [0.0, -1.0]])
    assert not rotation_admissible(Z, np.exp(1j * np.pi / 4.0))


@pytest.mark.filterwarnings("error")
def test_rotation_preconditions():
    with pytest.raises(PreconditionViolation):
        rotation_admissible(np.diag([-1.0, -1.0]), -1.0)       # rho left
    with pytest.raises(PreconditionViolation):
        rotation_admissible(np.diag([1.0, -1.0]), 1.0)         # discs not left
    for rho in (np.inf, np.nan, complex(1.0, np.inf)):         # rho not finite
        with pytest.raises(PreconditionViolation):
            rotation_admissible(-np.eye(2), rho)
    with pytest.raises(InvalidInput):
        rotation_admissible([[-np.inf]], 1.0)                  # Z not finite


def test_rotation_certificate_randomized_1000():
    """Soundness: whenever the certificate accepts, every eigenvalue of
    rho * Z lies strictly in the open left half-plane."""
    rng = np.random.default_rng(2024)
    accepted = 0
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        Z = strictly_left_matrix(rng, n, radius_fraction=0.3)
        lo, hi = admissible_rotation_window(Z)
        # bias theta around the window edge so both verdicts occur
        theta = rng.uniform(0.0, max(hi, lo) * 1.5 + 0.05)
        rho = rng.uniform(0.1, 10.0) * np.exp(1j * np.sign(rng.standard_normal()) * theta)
        if rho.real <= 0.0:
            continue
        if rotation_admissible(Z, rho):
            accepted += 1
            eigs = np.linalg.eigvals(rho * Z)
            assert eigs.real.max() < -1e-10
    assert accepted >= 100, f"only {accepted} admissible trials; generator too weak"


def test_real_projection_randomized_1000():
    """Entrywise real parts keep every eigenvalue in the half-plane the
    discs certify, left and right alike."""
    rng = np.random.default_rng(2025)
    for trial in range(1000):
        n = int(rng.integers(1, 7))
        Z = strictly_left_matrix(rng, n, radius_fraction=0.8)
        if trial % 2:
            Z = -Z  # discs strictly right
        side = half_plane(discs(Z))
        eigs = np.linalg.eigvals(real_projection(Z))
        if side is HalfPlane.LEFT:
            assert eigs.real.max() < -1e-10
        else:
            assert side is HalfPlane.RIGHT
            assert eigs.real.min() > 1e-10


# ── real projection basics ───────────────────────────────────────────────────


def test_real_projection_entrywise():
    assert np.array_equal(real_projection(np.diag([-1 + 5j, -1 - 5j])),
                          np.diag([-1.0, -1.0]))


def test_real_projection_identity_on_reals():
    Z = np.array([[-2.0, 0.3], [0.1, -1.0]])
    assert np.array_equal(real_projection(Z), Z)


def test_real_projection_never_grows_radii():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(1, 7))
        Z = rng.normal(0, 2, (n, n)) + 1j * rng.normal(0, 2, (n, n))
        assert np.all(discs(real_projection(Z)).radii <= discs(Z).radii + 1e-12)


# ── certificate monotonicity in |theta| ──────────────────────────────────────


def test_monotone_in_theta_for_diagonal_matrices():
    # with zero radii only the phase condition binds, which relaxes as
    # |theta| shrinks
    Z = np.diag([-1.0 + 0.4j, -1.0 - 0.4j])
    thetas = np.linspace(0.0, np.pi / 3, 40)
    verdicts = [rotation_admissible(Z, np.exp(1j * t)) for t in thetas]
    switched = False
    for earlier, later in zip(verdicts, verdicts[1:]):
        if earlier is False:
            switched = True
        if switched:
            assert later is False  # once rejected, stays rejected


def test_radial_condition_not_monotone_for_nonzero_radii():
    # documented behavior of the certificate as specified: the radial
    # condition requires r sin|theta| >= R, so a matrix with nonzero
    # radii that passes at a moderate angle fails at a smaller one
    Z = np.array([[-4.0 + 1.0j, 0.6], [0.0, -4.0 - 1.0j]])
    assert rotation_admissible(Z, np.exp(1j * np.radians(12.0)))
    assert not rotation_admissible(Z, np.exp(1j * np.radians(1.0)))
