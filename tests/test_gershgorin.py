"""Geršgorin disc geometry tests.

Covers:
  - disc extraction (centers, radii, arguments, moduli), and matrices
    that are not square, 2-D, numeric or finite rejected
  - half-plane classification
  - the rotation certificate: worked examples, preconditions (a
    non-finite or non-numeric rho among them), a radius that overflows,
    a 1000-trial randomized soundness suite against the dense
    eigensolver, a property against the numpy formulation it replaced,
    and the last-Z memo (in-place mutation, alternation, list vs array)
  - real projection: entrywise behavior, radius shrinkage, a
    1000-trial half-plane preservation suite, and non-numeric input
  - monotonicity of the certificate in |theta| for diagonal matrices,
    plus a documented counterexample showing the radial condition is
    not monotone for nonzero radii
"""

import cmath
import warnings

import numpy as np
import pytest

from helpers import admissible_rotation_window, strictly_left_matrix
from hypothesis import given, settings, strategies as st

from netsync import (
    gershgorin,
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


@pytest.mark.filterwarnings("error")
def test_rotation_rejects_non_numeric_rho():
    for rho in ("abc", None, [1, 2], {}):
        with pytest.raises(InvalidInput):
            rotation_admissible(-np.eye(2), rho)


@pytest.mark.filterwarnings("error")
def test_overflowing_radius_is_only_a_precondition_violation():
    # every entry is finite, but row 0's radius 2e308 is not a float
    Z = [[-1e308, 1e308, 1e308], [0, -1, 0], [0, 0, -1]]
    with pytest.raises(PreconditionViolation):
        rotation_admissible(Z, 1.0)
    assert discs(Z).radii.tolist() == [np.inf, 0.0, 0.0]
    # an entry whose modulus alone overflows
    Z = [[-1.0, 1.7e308 + 1.7e308j], [0.0, -1.0]]
    with pytest.raises(PreconditionViolation):
        rotation_admissible(Z, 1.0)
    assert discs(Z).radii.tolist() == [np.inf, 0.0]


def _numpy_certificate(Z, rho):
    """The certificate in numpy arrays, as rotation_admissible computed it
    before its scalar pass, except that a rho complex() rejects is
    InvalidInput here too; with the smallest slack of its three
    conditions relative to their scale: a verdict is compared only
    where that slack is not tiny."""
    try:
        rho = complex(rho)
    except (TypeError, ValueError) as exc:
        raise InvalidInput(str(exc)) from exc
    if not (rho.real > 0.0 and cmath.isfinite(rho)):
        raise PreconditionViolation("rho")
    try:
        Z = np.atleast_2d(np.asarray(Z, dtype=complex))
    except (TypeError, ValueError) as exc:
        raise InvalidInput(str(exc)) from exc
    if Z.ndim != 2 or Z.shape[0] != Z.shape[1]:
        raise PreconditionViolation("square")
    if not np.isfinite(Z).all():
        raise InvalidInput("finite")
    centers = np.diag(Z).copy()
    moduli = np.abs(centers)
    radii = np.abs(Z).sum(axis=1) - moduli
    scale = max(1.0, np.abs(Z).max(initial=0.0))
    left = -(centers.real + radii)
    if np.any(np.abs(left) < 1e-9 * scale):
        return None, 0.0
    if not np.all(left > 0.0):
        raise PreconditionViolation("left")
    theta = abs(np.arctan2(rho.imag, rho.real))
    radial = moduli * np.sin(theta) - radii
    angular = np.abs(np.arctan2(centers.imag, centers.real)) - 2.0 * theta - np.pi / 2.0
    verdict = bool(np.all(radial >= 0.0) and np.all(angular > 0.0))
    # a row without off-diagonal entries has radius exactly 0 either way
    slack = min(np.abs(radial[radii > 0.0]).min(initial=np.inf) / scale,
                np.abs(angular).min(initial=np.inf))
    return verdict, slack


def _outcome(f, *args):
    try:
        return f(*args), None
    except Exception as exc:  # the class is compared
        return None, type(exc)


@st.composite
def _certificate_cases(draw):
    """Z: a general real or complex matrix whose discs sit left or not,
    or sigma*diag(entries) with the modal entries of a directed design
    (argument magnitude in (pi/2, pi], conjugate pairs among them); rho
    in the open right half-plane."""
    n = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["real", "complex", "design"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "design":
        k = draw(st.integers(0, n // 2))             # conjugate pairs
        phis = rng.uniform(np.pi / 2 + 1e-3, np.pi, n - k)
        entries = rng.uniform(0.1, 10.0, n - k) * np.exp(1j * phis)
        entries = np.concatenate([entries, entries[:k].conj()])
        Z = draw(st.floats(0.5, 2.0)) * np.diag(rng.permutation(entries))
    else:
        Z = rng.normal(0.0, 1.0, (n, n))
        if kind == "complex":
            Z = Z + 1j * rng.normal(0.0, 1.0, (n, n))
        np.fill_diagonal(Z, 0.0)
        # a center left of its disc's reach, or sometimes short of it
        reach = np.abs(Z).sum(axis=1) * rng.uniform(0.5, 3.0, n) + 0.1
        Z[np.diag_indices(n)] -= reach
        if kind == "complex":
            Z[np.diag_indices(n)] += 1j * rng.normal(0.0, 2.0, n)
    theta = draw(st.floats(-np.pi / 2, np.pi / 2, exclude_min=True,
                           exclude_max=True))
    rho = draw(st.floats(0.1, 10.0)) * cmath.exp(1j * theta)
    return Z, rho


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(case=_certificate_cases())
def test_certificate_matches_numpy_formulation(case):
    Z, rho = case
    result, expected_exc = _outcome(_numpy_certificate, Z, rho)
    expected, slack = result or (None, np.inf)
    if expected_exc is None and (expected is None or slack < 1e-9):
        return  # on a boundary rounding may decide either way
    assert _outcome(rotation_admissible, Z, rho) == (expected, expected_exc)


_MALFORMED_Z = [
    [[1.0, 2.0], [3.0]], "abc", [["a"]], None, {}, [[np.nan]],
    [[-np.inf, 0.0], [0.0, -1.0]], [[-1.0, complex(0.0, np.nan)], [0.0, -1.0]],
    np.zeros((2, 3)), -np.ones((2, 2, 2)), [-1.0, -2.0], -1.0, [[2.0]],
]
_MALFORMED_RHO = ["abc", None, [1, 2], {}, np.nan, np.inf, -1.0, 0.0, 1j,
                  complex(1.0, np.inf), "1+2j", np.float64(2.0)]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(Z=st.sampled_from(_MALFORMED_Z + [-np.eye(2)]),
       rho=st.sampled_from(_MALFORMED_RHO + [1.0 + 0.5j]))
def test_certificate_errors_match_numpy_formulation(Z, rho):
    result, expected_exc = _outcome(_numpy_certificate, Z, rho)
    expected = None if result is None else result[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _outcome(rotation_admissible, Z, rho) == (expected, expected_exc)


# ── the last-Z memo ──────────────────────────────────────────────────────────


def test_memo_sees_in_place_mutation():
    Z = np.diag([-1.0 + 0j, -1.0 + 0j])
    rho = np.exp(0.3j)
    assert rotation_admissible(Z, rho)
    Z[0, 1] = 0.9                       # radius 0.9 > sin(0.3)
    assert not rotation_admissible(Z, rho)
    Z[0, 1] = 0.0
    assert rotation_admissible(Z, rho)
    Z[0, 0] = 1.0                       # a disc on the right
    with pytest.raises(PreconditionViolation):
        rotation_admissible(Z, rho)
    Z[0, 0] = np.nan
    with pytest.raises(InvalidInput):
        rotation_admissible(Z, rho)


def test_memo_alternating_matrices():
    admits = np.diag([-1.0, -1.0])
    rejects = np.array([[-1.0, 0.9], [0.0, -1.0]])  # 0.9 > sin(0.3)
    rho = np.exp(0.3j)
    for _ in range(3):
        assert rotation_admissible(admits, rho)
        assert not rotation_admissible(rejects, rho)
    # a rejected precondition leaves the last certified rows usable
    with pytest.raises(PreconditionViolation):
        rotation_admissible(-rejects, rho)
    assert not rotation_admissible(rejects, rho)


def test_memo_list_and_array_with_equal_values():
    values = [[-4.0, 0.6], [0.0, -4.0]]
    for rho in (np.exp(1j * np.radians(12.0)), np.exp(1j * np.radians(1.0))):
        verdict = rotation_admissible(values, rho)
        rows = gershgorin._last[1]
        assert len(rows) == 2
        # float and complex128 copies of the same numbers share a key
        assert rotation_admissible(np.array(values), rho) is verdict
        assert rotation_admissible(np.array(values, dtype=complex), rho) is verdict
        assert gershgorin._last[1] is rows
    assert rotation_admissible(values, np.exp(1j * np.radians(12.0)))
    assert not rotation_admissible(values, np.exp(1j * np.radians(1.0)))


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


@pytest.mark.filterwarnings("error")
def test_real_projection_rejects_non_numeric():
    for Z in ([["a"]], None, [[1.0, 2.0], [3.0]], [[{}]]):
        with pytest.raises(InvalidInput):
            real_projection(Z)


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
