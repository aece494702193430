"""Inner coupling matrix design for diffusively coupled linear networks.

The network model throughout is

    dx/dt = (I_N (x) A) x + sigma * (L (x) H_eff) x,

with L the topology Laplacian.  Synchronization is equivalent to every
transverse mode matrix ``A + sigma * lambda_k * H_eff`` (k = 2..N) being
Hurwitz.  Designs are carried out in the modal basis of A: with
A = P Lambda P^-1 and a diagonal modal coupling \\mathcal{H}, the mode
matrices decouple per eigenvalue of A, real parts can be placed
independently, and the real coupling matrix is recovered as

    H_eff = Re(P \\mathcal{H} P^-1).

``H_eff`` is the matrix that multiplies the Laplacian in the dynamics;
its entrywise negation ``H_paper = -H_eff`` is the equivalent inner
coupling for the sign convention that couples through the connection
matrix G = -L.  Designed modal entries have nonpositive real parts so
that positive-real-part Laplacian modes damp the transverse dynamics.

All values are immutable; all operations are pure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ArgumentMarginViolation,
    DefectiveMatrix,
    DimensionMismatch,
    EigensolverFailure,
    PreconditionViolation,
    RealizationResidue,
    _require_finite,
    _require_positive,
    _square_matrices,
)
from .gershgorin import real_projection
from .graph import LaplacianSpectrum, _freeze

__all__ = [
    "ModalDecomposition",
    "ModalCouplingSpec",
    "CouplingMatrices",
    "ModeRecord",
    "ModeAnalysis",
    "decompose",
    "design_undirected",
    "design_directed",
    "realize",
    "verify",
    "design_report",
]

_CONDITION_LIMIT = 1e12
_HURWITZ_THRESHOLD = -1e-9  # strict negativity under floating point
# Two eigenvalues of A are equal when they lie within this distance,
# relative to max(1, max |lambda|).  Rounding splits a k x k Jordan block
# by about eps**(1/k) * ||A||: 1.5e-8 for k = 2, 6e-6 for k = 3.
_EQUAL_TOL = 1e-3


# ---------------------------------------------------------------------------
# modal decomposition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModalDecomposition:
    """Modal form of an isolated node dynamic A.

    ``A = P @ modal_matrix @ P_inv``.  Eigenvalues within
    ``1e-3 * max(1, max |lambda|)`` of each other, directly or through a
    chain, form one cluster.  When every cluster is a single eigenvalue
    and the eigenvectors are well-conditioned, ``modal_matrix`` is
    diagonal.  Otherwise it is block diagonal with one upper-triangular
    block per cluster, and the clusters that keep a nilpotent part are
    listed in ``defective_blocks`` (as index tuples into the mode order).
    Designs must keep their modal entries constant on each defective
    block.

    Attributes
    ----------
    P, P_inv : (n, n) complex
        Modal basis and its inverse.
    modal_matrix : (n, n) complex
        Diagonal (or block diagonal) modal form of A.
    mode_eigenvalues : (n,) complex
        Diagonal of ``modal_matrix``.
    condition : float
        Condition number of P (>= 1).
    defective_blocks : tuple[tuple[int, ...], ...]
        Mode-index clusters that carry a nilpotent part; empty when A is
        diagonalizable.
    """

    P: np.ndarray
    P_inv: np.ndarray
    modal_matrix: np.ndarray
    mode_eigenvalues: np.ndarray
    condition: float
    defective_blocks: tuple = field(default=())

    @property
    def n(self) -> int:
        return self.P.shape[0]

    @property
    def defective(self) -> bool:
        return bool(self.defective_blocks)


def _equal_tol(values: np.ndarray) -> float:
    """The distance within which two of these eigenvalues are equal."""
    return _EQUAL_TOL * max(1.0, float(np.abs(values).max()))


def _cluster_labels(values: np.ndarray, tol: float) -> np.ndarray:
    """Label each eigenvalue with the lowest index it chains to through
    steps of at most tol: the transitive closure of closeness, squared
    until it covers paths of every length below n."""
    reach = np.abs(values[:, None] - values[None, :]) <= tol
    for _ in range(values.shape[0].bit_length()):
        reach = reach @ reach
    return reach.argmax(axis=1)


def _block_modal_form(A: np.ndarray, tol: float):
    """Schur-based block diagonalization, one block per cluster of
    eigenvalues within tol (Bavely & Stewart, SIAM J. Numer. Anal. 16(2),
    1979).

    Returns (T, P, defective): A = P T P^-1 with T block diagonal, and
    defective the index tuples of the blocks with a nilpotent part.
    """
    import scipy.linalg  # lazy: slowest import, and only this fallback uses it
    lapack = scipy.linalg.lapack
    n = A.shape[0]
    try:
        T, Z = scipy.linalg.schur(A.astype(complex), output="complex")
    except np.linalg.LinAlgError as exc:  # LAPACK non-convergence
        raise EigensolverFailure(f"Schur decomposition failed: {exc}") from exc

    # Reorder so each eigenvalue cluster occupies contiguous positions,
    # clusters in order of first appearance on the Schur diagonal (a
    # cluster's label is its first index).
    labels = _cluster_labels(np.diag(T), tol)
    target = np.argsort(labels, kind="stable")
    current = list(range(n))
    for dest in range(n):
        src = current.index(target[dest])
        if src != dest:
            T, Z, info = lapack.ztrexc(T, Z, src + 1, dest + 1)
            if info != 0:
                raise EigensolverFailure(f"Schur reordering failed (info={info})")
            current.insert(dest, current.pop(src))
    cuts = [0, *(np.flatnonzero(np.diff(labels[target])) + 1), n]

    # Split each cluster off all the clusters after it: X solves the
    # triangular Sylvester equation T11 X - X T22 = -T12, and the
    # similarity [[I, X], [0, I]] zeroes T12 and leaves T11, T22 alone.
    S = np.eye(n, dtype=complex)
    for i0, i1 in zip(cuts[:-2], cuts[1:-1]):
        X, x_scale, _ = lapack.ztrsyl(T[i0:i1, i0:i1], T[i1:, i1:],
                                      -T[i0:i1, i1:], isgn=-1)
        T[i0:i1, i1:] = 0.0
        S[:, i1:] += S[:, i0:i1] @ (X / x_scale)
    if not np.isfinite(S).all():
        raise DefectiveMatrix("the block similarity overflows")

    # Drop negligible nilpotent parts inside clusters.
    scale = max(1.0, np.abs(np.diag(T)).max())
    defective = []
    for i0, i1 in zip(cuts[:-1], cuts[1:]):
        nilpotent = np.triu(T[i0:i1, i0:i1], 1)
        if np.abs(nilpotent).max(initial=0.0) <= 1e-10 * scale:
            T[i0:i1, i0:i1] -= nilpotent
        else:
            defective.append(tuple(range(i0, i1)))
    return T, Z @ S, defective


def decompose(A) -> ModalDecomposition:
    """Modal decomposition of a square real (or complex) matrix.

    One rule decides which eigenvalues are equal: those within
    ``1e-3 * max(1, max |lambda|)`` of each other, directly or through a
    chain, form one cluster; conjugate modes are paired by the same rule.
    The eigendecomposition is used when every cluster is a single
    eigenvalue and the eigenvector matrix has a condition number below
    1e12.  Otherwise the Schur form is reordered and split into one block
    per cluster of its own diagonal, which stays exact for matrices with
    nilpotent (non-diagonalizable) parts; close but distinct eigenvalues
    then share a cluster, which designs treat like a Jordan block.

    Raises
    ------
    InvalidInput
        If A has a non-finite entry.
    DefectiveMatrix
        If the block form's basis has a condition number of 1e12 or more,
        or overflows: distinct clusters, separated beyond the tolerance,
        whose invariant subspaces are nearly parallel.
    EigensolverFailure
        If the underlying eigensolver does not converge.
    """
    A, = _square_matrices("A", A, dtype=None)
    try:
        vals, vecs = np.linalg.eig(A)
    except np.linalg.LinAlgError as exc:
        raise EigensolverFailure(f"eigendecomposition failed: {exc}") from exc

    tol = _equal_tol(vals)
    singletons = _cluster_labels(vals, tol).tolist() == list(range(vals.size))
    cond = np.linalg.cond(vecs) if singletons else np.inf
    if cond < _CONDITION_LIMIT:  # NaN fails too
        T, P, defective = np.diag(vals), vecs, ()
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            T, P, defective = _block_modal_form(A, tol)
        cond = np.linalg.cond(P)
        if not cond < _CONDITION_LIMIT:
            raise DefectiveMatrix(
                f"no well-conditioned modal basis (condition {cond:.3e})"
            )
    return ModalDecomposition(
        P=_freeze(P),
        P_inv=_freeze(np.linalg.inv(P)),
        modal_matrix=_freeze(T),
        mode_eigenvalues=_freeze(np.diag(T).copy()),
        condition=float(cond),
        defective_blocks=tuple(defective),
    )


# ---------------------------------------------------------------------------
# modal coupling specs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModalCouplingSpec:
    """Diagonal modal coupling entries.

    ``entries[k]`` couples the k-th mode of the decomposition that the
    spec was designed against.  Entries on a conjugate mode pair must be
    complex conjugates of each other (and real on real modes) so the
    realized coupling matrix is real; realized designs enforce this via
    the imaginary-residue gate.
    """

    entries: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=complex).reshape(-1)
        _require_finite("modal coupling entries", e)
        if e.real.max(initial=-np.inf) > 1e-12:
            raise PreconditionViolation(
                "modal coupling entries must have nonpositive real parts"
            )
        object.__setattr__(self, "entries", _freeze(e))

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def modal_matrix(self) -> np.ndarray:
        """The diagonal modal coupling matrix."""
        return np.diag(self.entries)


@dataclass(frozen=True)
class CouplingMatrices:
    """A realized design: H_eff drives the Laplacian-coupled model and
    H_paper = -H_eff is the same coupling in connection-matrix form."""

    H_eff: np.ndarray

    def __post_init__(self):
        he = np.asarray(self.H_eff, dtype=float)
        _require_finite("H_eff", he)
        object.__setattr__(self, "H_eff", _freeze(he))

    @property
    def H_paper(self) -> np.ndarray:
        return _freeze(-self.H_eff)


# ---------------------------------------------------------------------------
# designs
# ---------------------------------------------------------------------------

def _conjugate_pairs(mode_eigenvalues: np.ndarray):
    """The (plus, minus) conjugate pairs among the mode indices, matched
    at the tolerance that clusters eigenvalues; the other modes are real.

    ``plus`` carries the positive-imaginary-part member of each pair.
    """
    vals = mode_eigenvalues
    tol = _equal_tol(vals)
    unpaired = [i for i in range(vals.size)]
    pairs = []
    while unpaired:
        i = unpaired.pop(0)
        if abs(vals[i].imag) <= tol:
            continue
        match = None
        for j in unpaired:
            if abs(vals[j] - np.conj(vals[i])) <= tol:
                match = j
                break
        if match is None:
            raise PreconditionViolation(
                f"complex mode {vals[i]} has no conjugate partner; "
                "designs require a real node dynamic"
            )
        unpaired.remove(match)
        pairs.append((i, match) if vals[i].imag > 0 else (match, i))
    return pairs


def _check_defective_constancy(decomp: ModalDecomposition, values: np.ndarray,
                               what: str) -> None:
    for block in decomp.defective_blocks:
        block_vals = values[list(block)]
        if not np.allclose(block_vals, block_vals[0], rtol=0.0, atol=1e-12):
            raise PreconditionViolation(
                f"{what} must be constant on the defective mode cluster {block}"
            )


def _real_levels(decomp: ModalDecomposition, lambda2_real: float,
                 poles, margin: float, sigma: float):
    """Per-mode real-part levels for the modal entries, and the
    (plus, minus) conjugate mode pairs, whose two levels must be equal.

    With poles: level_i = -(max_k Re(mode_k) - p_i) / (sigma * lambda2);
    with a uniform pole request the dominant real part of the lambda2
    transverse mode lands exactly on the requested pole.  Without poles:
    the uniform level -(max Re + margin) / (sigma * lambda2), clamped at
    zero when the node dynamic is already stable by more than margin.
    """
    _require_positive("sigma * Re(lambda2)", sigma * lambda2_real)
    max_re = float(decomp.mode_eigenvalues.real.max())
    n = decomp.n
    if poles is not None:
        p = np.asarray(poles, dtype=float).reshape(-1)
        if p.size != n:
            raise DimensionMismatch(f"need {n} poles, got {p.size}")
        if not np.all(p < 0.0):
            raise PreconditionViolation("requested poles must be negative")
        with np.errstate(over="ignore"):  # ModalCouplingSpec rejects inf
            levels = -(max_re - p) / (sigma * lambda2_real)
        if np.any(levels > 0.0):
            raise PreconditionViolation(
                "a requested pole lies right of the dominant mode; "
                "it cannot be reached with stabilizing coupling"
            )
    elif not 0.0 <= margin < np.inf:  # NaN fails too
        raise PreconditionViolation("margin must be nonnegative and finite")
    else:
        levels = np.full(n, -max(max_re + margin, 0.0) / (sigma * lambda2_real))
    pairs = _conjugate_pairs(decomp.mode_eigenvalues)
    if any(levels[i] != levels[j] for i, j in pairs):
        raise PreconditionViolation(
            "conjugate mode pairs need equal pole requests"
        )
    return levels, pairs


def design_undirected(decomp: ModalDecomposition, lambda2: float,
                      poles=None, margin: float = 1.0,
                      sigma: float = 1.0) -> ModalCouplingSpec:
    """Design real modal entries against a connected undirected topology.

    Parameters
    ----------
    decomp : ModalDecomposition
        Modal form of the node dynamic A.
    lambda2 : float
        Algebraic connectivity (smallest nonzero Laplacian eigenvalue);
        must be positive.
    poles : sequence of float, optional
        Desired per-mode real parts for the lambda2 transverse mode, all
        negative.  When omitted, a uniform entry is chosen that clears
        the dominant mode of A by ``margin``.
    margin : float
        Stability margin used when no poles are given (default 1.0, so
        repeated runs are deterministic).
    sigma : float
        Coupling strength the design is computed for.

    Returns
    -------
    ModalCouplingSpec
        Real entries; `realize` turns them into coupling matrices.
    """
    lam2 = complex(lambda2)
    if abs(lam2.imag) > 1e-12 * max(1.0, abs(lam2)) or not lam2.real > 0.0:
        raise PreconditionViolation(
            "undirected design needs a real positive lambda2"
        )
    levels, _ = _real_levels(decomp, lam2.real, poles, margin, sigma)
    _check_defective_constancy(decomp, levels, "designed modal entries")
    return ModalCouplingSpec(entries=levels.astype(complex))


def design_directed(decomp: ModalDecomposition, lambda2: complex,
                    theta_max: float, argument: float,
                    poles=None, margin: float = 1.0,
                    sigma: float = 1.0) -> ModalCouplingSpec:
    """Design complex modal entries against a directed topology.

    The Laplacian of a directed topology can have complex eigenvalues;
    let ``theta_max`` be the largest absolute eigenvalue argument.  A
    modal entry of argument phi keeps every product
    ``lambda_k * entry`` in the open left half-plane provided

        phi - theta_max > pi / 2,

    and the entry's real part is set from ``Re(lambda2)`` exactly as in
    the undirected design (pole placement or strict margin).  Entries on
    conjugate mode pairs receive arguments +/-phi (positive sign on the
    positive-imaginary mode); real modes receive real (argument pi)
    entries so the realization stays real.

    Raises
    ------
    ArgumentMarginViolation
        When ``argument - theta_max <= pi/2``.
    """
    lam2 = complex(lambda2)
    if not lam2.real > 0.0:
        raise PreconditionViolation("Re(lambda2) must be positive")
    if not (0.0 <= theta_max < np.pi / 2.0):
        raise PreconditionViolation("theta_max must lie in [0, pi/2)")
    if not (0.0 < argument <= np.pi):
        raise PreconditionViolation("argument must lie in (0, pi]")
    if argument - theta_max <= np.pi / 2.0:
        raise ArgumentMarginViolation(
            f"argument {np.degrees(argument):.4f} deg leaves margin "
            f"{np.degrees(argument - theta_max):.4f} deg <= 90 deg over "
            f"theta_max {np.degrees(theta_max):.4f} deg"
        )

    levels, pairs = _real_levels(decomp, lam2.real, poles, margin, sigma)
    entries = levels.astype(complex)  # real modes: argument folded to pi
    with np.errstate(over="ignore", invalid="ignore"):  # the spec rejects inf
        for i_plus, i_minus in pairs:
            level = levels[i_plus]
            if level == 0.0:
                entries[[i_plus, i_minus]] = 0.0  # +0j, also for -0.0
                continue
            modulus = level / np.cos(argument)  # cos < 0, level <= 0: m >= 0
            entries[i_plus] = modulus * np.exp(1j * argument)
            entries[i_minus] = np.conj(entries[i_plus])
    _check_defective_constancy(decomp, entries, "designed modal entries")
    return ModalCouplingSpec(entries=entries)


def realize(spec: ModalCouplingSpec, decomp: ModalDecomposition) -> CouplingMatrices:
    """Realize modal entries as real coupling matrices.

    Computes ``H_eff = Re(P M P^-1)`` with M the modal coupling matrix.
    When the spec is conjugate-closed the product is real up to rounding;
    a residue above ``1e-8 * ||H_eff||_inf`` raises
    :class:`RealizationResidue` instead of silently discarding it, and a
    product that overflows raises :class:`InvalidInput`.
    """
    if spec.n != decomp.n:
        raise DimensionMismatch(
            f"spec has {spec.n} entries but decomposition is {decomp.n}-dimensional"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        raw = decomp.P @ spec.modal_matrix() @ decomp.P_inv
    _require_finite("the realized coupling P M P^-1", raw)
    H_eff = real_projection(raw)
    residue = float(np.abs(raw.imag).max(initial=0.0))
    scale = max(np.abs(H_eff).max(initial=0.0), 1e-30)
    if residue > 1e-8 * scale:
        raise RealizationResidue(
            f"imaginary residue {residue:.3e} exceeds 1e-8 * ||H_eff||; "
            "modal entries are not conjugate-closed"
        )
    return CouplingMatrices(H_eff=H_eff)


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModeRecord:
    """Eigenvalues of one transverse mode matrix A + sigma*lambda_k*H_eff."""

    k: int                          # mode index, 2-based like the sort
    laplacian_eigenvalue: complex
    eigenvalues: np.ndarray
    max_real_part: float


@dataclass(frozen=True)
class ModeAnalysis:
    """Per-transverse-mode spectra at coupling strength ``sigma`` and the
    overall Hurwitz verdict."""

    modes: tuple
    overall_hurwitz: bool
    sigma: float


def _mode_spectra(A, H_eff, sigma: float, lambdas) -> np.ndarray:
    """Eigenvalues of ``A + sigma * lambda * H_eff`` for every lambda, as
    complex rows of one array computed by a single stacked eigensolve.

    When every ``sigma * lambda`` is real (an undirected topology) the
    mode matrices are real and are solved in real arithmetic, which costs
    less than the complex solve of the same matrices.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    H = np.atleast_2d(np.asarray(H_eff, dtype=float))
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = sigma * np.asarray(lambdas, dtype=complex)
        if not scaled.imag.any():  # NaN counts as nonzero
            scaled = scaled.real
        modes = A + scaled[:, None, None] * H
    try:
        return np.linalg.eigvals(modes).astype(complex, copy=False)
    except np.linalg.LinAlgError as exc:  # also raised for inf or NaN
        _require_finite("the mode matrices A + sigma * lambda_k * H_eff",
                        modes)
        raise EigensolverFailure(
            f"mode eigendecomposition failed: {exc}"
        ) from exc


def verify(A, H_eff, sigma: float, lap_spectrum: LaplacianSpectrum) -> ModeAnalysis:
    """Check every transverse mode matrix for strict stability.

    For each Laplacian eigenvalue lambda_k (k = 2..N in the sorted
    spectrum) the eigenvalues of ``A + sigma * lambda_k * H_eff`` are
    computed (complex lambda_k gives a complex mode matrix; a real
    spectrum gives real ones, solved in real arithmetic), and the design
    passes iff every mode's largest real part is below -1e-9.
    L's eigenvalues suffice whatever its Jordan structure: with the Schur
    form L = U T U*, ``I (x) A + sigma L (x) H_eff`` is similar to the block
    upper triangular ``I (x) A + sigma T (x) H_eff``, whose diagonal blocks
    are these mode matrices.
    """
    A, H = _square_matrices("A and H_eff", A, H_eff)
    _require_positive("sigma", sigma)
    lambdas = lap_spectrum.eigenvalues[1:]
    # freeze once and take every per-mode scalar from one reduction and
    # one tolist(): numpy calls per row cost as much as the small solves
    spectra = _freeze(_mode_spectra(A, H, sigma, lambdas))
    records = tuple(
        ModeRecord(k=k, laplacian_eigenvalue=lam, eigenvalues=vals,
                   max_real_part=peak)
        for k, (lam, vals, peak) in enumerate(
            zip(np.asarray(lambdas, dtype=complex).tolist(), spectra,
                spectra.real.max(axis=1).tolist()), start=2)
    )
    hurwitz = all(r.max_real_part < _HURWITZ_THRESHOLD for r in records)
    return ModeAnalysis(modes=records, overall_hurwitz=hurwitz,
                        sigma=float(sigma))


def design_report(spec: ModalCouplingSpec | None,
                  matrices: CouplingMatrices,
                  analysis: ModeAnalysis) -> dict:
    """JSON-ready design report; ``sigma`` is the strength ``analysis``
    was computed at.

    Schema::

        {"h_entries": [[re, im], ...] | null, "sigma": s,
         "H_eff": [[...]], "H_paper": [[...]],
         "modes": [{"k": k, "lambda": [re, im], "max_real_part": r}, ...],
         "hurwitz": bool}
    """
    return {
        "h_entries": (
            [[float(e.real), float(e.imag)] for e in spec.entries]
            if spec is not None else None
        ),
        "sigma": analysis.sigma,
        "H_eff": matrices.H_eff.tolist(),
        "H_paper": matrices.H_paper.tolist(),
        "modes": [
            {
                "k": r.k,
                "lambda": [r.laplacian_eigenvalue.real, r.laplacian_eigenvalue.imag],
                "max_real_part": r.max_real_part,
            }
            for r in analysis.modes
        ],
        "hurwitz": analysis.overall_hurwitz,
    }


def stiffest_mode_modulus(A, H_eff, sigma: float, lambdas) -> float:
    """Largest eigenvalue modulus over the mode matrices
    ``A + sigma * lambda * H_eff``, one per Laplacian eigenvalue lambda.

    Integrator step-size guard: explicit fixed-step schemes need
    ``modulus * dt`` comfortably inside their stability region.
    """
    vals = _mode_spectra(A, H_eff, sigma, lambdas)
    return float(np.abs(vals).max(initial=0.0))
