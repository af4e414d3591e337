"""Stability classification, PBH tests, and the neutral-stability split.

The split separates a neutrally stable ``A`` into a marginal block that is
skew-symmetric (continuous time) or orthogonal (discrete time) and a
strictly stable block.  The marginal basis comes from eigenvectors: a real
axis/circle eigenvalue contributes orthonormal real eigenvectors, and a
complex pair ``a + bi`` contributes the (phase-balanced) real and imaginary
parts of one complex eigenvector, producing an exact 2x2 block
``[[a, b], [-b, a]]``.  The stable complement is read off a sorted real
Schur form, which stays valid when the stable part is defective.

Each small eigensolve runs once.  A ``StabilityClass`` carries the boundary
eigenvalues and ``||A||_2``; passed as ``cls=``, it shares its ``eig(A)``.
A real ``A`` has its boundary eigenvalues in exact conjugate pairs, and every
matrix of a rank test at ``conj(lam)`` is the conjugate of the one at ``lam``,
with bit-equal singular values: the PBH and semisimplicity rank tests
therefore run once per conjugate pair, on the side with ``Im lam >= 0``, and
the PBH tests not at all when no eigenvalue lies on or beyond the boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .array_model import CONTINUOUS, ArraySpec
from .errors import NotNeutrallyStable, NotSPD, SplitIllConditioned

STABLE = "stable"
NEUTRALLY_STABLE = "neutrally_stable"
UNSTABLE = "unstable"

# relative to ||A||_2: marginal eigenvalues lie this close to the axis/circle,
# a marginal cluster has this radius, and [A - lambda I; C] loses rank below it
AXIS_TOL = 1e-8
CLUSTER_TOL = 1e-6
PBH_RANK_TOL = 1e-8
COND_LIMIT = 1e8     # largest cond([U W]) neutral_split accepts
SPD_SYM_TOL = 1e-10  # asymmetry spd_sqrt accepts, relative to ||M||_F


@dataclass(frozen=True)
class StabilityClass:
    kind: str
    marginal_count: int
    stable_count: int
    marginal_eigenvalues: tuple
    # outside equality: the eigenvalues on or beyond the axis/circle, ||A||_2
    # and the time domain the classification was computed from
    boundary: np.ndarray | None = field(default=None, compare=False)
    norm: float | None = field(default=None, compare=False)
    domain: str | None = field(default=None, compare=False)


@dataclass(frozen=True)
class SpectralSplit:
    """Similarity [U W]^-1 A [U W] = blkdiag(marginal_block, F)."""

    U: np.ndarray
    W: np.ndarray
    U_dag: np.ndarray
    W_dag: np.ndarray
    marginal_block: np.ndarray
    F: np.ndarray

    @property
    def n1(self):
        return self.U.shape[1]

    @property
    def n2(self):
        return self.W.shape[1]


def _spectral_norm(A):
    return float(np.linalg.norm(A, 2)) if A.size else 0.0


def _side(lam, domain, norm):
    """-1 stable, 0 marginal, 1 unstable: where each eigenvalue lies against the
    imaginary axis (continuous) or the unit circle (discrete), marginal within
    AXIS_TOL * norm of it.  The one boundary rule of every test here."""
    d = np.real(lam) if domain == CONTINUOUS else np.abs(lam) - 1.0
    return np.where(np.abs(d) <= AXIS_TOL * norm, 0, np.sign(d))


def _cluster(values, tol):
    """Greedy clustering of complex values by absolute distance."""
    order = np.argsort(values.real + 1e-9 * values.imag)
    clusters = []
    for idx in order:
        v = values[idx]
        for cl in clusters:
            if abs(v - cl[0][0]) <= tol:
                cl.append((v, idx))
                break
        else:
            clusters.append([(v, idx)])
    return clusters


def classify_stability(A: np.ndarray, domain: str = CONTINUOUS) -> StabilityClass:
    """Classify A as stable, neutrally stable, or unstable.

    Neutral stability demands every axis/circle eigenvalue be semisimple:
    at each one, lam, the nullity of ``A - lam I`` (singular values up to
    null_tol) is at least the count of eigenvalues within null_tol of lam.
    Distinct eigenvalues, however close, pass; a Jordan block's do not.
    """
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    norm = _spectral_norm(A)
    lam = np.linalg.eigvals(A)
    side = _side(lam, domain, norm)
    marg = side == 0
    n1 = int(marg.sum())
    kind = UNSTABLE if np.any(side > 0) else STABLE if n1 == 0 else NEUTRALLY_STABLE
    # semisimplicity of each marginal eigenvalue, conjugates tested once
    null_tol, mlam = 1e-7 * max(norm, 1.0), lam[marg]
    for v in (mlam[mlam.imag >= 0] if kind == NEUTRALLY_STABLE else []):
        s = np.linalg.svd(A - v * np.eye(n), compute_uv=False)
        if np.sum(s <= null_tol) < np.sum(np.abs(mlam - v) <= null_tol):
            kind = UNSTABLE  # defective: a Jordan block larger than 1x1
            break
    return StabilityClass(kind, n1, n - n1, tuple(lam[marg]), lam[side >= 0], norm, domain)


def _pbh(S, A, eigenvalues, norm):
    """Whether [A - lam I; C] has full column rank at every given lam, for each
    C of the (E, m, n) stack S: one singular-value call per lam on the
    stacked matrices, each bit-equal to the call on that matrix alone.

    eigenvalues and norm are a StabilityClass's boundary and ||A||_2, its
    eig(A) reused; each conjugate pair is tested once, at its lam with Im lam
    >= 0, since the matrices at conj(lam) are the conjugates and have the same
    singular values.  With no eigenvalues no test runs."""
    n = A.shape[0]
    ok = np.ones(len(S), dtype=bool)
    M = np.empty((len(S), n + S.shape[1], n), dtype=np.result_type(A, eigenvalues))
    M[:, n:] = S
    for lam in eigenvalues[eigenvalues.imag >= 0]:
        M[:, :n] = A - lam * np.eye(n)
        ok &= np.linalg.svd(M, compute_uv=False)[:, -1] > PBH_RANK_TOL * norm
    return ok


def pbh_detectable(C: np.ndarray, A: np.ndarray, domain: str = CONTINUOUS) -> bool:
    """PBH rank test at every eigenvalue on or beyond the stability boundary."""
    A = np.asarray(A, dtype=float)
    cls = classify_stability(A, domain)
    return bool(_pbh(np.atleast_2d(np.asarray(C, dtype=float))[None], A, cls.boundary, cls.norm)[0])


def _of_domain(cls, A, domain):
    """cls, refused unless of domain; classify_stability(A, domain) if None."""
    if cls is None:
        return classify_stability(A, domain)
    if cls.domain != domain:
        raise ValueError(f"the classification is {cls.domain}-time, not {domain}-time")
    return cls


def detectable_edges(spec: ArraySpec, cls: StabilityClass | None = None) -> dict:
    """{pair: whether (C_ij, A) is PBH detectable} over ``spec.edges``.

    A symmetric spec (``spec.symmetric``) has one pair (i, j), i < j, per
    undirected edge, any other every ordered pair.  cls is
    classify_stability(spec.A, spec.time_domain), computed when None; with no
    boundary eigenvalue every pair is detectable untested.
    """
    cls = _of_domain(cls, spec.A, spec.time_domain)
    t, keep, symmetric = spec.table, spec.nonzero, spec.symmetric
    if symmetric:  # (i, j), i > j, repeats its mirror when that is an edge
        keep = keep & ~((t.pairs[:, 0] > t.pairs[:, 1]) & (t.mirror >= 0) & keep[t.mirror])
    pos = t.order[keep[t.order]]
    keys = np.sort(t.pairs[pos], axis=1) if symmetric else t.pairs[pos]
    ok = np.ones(len(keep), dtype=bool)
    for idx, S in t.groups if len(cls.boundary) else ():
        ok[idx[keep[idx]]] = _pbh(S[keep[idx]], spec.A, cls.boundary, cls.norm)
    return dict(zip(map(tuple, keys.tolist()), ok[pos].tolist()))


def _balanced_pair(w):
    """Phase-rotate a complex eigenvector so Re/Im are orthogonal, then give
    the pair unit mean-square norm.  The 2x2 block is invariant under both."""
    re, im = w.real, w.imag
    g11, g22, g12 = re @ re, im @ im, re @ im
    phi = 0.5 * np.arctan2(2.0 * g12, g11 - g22)
    w = w * np.exp(1j * phi)
    scale = np.sqrt((w.real @ w.real + w.imag @ w.imag) / 2.0)
    return w / scale


def _eigenspace_basis(A, center, dim):
    """dim right singular vectors of A - center*I with smallest singular values."""
    n = A.shape[0]
    M = A - center * np.eye(n)
    _, s, vh = np.linalg.svd(M)
    return vh.conj().T[:, np.argsort(s)[:dim]]


def neutral_split(
    A: np.ndarray, domain: str = CONTINUOUS, cls: StabilityClass | None = None
) -> SpectralSplit:
    """Compute the marginal/stable splitting of a neutrally stable matrix.

    cls is classify_stability(A, domain), computed when None.  Raises
    NotNeutrallyStable when the classification refuses A, and
    SplitIllConditioned when the assembled basis is numerically unusable.
    """
    A = np.asarray(A, dtype=float)
    cls = _of_domain(cls, A, domain)
    n = A.shape[0]
    if cls.kind == UNSTABLE:
        raise NotNeutrallyStable(f"A is {cls.kind} in the {domain}-time sense")
    n1, n2 = cls.marginal_count, cls.stable_count

    cols = []
    blocks = []
    if n1:
        mvals = np.asarray(cls.marginal_eigenvalues)
        ctol = max(CLUSTER_TOL * cls.norm, 100 * np.finfo(float).eps * max(cls.norm, 1.0))
        for cl in _cluster(mvals, ctol):
            center = np.mean([v for v, _ in cl])
            d = len(cl)
            if abs(center.imag) <= ctol:
                basis = _eigenspace_basis(A, center.real, d).real
                # snap the eigenvalue onto the axis / circle
                a = 0.0 if domain == CONTINUOUS else float(np.sign(center.real))
                for c in range(d):
                    cols.append(basis[:, c])
                    blocks.append([[a]])
            else:
                if center.imag < 0:
                    continue  # handled from the conjugate side
                basis = _eigenspace_basis(A, center, d)
                a, b = center.real, center.imag
                if domain == CONTINUOUS:
                    a = 0.0
                else:
                    r = np.hypot(a, b)
                    a, b = a / r, b / r
                for c in range(d):
                    w = _balanced_pair(basis[:, c])
                    cols.append(w.real)
                    cols.append(w.imag)
                    blocks.append([[a, b], [-b, a]])
    U = np.column_stack(cols) if cols else np.zeros((n, 0))
    if U.shape[1] != n1:
        raise SplitIllConditioned(
            f"marginal basis has {U.shape[1]} columns, classification says {n1}"
        )
    S = np.zeros((n1, n1))  # the blocks on the diagonal, as sla.block_diag
    k = 0
    for block in blocks:
        S[k:k + len(block), k:k + len(block)] = block
        k += len(block)

    # stable invariant subspace from a sorted real Schur form: A Z1 = Z1 T11;
    # an eigenvalue is sorted first when its _side is -1, decided here in
    # float arithmetic on the same bits as _side's numpy arithmetic
    ct, bound = domain == CONTINUOUS, -AXIS_TOL * cls.norm
    T, Z, sdim = sla.schur(
        A, output="real", sort=lambda re, im: (re if ct else abs(complex(re, im)) - 1.0) < bound
    )
    if sdim != n2:
        raise SplitIllConditioned(
            f"Schur sort found {sdim} stable eigenvalues, classification says {n2}"
        )
    W = Z[:, :n2]
    F = T[:n2, :n2]

    B = np.hstack([U, W])
    if np.linalg.cond(B) > COND_LIMIT:
        raise SplitIllConditioned(f"cond([U W]) exceeds {COND_LIMIT:.1e}")
    Binv = np.linalg.inv(B)
    return SpectralSplit(
        U=U, W=W, U_dag=Binv[:n1], W_dag=Binv[n1:], marginal_block=S, F=F
    )


def spd_sqrt(M: np.ndarray) -> np.ndarray:
    """Symmetric positive definite square root via eigendecomposition."""
    M = np.asarray(M, dtype=float)
    if M.shape[0] != M.shape[1]:
        raise NotSPD(f"matrix is not square: {M.shape}")
    scale = np.linalg.norm(M)
    if np.linalg.norm(M - M.T) > SPD_SYM_TOL * max(scale, 1.0):
        raise NotSPD("matrix is not symmetric")
    w, V = np.linalg.eigh(0.5 * (M + M.T))
    if w[0] <= 0.0:
        raise NotSPD(f"matrix is not positive definite (lambda_min = {w[0]:.3e})")
    return (V * np.sqrt(w)) @ V.T
