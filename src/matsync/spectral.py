"""Stability classification, PBH tests, and the neutral-stability split.

The split separates a neutrally stable ``A`` into a marginal block that is
skew-symmetric (continuous time) or orthogonal (discrete time) and a
strictly stable block.  The marginal basis comes from eigenvectors: a real
axis/circle eigenvalue contributes orthonormal real eigenvectors, and a
complex pair ``a + bi`` contributes the (phase-balanced) real and imaginary
parts of one complex eigenvector, producing an exact 2x2 block
``[[a, b], [-b, a]]``.  The stable complement is read off a sorted real
Schur form, which stays valid when the stable part is defective.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .array_model import CONTINUOUS, DISCRETE
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


def _marginal_mask(lam, domain, axis_tol):
    if domain == CONTINUOUS:
        return np.abs(lam.real) <= axis_tol
    return np.abs(np.abs(lam) - 1.0) <= axis_tol


def _unstable_mask(lam, domain, axis_tol):
    if domain == CONTINUOUS:
        return lam.real > axis_tol
    return np.abs(lam) > 1.0 + axis_tol


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

    Neutral stability demands every axis/circle eigenvalue be semisimple;
    semisimplicity is tested by comparing the size of an eigenvalue cluster
    against the numerical nullity of ``A - lambda I`` at the cluster mean.
    """
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    norm = _spectral_norm(A)
    axis_tol = AXIS_TOL * norm
    cluster_tol = CLUSTER_TOL * norm
    lam = np.linalg.eigvals(A)
    marg = _marginal_mask(lam, domain, axis_tol)
    n1 = int(marg.sum())
    marginal = tuple(lam[marg])
    if np.any(_unstable_mask(lam, domain, axis_tol)):
        return StabilityClass(UNSTABLE, n1, n - n1, marginal)
    if n1 == 0:
        return StabilityClass(STABLE, 0, n, marginal)
    # semisimplicity of each marginal cluster
    null_tol = 1e-7 * max(norm, 1.0)
    for cl in _cluster(lam[marg], max(cluster_tol, 10 * np.finfo(float).eps * max(norm, 1.0))):
        center = np.mean([v for v, _ in cl])
        s = np.linalg.svd(A - center * np.eye(n), compute_uv=False)
        geometric = int(np.sum(s <= null_tol))
        if geometric < len(cl):
            # defective marginal eigenvalue: a Jordan block larger than 1x1
            return StabilityClass(UNSTABLE, n1, n - n1, marginal)
    return StabilityClass(NEUTRALLY_STABLE, n1, n - n1, marginal)


def _pbh(C, A, eigenvalues):
    n = A.shape[0]
    norm = _spectral_norm(A)
    for lam in eigenvalues:
        M = np.vstack([A - lam * np.eye(n), C])
        smin = np.linalg.svd(M, compute_uv=False)[-1]
        if smin <= PBH_RANK_TOL * norm:
            return False
    return True


def pbh_detectable(C: np.ndarray, A: np.ndarray, domain: str = CONTINUOUS) -> bool:
    """PBH rank test at every eigenvalue on or beyond the stability boundary."""
    A = np.asarray(A, dtype=float)
    C = np.atleast_2d(np.asarray(C, dtype=float))
    axis_tol = AXIS_TOL * _spectral_norm(A)
    lam = np.linalg.eigvals(A)
    if domain == CONTINUOUS:
        suspect = lam[lam.real >= -axis_tol]
    else:
        suspect = lam[np.abs(lam) >= 1.0 - axis_tol]
    return _pbh(C, A, suspect)


def pbh_observable(H: np.ndarray, S: np.ndarray) -> bool:
    """PBH rank test at every eigenvalue of S."""
    S = np.asarray(S, dtype=float)
    H = np.atleast_2d(np.asarray(H, dtype=float))
    return _pbh(H, S, np.linalg.eigvals(S))


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


def neutral_split(A: np.ndarray, domain: str = CONTINUOUS) -> SpectralSplit:
    """Compute the marginal/stable splitting of a neutrally stable matrix.

    Raises NotNeutrallyStable when the classification refuses A, and
    SplitIllConditioned when the assembled basis is numerically unusable.
    """
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    norm = _spectral_norm(A)
    axis_tol = AXIS_TOL * norm
    cls = classify_stability(A, domain)
    if cls.kind == UNSTABLE:
        raise NotNeutrallyStable(f"A is {cls.kind} in the {domain}-time sense")
    n1, n2 = cls.marginal_count, cls.stable_count

    cols = []
    blocks = []
    if n1:
        mvals = np.asarray(cls.marginal_eigenvalues)
        ctol = max(1e-6 * norm, 100 * np.finfo(float).eps * max(norm, 1.0))
        for cl in _cluster(mvals, ctol):
            center = np.mean([v for v, _ in cl])
            d = len(cl)
            if abs(center.imag) <= ctol:
                basis = _eigenspace_basis(A, center.real, d).real
                # snap the eigenvalue onto the axis / circle
                a = 0.0 if domain == CONTINUOUS else float(np.sign(center.real))
                for c in range(d):
                    cols.append(basis[:, c])
                    blocks.append(np.array([[a]]))
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
                    blocks.append(np.array([[a, b], [-b, a]]))
    U = np.column_stack(cols) if cols else np.zeros((n, 0))
    S = sla.block_diag(*blocks) if blocks else np.zeros((0, 0))
    if U.shape[1] != n1:
        raise SplitIllConditioned(
            f"marginal basis has {U.shape[1]} columns, classification says {n1}"
        )

    # stable invariant subspace from a sorted real Schur form: A Z1 = Z1 T11
    if domain == CONTINUOUS:
        T, Z, sdim = sla.schur(A, output="real", sort=lambda re, im: re < -axis_tol)
    else:
        T, Z, sdim = sla.schur(
            A, output="real", sort=lambda re, im: np.hypot(re, im) < 1.0 - axis_tol
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
