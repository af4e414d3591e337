"""Coupling-gain synthesis and the certificates that license each recipe.

Three recipes are implemented:

* ``theorem1``  -- G_ij = alpha P^-1 C_ij^T under CL-detectability, with the
  connectivity condition eps > (1/lambda2 - 1) sigma reported alongside;
* ``alg1_ct``   -- G_ij = U U^T C_ij^T for neutrally stable continuous time;
* ``alg2_dt``   -- G_ij = U Q U^T C_ij^T for neutrally stable discrete time,
  together with the largest coupling step eps_bar = 1/lambda_max(L).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .array_model import (
    CONTINUOUS,
    DISCRETE,
    EDGE_TOL,
    ArraySpec,
    build_graph,
    is_connected,
    normalized_laplacian,
    validate_spec,
)
from .errors import (
    Infeasible,
    NotConnected,
    NotDetectable,
    NotNeutrallyStable,
    NotSymmetric,
    SingularP,
)
from .mwl import MatrixWeightedLaplacian, laplacian_from_outputs
from .spectral import (
    NEUTRALLY_STABLE,
    STABLE,
    SpectralSplit,
    classify_stability,
    neutral_split,
    pbh_detectable,
)

RECIPE_THEOREM1 = "theorem1"
RECIPE_ALG1_CT = "alg1_ct"
RECIPE_ALG2_DT = "alg2_dt"

# find_common_P: spectrum of P in [P_FLOOR, P_CEIL], step budget, restart seed
P_FLOOR, P_CEIL = 1e-6, 1e6
MAX_ITERS = 5000
SEARCH_SEED = 0
LAPLACIAN_SYM_TOL = 1e-9  # asymmetry eps_bar accepts, relative to ||L||_F


@dataclass(frozen=True)
class CLDetectabilityCertificate:
    """Common-Lyapunov detectability evidence for a candidate P."""

    P: np.ndarray
    eps: float      # min over nonzero edges of lambda_min(C'C - A'P - PA)
    sigma: float    # lambda_max(A'P + PA)
    feasible: bool
    strict_tol: float


@dataclass(frozen=True)
class Condition14Report:
    lambda2: float
    delta: float    # eps - (1/lambda2 - 1) sigma
    holds: bool


@dataclass(frozen=True)
class NeutralCertificate:
    """Evidence attached to the neutral-stability recipes."""

    split: SpectralSplit
    n1: int


@dataclass(frozen=True)
class GainSet:
    gains: dict  # (i, j) -> n x m_ij array
    recipe: str
    alpha: float | None = None
    eps_bar: float | None = None
    certificate: object | None = None


def default_strict_tol(A, P):
    return 1e-9 * (1.0 + np.linalg.norm(A, 2) * np.linalg.norm(P, 2))


def verify_cl_detectability(
    A: np.ndarray, spec: ArraySpec, P: np.ndarray, strict_tol: float | None = None,
    edge_tol: float = EDGE_TOL,
) -> CLDetectabilityCertificate:
    """Check A'P + PA < C_ij' C_ij over all nonzero edges by eigensolves.

    Infeasibility is reported in the certificate, never raised.
    """
    A = np.asarray(A, dtype=float)
    P = 0.5 * (np.asarray(P, dtype=float) + np.asarray(P, dtype=float).T)
    if strict_tol is None:
        strict_tol = default_strict_tol(A, P)
    X = A.T @ P + P @ A
    eps = np.inf
    for (i, j) in spec.nonzero_edges(edge_tol):
        C = spec.C[(i, j)]
        eps = min(eps, float(np.linalg.eigvalsh(C.T @ C - X)[0]))
    sigma = float(np.linalg.eigvalsh(X)[-1])
    p_min = float(np.linalg.eigvalsh(P)[0])
    return CLDetectabilityCertificate(
        P=P,
        eps=float(eps),
        sigma=sigma,
        feasible=(p_min > 0.0) and (eps > strict_tol),
        strict_tol=strict_tol,
    )


def _edge_weights(spec, edge_tol):
    return {
        e: spec.C[e].T @ spec.C[e] for e in spec.nonzero_edges(edge_tol)
    }


def _violation(A, P, weights):
    """f(P) = max over edges of lambda_max(A'P + PA - C'C) and one subgradient."""
    X = A.T @ P + P @ A
    worst, grad = -np.inf, None
    for Q in weights.values():
        w, V = np.linalg.eigh(X - Q)
        if w[-1] > worst:
            worst = w[-1]
            v = V[:, -1]
            Av = A @ v
            grad = np.outer(Av, v) + np.outer(v, Av)
    return float(worst), grad


def _project_spd(P):
    w, V = np.linalg.eigh(0.5 * (P + P.T))
    return (V * np.clip(w, P_FLOOR, P_CEIL)) @ V.T


def find_common_P(
    A: np.ndarray, spec: ArraySpec, edge_tol: float = EDGE_TOL,
) -> CLDetectabilityCertificate:
    """Search for a common Lyapunov P by projected subgradient descent.

    Minimizes f(P) = max_edges lambda_max(A'P + PA - C_ij'C_ij) over
    symmetric P with spectrum in [P_FLOOR, P_CEIL], warm-started from the
    Lyapunov solution when A is Hurwitz, from scaled identities otherwise,
    for at most MAX_ITERS steps with one restart seeded by SEARCH_SEED.
    Stops once f(P) < -margin, margin = max(1e-7, min_e lambda_min(C_e'C_e)/4);
    the returned certificate is always recomputed by verify_cl_detectability
    with its default strict margin.  Raises Infeasible (carrying the
    least-violating certificate) when the budget runs out.
    """
    A = np.asarray(A, dtype=float)
    weights = _edge_weights(spec, edge_tol)
    if not weights:
        raise Infeasible(
            "spec has no nonzero edges",
            verify_cl_detectability(A, spec, np.eye(spec.n)),
        )
    n = spec.n

    # margin target: a fraction of what P -> 0 would achieve on full-rank
    # edges, or plain strictness when some edge weight is singular
    trivial = min(float(np.linalg.eigvalsh(Q)[0]) for Q in weights.values())
    margin = max(1e-7, 0.25 * max(trivial, 0.0))

    candidates = []
    lam = np.linalg.eigvals(A)
    if np.all(lam.real < 0.0):
        # A'P + PA = -I
        candidates.append(sla.solve_continuous_lyapunov(A.T, -np.eye(n)))
    candidates.append(np.eye(n))
    # prefer larger scales first so feasible-by-margin picks the tamest P
    for t in np.logspace(1, -3, 9):
        candidates.append(t * np.eye(n))

    best_P, best_f = None, np.inf
    for P0 in candidates:
        P0 = _project_spd(P0)
        f0, _ = _violation(A, P0, weights)
        if f0 < best_f:
            best_P, best_f = P0, f0
        if f0 < -margin:
            best_P, best_f = P0, f0
            break

    if best_f >= -margin:
        rng = np.random.default_rng(SEARCH_SEED)
        P = best_P.copy()
        k = 0
        for attempt in range(2):
            while k < MAX_ITERS:
                fk, g = _violation(A, P, weights)
                if fk < best_f:
                    best_f, best_P = fk, P.copy()
                if best_f < -margin:
                    break
                gn2 = float(np.sum(g * g))
                if gn2 <= 1e-30:
                    break
                # Polyak-style step towards a receding target under best_f
                target = best_f - max(0.01 * (1.0 + abs(best_f)), 1e-3) / (1.0 + k / 200.0)
                P = _project_spd(P - ((fk - target) / gn2) * g)
                k += 1
            if best_f < -margin or k >= MAX_ITERS:
                break
            # seeded restart from a random SPD point near the identity
            R = rng.standard_normal((n, n)) * 0.3
            P = _project_spd(np.eye(n) + R @ R.T)

    cert = verify_cl_detectability(A, spec, best_P, edge_tol=edge_tol)
    if not cert.feasible:
        raise Infeasible(
            "no common Lyapunov P found within the iteration budget "
            "(the CL-detectability assumption may fail)",
            cert,
        )
    return cert


def condition14(cert: CLDetectabilityCertificate, lambda2: float) -> Condition14Report:
    """Connectivity condition of the CL-detectability theorem."""
    if not (0.0 < lambda2 <= 1.0 + 1e-12):
        raise ValueError(f"lambda2 = {lambda2} outside (0, 1]")
    delta = cert.eps - (1.0 / lambda2 - 1.0) * cert.sigma
    return Condition14Report(lambda2=float(lambda2), delta=float(delta), holds=delta > 0.0)


def gains_theorem1(
    A: np.ndarray,
    spec: ArraySpec,
    P: np.ndarray,
    alpha: float | None = None,
    edge_tol: float = EDGE_TOL,
) -> GainSet:
    """G_ij = alpha P^-1 C_ij^T for every stored edge.

    alpha defaults to max(1/(2q), 1); smaller values are allowed (the bound
    is sufficient, not necessary) but draw a warning.
    """
    A = np.asarray(A, dtype=float)
    P = np.asarray(P, dtype=float)
    if alpha is None:
        alpha = max(1.0 / (2.0 * spec.q), 1.0)
    if alpha < 1.0 / (2.0 * spec.q) - 1e-15:
        warnings.warn(
            f"alpha = {alpha} is below the 1/(2q) = {1.0 / (2.0 * spec.q)} bound",
            stacklevel=2,
        )
    if np.linalg.cond(P) > 1e14:
        raise SingularP("P is singular to working precision")
    gains = {
        (i, j): alpha * np.linalg.solve(P, C.T)
        for (i, j), C in spec.C.items()
    }
    cert = verify_cl_detectability(A, spec, P, edge_tol=edge_tol)
    try:
        lam2 = normalized_laplacian(build_graph(spec, edge_tol)).lambda2
        report = condition14(cert, lam2)
    except (NotConnected, NotSymmetric):
        report = Condition14Report(lambda2=0.0, delta=-np.inf, holds=False)
    return GainSet(
        gains=gains,
        recipe=RECIPE_THEOREM1,
        alpha=float(alpha),
        certificate=(cert, report),
    )


def _check_neutral_assumptions(A, spec, domain, edge_tol):
    report = validate_spec(spec)
    if not report.symmetric:
        raise NotSymmetric("edge outputs are not symmetric (C_ij != C_ji)")
    g = build_graph(spec, edge_tol)
    if not is_connected(g):
        raise NotConnected("network graph is not connected")
    cls = classify_stability(A, domain)
    if cls.kind not in (NEUTRALLY_STABLE, STABLE):
        raise NotNeutrallyStable(f"A is {cls.kind} in the {domain}-time sense")
    for (i, j) in spec.nonzero_edges(edge_tol):
        if i < j and not pbh_detectable(spec.C[(i, j)], A, domain):
            raise NotDetectable(i, j)


def gains_ct_neutral(
    A: np.ndarray, spec: ArraySpec, check: bool = True, edge_tol: float = EDGE_TOL
) -> GainSet:
    """Continuous-time neutral-stability recipe: G_ij = U U^T C_ij^T."""
    A = np.asarray(A, dtype=float)
    if check:
        _check_neutral_assumptions(A, spec, CONTINUOUS, edge_tol)
    split = neutral_split(A, CONTINUOUS)
    if split.n1 == 0:
        gains = {e: np.zeros((spec.n, C.shape[0])) for e, C in spec.C.items()}
    else:
        M = split.U @ split.U.T
        gains = {e: M @ C.T for e, C in spec.C.items()}
    return GainSet(
        gains=gains,
        recipe=RECIPE_ALG1_CT,
        certificate=NeutralCertificate(split=split, n1=split.n1),
    )


def gains_dt_neutral(
    A: np.ndarray, spec: ArraySpec, check: bool = True, edge_tol: float = EDGE_TOL
) -> GainSet:
    """Discrete-time neutral-stability recipe: G_ij = U Q U^T C_ij^T.

    Also computes eps_bar from the Laplacian of the reduced weights
    H_ij = C_ij U, the largest coupling step the theorem licenses.
    """
    A = np.asarray(A, dtype=float)
    if check:
        _check_neutral_assumptions(A, spec, DISCRETE, edge_tol)
    split = neutral_split(A, DISCRETE)
    if split.n1 == 0:
        gains = {e: np.zeros((spec.n, C.shape[0])) for e, C in spec.C.items()}
        ebar = np.inf
    else:
        M = split.U @ split.marginal_block @ split.U.T
        gains = {e: M @ C.T for e, C in spec.C.items()}
        ebar = eps_bar(laplacian_from_outputs(spec, pre_transform=split.U))
    return GainSet(
        gains=gains,
        recipe=RECIPE_ALG2_DT,
        eps_bar=float(ebar),
        certificate=NeutralCertificate(split=split, n1=split.n1),
    )


def eps_bar(lw: MatrixWeightedLaplacian) -> float:
    """Largest eps with L >= eps L^2 for symmetric PSD L: 1/lambda_max(L).

    Returns +inf for the zero Laplacian (any step works).
    """
    L = lw.L
    scale = np.linalg.norm(L)
    if np.linalg.norm(L - L.T) > LAPLACIAN_SYM_TOL * max(scale, 1.0):
        raise NotSymmetric("eps_bar requires a symmetric Laplacian")
    if scale == 0.0:
        return np.inf
    lam_max = float(np.linalg.eigvalsh(L)[-1])
    if lam_max <= 0.0:
        return np.inf
    return 1.0 / lam_max
