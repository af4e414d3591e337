"""Coupling-gain synthesis and the certificates that license each recipe.

Three recipes are implemented:

* ``theorem1``  -- G_ij = alpha P^-1 C_ij^T under CL-detectability, with the
  connectivity condition eps > (1/lambda2 - 1) sigma reported alongside;
* ``alg1_ct``   -- G_ij = U U^T C_ij^T for neutrally stable continuous time;
* ``alg2_dt``   -- G_ij = U Q U^T C_ij^T for neutrally stable discrete time,
  together with the largest coupling step eps_bar = 1/lambda_max(L).
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .array_model import (
    CONTINUOUS,
    DISCRETE,
    ArraySpec,
    NetworkGraph,
    build_graph,
    is_connected,
    normalized_laplacian,
    validate_spec,
)
from .errors import (
    Infeasible,
    NotConnected,
    NotDetectable,
    NotSymmetric,
    SingularP,
)
from .mwl import laplacian_from_outputs
from .spectral import STABLE, StabilityClass, _of_domain, classify_stability, detectable_edges
from .spectral import neutral_split

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
class GainSet:
    gains: dict  # (i, j) -> n x m_ij array
    recipe: str
    alpha: float | None = None
    eps_bar: float | None = None
    certificate: object | None = None  # (cert, Condition14Report) or the SpectralSplit


def default_strict_tol(A, P):
    return 1e-9 * (1.0 + np.linalg.norm(A, 2) * np.linalg.norm(P, 2))


def verify_cl_detectability(
    spec: ArraySpec, P: np.ndarray, strict_tol: float | None = None
) -> CLDetectabilityCertificate:
    """Check A'P + PA < C_ij' C_ij over all nonzero edge weights by eigensolves.

    Infeasibility is reported in the certificate, never raised.  The edge
    matrices, A'P + PA and P are solved in one batched eigvalsh, each
    bit-equal to its own call.
    """
    A = spec.A
    P = 0.5 * (np.asarray(P, dtype=float) + np.asarray(P, dtype=float).T)
    if strict_tol is None:
        strict_tol = default_strict_tol(A, P)
    X = A.T @ P + P @ A
    weights = _edge_weights(spec)
    E = len(weights)
    stack = np.empty((E + 2, *X.shape))
    np.subtract(weights, X, out=stack[:E])
    stack[E], stack[E + 1] = X, P
    w = np.linalg.eigvalsh(stack)
    eps = float(np.min(w[:E, 0], initial=np.inf))
    sigma = float(w[E, -1])
    p_min = float(w[E + 1, 0])
    return CLDetectabilityCertificate(
        P=P,
        eps=float(eps),
        sigma=sigma,
        feasible=(p_min > 0.0) and (eps > strict_tol),
        strict_tol=strict_tol,
    )


def _edge_weights(spec):
    """(E, n, n) stack of C_ij'C_ij over spec.edges, in edge order, leaving
    out an edge (i, j), i > j, whose C_ij equals C_ji: its weight repeats an
    earlier one.  The weights are the spec's own, computed once."""
    t = spec.table
    repeats = (t.pairs[:, 0] > t.pairs[:, 1]) & t.mirrors_close(0.0)
    return spec.weights[t.order[(spec.nonzero & ~repeats)[t.order]]]


def _violation(A, P, weights):
    """f(P) = max over edges of lambda_max(A'P + PA - C'C) and one subgradient,
    taken at the first edge that attains the max."""
    X = A.T @ P + P @ A
    w, V = np.linalg.eigh(X - weights)
    k = int(np.argmax(w[:, -1]))
    v = V[k, :, -1]
    Av = A @ v
    return float(w[k, -1]), np.outer(Av, v) + np.outer(v, Av)


def _project_spd(P):
    w, V = np.linalg.eigh(0.5 * (P + P.T))
    return (V * np.clip(w, P_FLOOR, P_CEIL)) @ V.T


def find_common_P(
    spec: ArraySpec, cls: StabilityClass | None = None
) -> CLDetectabilityCertificate:
    """Search for a common Lyapunov P by projected subgradient descent.

    Minimizes f(P) = max_edges lambda_max(A'P + PA - C_ij'C_ij) over
    symmetric P with spectrum in [P_FLOOR, P_CEIL], warm-started from the
    Lyapunov solution when A is stable by the boundary rule of
    classify_stability, from scaled identities otherwise,
    for at most MAX_ITERS steps with one restart seeded by SEARCH_SEED.
    Stops once f(P) < -margin, margin = max(1e-7, min_e lambda_min(C_e'C_e)/4);
    the returned certificate is always recomputed by verify_cl_detectability
    with its default strict margin.  Raises Infeasible (carrying the
    least-violating certificate) when the budget runs out.  cls, the
    continuous-time classify_stability(spec.A) (computed when None), carries
    the boundary eigenvalues and ||A||_2: passing it shares its one eig(A).
    """
    cls = _of_domain(cls, spec.A, CONTINUOUS)
    A = spec.A
    weights = _edge_weights(spec)
    if not len(weights):
        raise Infeasible(
            "spec has no nonzero edges",
            verify_cl_detectability(spec, np.eye(spec.n)),
        )
    n = spec.n

    # margin target: a fraction of what P -> 0 would achieve on full-rank
    # edges, or plain strictness when some edge weight is singular
    trivial = float(np.linalg.eigvalsh(weights)[:, 0].min())
    margin = max(1e-7, 0.25 * max(trivial, 0.0))

    # projected onto the search's domain; a scaled identity t I with t in
    # [P_FLOOR, P_CEIL] is its own projection, bit for bit
    candidates = []
    if cls.kind == STABLE:
        # A'P + PA = -I
        candidates.append(_project_spd(sla.solve_continuous_lyapunov(A.T, -np.eye(n))))
    candidates.append(np.eye(n))
    # prefer larger scales first so feasible-by-margin picks the tamest P
    for t in np.logspace(1, -3, 9):
        candidates.append(t * np.eye(n))

    best_P, best_f = None, np.inf
    for P0 in candidates:
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

    cert = verify_cl_detectability(spec, best_P)
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
    spec: ArraySpec, P: np.ndarray, cert: CLDetectabilityCertificate, alpha: float | None = None,
    graph: NetworkGraph | None = None,
) -> GainSet:
    """G_ij = alpha P^-1 C_ij^T for every stored edge.

    cert is the CL-detectability certificate of P, as verify_cl_detectability
    or find_common_P gives it (its P is (P + P')/2); it is attached with its
    condition (14) report, not computed again.  alpha defaults to
    max(1/(2q), 1); smaller values are allowed (the bound is sufficient, not
    necessary) but draw a warning.  graph is build_graph(spec), built here
    when the caller has not built it already.
    """
    P = np.asarray(P, dtype=float)
    if not np.array_equal(cert.P, 0.5 * (P + P.T)):
        raise ValueError("the certificate is not of this P")
    if alpha is None:
        alpha = max(1.0 / (2.0 * spec.q), 1.0)
    if alpha < 1.0 / (2.0 * spec.q) - 1e-15:
        warnings.warn(
            f"alpha = {alpha} is below the 1/(2q) = {1.0 / (2.0 * spec.q)} bound",
            stacklevel=2,
        )
    _require_invertible(P)
    G = spec.table.apply(lambda S: alpha * np.linalg.solve(P, S.transpose(0, 2, 1)))
    return GainSet(
        gains=dict(zip(spec.C, G)),
        recipe=RECIPE_THEOREM1,
        alpha=float(alpha),
        certificate=(cert, _condition14(cert, build_graph(spec) if graph is None else graph)),
    )


def _require_invertible(P):
    if np.linalg.cond(P) > 1e14:
        raise SingularP("P is singular to working precision")


def _condition14(cert, graph):
    """condition14 at the graph's lambda2, failing when it has none."""
    try:
        return condition14(cert, normalized_laplacian(graph).lambda2)
    except (NotConnected, NotSymmetric):
        return Condition14Report(lambda2=0.0, delta=-np.inf, holds=False)


class _Facts:
    """What the recipes' hypotheses are read from: a spec, its document P
    (None: search for one) and the strict margin tol (None: the default).
    Each costly part is computed once, when first read, so `check`, which
    reads them all, decides each hypothesis as `gains` does, at no extra cost."""

    def __init__(self, spec, P=None, tol=None):
        self.spec, self.P, self.tol = spec, P, tol
        self._classified = {}

    symmetric = functools.cached_property(lambda self: validate_spec(self.spec).symmetric)
    graph = functools.cached_property(lambda self: build_graph(self.spec))
    connected = functools.cached_property(lambda self: is_connected(self.graph))

    def classified(self, domain):
        """classify_stability(A, domain)."""
        if domain not in self._classified:
            self._classified[domain] = classify_stability(self.spec.A, domain)
        return self._classified[domain]

    @functools.cached_property
    def detectable(self):
        return detectable_edges(self.spec, self.symmetric, self.classified(self.spec.time_domain))

    @functools.cached_property
    def certificate(self):
        """The CL certificate of P, else of a searched P: of the least-violating
        one when the search fails, which a margin tol below the default can pass."""
        spec, P, tol = self.spec, self.P, self.tol
        if P is None:
            try:
                cert = find_common_P(spec, self.classified(CONTINUOUS))
            except Infeasible as e:
                cert = e.certificate
            if tol is None:
                return cert
            P = cert.P
        return verify_cl_detectability(spec, P, tol)


def _gate(facts):
    """Every recipe's first hypothesis: symmetric edge outputs, connected graph."""
    if not facts.symmetric:
        raise NotSymmetric("edge outputs are not symmetric")
    if not facts.connected:
        raise NotConnected("graph is not connected")


def _theorem1_hypotheses(facts, force=False):
    """(P, certificate) for gains_theorem1 once the gate holds, the certificate
    is feasible and P, the document's or else the searched one, is invertible.

    force skips the gate and keeps an infeasible P from the document, never a
    failed search's; that P passes only a tol margin it meets.
    """
    if not force:
        _gate(facts)
    cert = facts.certificate
    if not cert.feasible and (facts.P is None or not force):
        raise Infeasible("CL-detectability not established", cert)
    P = cert.P if facts.P is None else facts.P
    _require_invertible(P)
    return P, cert


def _neutral_hypotheses(facts, domain, check=True):
    """neutral_split(A, domain), which refuses an A that is not neutrally stable
    or a basis [U W] too ill-conditioned to use.  With check, the gate comes
    first, and afterwards every edge must be PBH detectable.
    """
    if check:
        _gate(facts)
    split = neutral_split(facts.spec.A, domain, facts.classified(domain))
    if check:
        for (i, j), ok in facts.detectable.items():
            if not ok:
                raise NotDetectable(i, j)
    return split


def gains_ct_neutral(spec: ArraySpec, check: bool = True) -> GainSet:
    """Continuous-time neutral-stability recipe: G_ij = U U^T C_ij^T."""
    split = _neutral_hypotheses(_Facts(spec), CONTINUOUS, check)
    M = split.U @ split.U.T
    gains = dict(zip(spec.C, spec.table.apply(lambda S: _neutral_gains(M, S, split.n1))))
    return GainSet(gains=gains, recipe=RECIPE_ALG1_CT, certificate=split)


def gains_dt_neutral(spec: ArraySpec, check: bool = True) -> GainSet:
    """Discrete-time neutral-stability recipe: G_ij = U Q U^T C_ij^T.

    Also computes eps_bar from the Laplacian of the reduced weights
    H_ij = C_ij U, the largest coupling step the theorem licenses.
    """
    split = _neutral_hypotheses(_Facts(spec), DISCRETE, check)
    M = split.U @ split.marginal_block @ split.U.T
    gains = dict(zip(spec.C, spec.table.apply(lambda S: _neutral_gains(M, S, split.n1))))
    ebar = eps_bar(laplacian_from_outputs(spec, pre_transform=split.U)) if split.n1 else np.inf
    return GainSet(
        gains=gains, recipe=RECIPE_ALG2_DT, eps_bar=float(ebar), certificate=split
    )


def _neutral_gains(M, S, n1):
    """M C' for each C of the stack S, exact zeros when there is no marginal part."""
    return M @ S.transpose(0, 2, 1) if n1 else np.zeros((len(S), len(M), S.shape[1]))


def eps_bar(L: np.ndarray) -> float:
    """Largest eps with L >= eps L^2 for symmetric PSD L: 1/lambda_max(L).

    Returns +inf for the zero Laplacian (any step works).
    """
    scale = np.linalg.norm(L)
    if np.linalg.norm(L - L.T) > LAPLACIAN_SYM_TOL * max(scale, 1.0):
        raise NotSymmetric("eps_bar requires a symmetric Laplacian")
    if scale == 0.0:
        return np.inf
    lam_max = float(np.linalg.eigvalsh(L)[-1])
    if lam_max <= 0.0:
        return np.inf
    return 1.0 / lam_max
