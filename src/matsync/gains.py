"""Coupling-gain synthesis and the certificates that license each recipe.

Three recipes are implemented:

* ``theorem1``  -- G_ij = alpha P^-1 C_ij^T under CL-detectability, with the
  connectivity condition eps > (1/lambda2 - 1) sigma reported alongside;
* ``alg1_ct``   -- G_ij = U U^T C_ij^T for neutrally stable continuous time;
* ``alg2_dt``   -- G_ij = U Q U^T C_ij^T for neutrally stable discrete time,
  together with the largest coupling step eps_bar = 1/lambda_max(L).

A recipe maps each shape group's stack of C_ij in ``spec.table`` to a stack
of G_ij, one numpy call per group: a GainSet holds that EdgeTable, and its
``gains`` mapping, for tests and scripts, is derived from it.  ``synthesize``
runs a recipe by its ``RECIPES`` name, hypotheses first, for the CLI.
"""

from __future__ import annotations

import dataclasses
import functools
import types
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .array_model import CONTINUOUS, DISCRETE, ArraySpec, EdgeTable, as_block
from .errors import (
    Infeasible,
    MatsyncError,
    NotConnected,
    NotDetectable,
    NotSymmetric,
    SingularP,
)
from .mwl import laplacian_from_outputs
from .spectral import STABLE, StabilityClass, _of_domain, neutral_split

RECIPE_THEOREM1 = "theorem1"
RECIPE_ALG1_CT = "alg1_ct"
RECIPE_ALG2_DT = "alg2_dt"
# the recipes `gains --recipe` and synthesize name -> the time domain each applies to
RECIPES = {RECIPE_THEOREM1: CONTINUOUS, "alg1": CONTINUOUS, "alg2": DISCRETE}

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
    table: EdgeTable  # the n x m_ij gains G_ij, a recipe's in its spec.table's layout
    recipe: str
    alpha: float | None = None
    eps_bar: float | None = None
    certificate: object | None = None  # (cert, Condition14Report) or the SpectralSplit

    @classmethod
    def of(cls, gains, recipe="manual", **fields):
        """The GainSet of a plain (i, j) -> G_ij mapping."""
        return cls(EdgeTable.of({e: as_block(G) for e, G in dict(gains).items()}), recipe, **fields)

    @functools.cached_property
    def gains(self):
        """(i, j) -> G_ij, read-only, in table order."""
        t = self.table
        blocks = [t.groups[g][1][r] for g, r in t.where.tolist()]
        return types.MappingProxyType(dict(zip(map(tuple, t.pairs.tolist()), blocks)))


def default_strict_tol(A, P):
    return 1e-9 * (1.0 + np.linalg.norm(A, 2) * np.linalg.norm(P, 2))


def verify_cl_detectability(
    spec: ArraySpec, P: np.ndarray, strict_tol: float | None = None
) -> CLDetectabilityCertificate:
    """Check A'P + PA < C_ij' C_ij over all nonzero edge weights by eigensolves.

    Infeasibility is reported in the certificate, never raised.  The edge
    matrices, A'P + PA and P are solved in one batched eigvalsh, each
    bit-equal to its own call.  An edge weight C_ij'C_ij that overflowed
    proves nothing: no edge matrix is solved, eps is nan and the
    certificate is infeasible.
    """
    A = spec.A
    P = 0.5 * (np.asarray(P, dtype=float) + np.asarray(P, dtype=float).T)
    if strict_tol is None:
        strict_tol = default_strict_tol(A, P)
    X = A.T @ P + P @ A
    weights = _edge_weights(spec)
    finite = np.isfinite(weights).all()
    E = len(weights) if finite else 0
    stack = np.empty((E + 2, *X.shape))
    np.subtract(weights[:E], X, out=stack[:E])
    stack[E], stack[E + 1] = X, P
    w = np.linalg.eigvalsh(stack)
    eps = float(np.min(w[:E, 0], initial=np.inf)) if finite else np.nan
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
    with its default strict margin.  Raises Infeasible carrying the
    least-violating certificate (the first start's when no violation is a
    number) when the budget runs out, and at once, carrying that of P = I,
    when there is no edge or an edge weight is not finite.  cls, the
    continuous-time classify_stability(spec.A) (computed when None), carries
    the boundary eigenvalues and ||A||_2: passing it shares its one eig(A).
    """
    cls = _of_domain(cls, spec.A, CONTINUOUS)
    A = spec.A
    weights = _edge_weights(spec)
    if not len(weights) or not np.isfinite(weights).all():
        why = "an edge weight C_ij'C_ij is not finite" if len(weights) else "spec has no nonzero edges"
        raise Infeasible(why, verify_cl_detectability(spec, np.eye(spec.n)))
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

    best_P, best_f = candidates[0], np.inf  # kept while no violation is a number
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
                if not gn2 > 1e-30:  # or nan
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
    spec: ArraySpec, P: np.ndarray, cert: CLDetectabilityCertificate, alpha: float | None = None
) -> GainSet:
    """G_ij = alpha P^-1 C_ij^T for every stored edge.

    cert is the CL-detectability certificate of P, as verify_cl_detectability
    or find_common_P gives it (its P is (P + P')/2); it is attached with its
    condition (14) report at ``spec.lambda2``, not computed again.  alpha
    defaults to max(1/(2q), 1); smaller values are allowed (the bound is
    sufficient, not necessary) but draw a warning.  A gain that is
    not finite, from an alpha or a P^-1 too large, is refused.
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
    return GainSet(
        _gain_map(spec, _theorem1(P, alpha)),
        recipe=RECIPE_THEOREM1,
        alpha=float(alpha),
        certificate=(cert, _condition14(cert, spec)),
    )


def _theorem1(P, alpha):
    """The theorem1 gains alpha P^-1 C' of a stack of outputs C."""
    return lambda S: alpha * np.linalg.solve(P, S.transpose(0, 2, 1))


def _gain_map(spec, f):
    """f(S) for each shape group's stack S of C_ij, in spec.table's layout.
    Overflow runs to inf and inf * 0 to nan silently; then the first edge,
    in table order, whose gain is not finite is refused."""
    t = spec.table
    with np.errstate(over="ignore", invalid="ignore"):
        g = dataclasses.replace(t, groups=tuple((idx, f(S)) for idx, S in t.groups))
    bad = [b.min() for idx, G in g.groups if len(b := idx[~np.isfinite(G).all(axis=(1, 2))])]
    if bad:
        i, j = (g.pairs[min(bad)] + 1).tolist()
        raise MatsyncError(f"the gain of edge ({i}, {j}) is not finite")
    return g


def _require_invertible(P):
    if np.linalg.cond(P) > 1e14:
        raise SingularP("P is singular to working precision")


def _condition14(cert, spec):
    """condition14 at the spec's lambda2, failing when its graph has none."""
    if not spec.lambda2:
        return Condition14Report(lambda2=0.0, delta=-np.inf, holds=False)
    return condition14(cert, spec.lambda2)


def _stability(spec, domain):
    """spec.stability when of domain, else None: classified where it is used."""
    return spec.stability if spec.time_domain == domain else None


class _Facts:
    """The document's CL certificate: of its P, else of a searched one (P
    None), at the strict margin tol (None: the default).  It is computed
    once, when first read, so `check`, which reports it, and its theorem1
    verdict share it."""

    def __init__(self, spec, P=None, tol=None):
        self.spec, self.P, self.tol = spec, P, tol

    @functools.cached_property
    def certificate(self):
        """The CL certificate of P, else of a searched P: of the least-violating
        one when the search fails, which a margin tol below the default can pass."""
        spec, P, tol = self.spec, self.P, self.tol
        if P is None:
            try:
                cert = find_common_P(spec, _stability(spec, CONTINUOUS))
            except Infeasible as e:
                cert = e.certificate
            if tol is None:
                return cert
            P = cert.P
        return verify_cl_detectability(spec, P, tol)


def _gate(spec):
    """Every recipe's first hypothesis: symmetric edge outputs, connected graph."""
    if not spec.symmetric:
        raise NotSymmetric("edge outputs are not symmetric")
    if not spec.connected:
        raise NotConnected("graph is not connected")


def synthesize(recipe: str, facts: _Facts, alpha: float | None = None, force: bool = False) -> GainSet:
    """The gains of recipe, a RECIPES name, once its hypotheses hold.

    A spec of the other time domain is refused first, then each hypothesis
    in order, then gains that are not finite (and, for alg2, a reduced Laplacian eps_bar
    refuses), each by a MatsyncError: whether this returns is both `check`'s
    assumption line for the recipe and `gains --recipe`'s exit code.
    theorem1 reads the certificate of facts, a _Facts, and takes alpha.
    force skips the gate and the PBH tests, and theorem1 then keeps an
    infeasible P from the document, never a failed search's; that P passes
    only a tol margin it meets.
    """
    spec, domain = facts.spec, RECIPES[recipe]
    if spec.time_domain != domain:
        raise MatsyncError(f"{recipe} applies to {domain} time")
    if recipe != RECIPE_THEOREM1:
        return (gains_ct_neutral if domain == CONTINUOUS else gains_dt_neutral)(spec, check=not force)
    if not force:
        _gate(spec)
    cert = facts.certificate
    if not cert.feasible and (facts.P is None or not force):
        raise Infeasible("CL-detectability not established", cert)
    return gains_theorem1(spec, cert.P if facts.P is None else facts.P, cert, alpha)


def _neutral(spec, domain, check):
    """The split and the gains M C_ij' of domain's neutral recipe, M = U U'
    (continuous) or U Q U' (discrete, Q the marginal block).  neutral_split
    refuses an A that is not neutrally stable or a basis [U W] too
    ill-conditioned to use; with check, the gate comes first, and afterwards
    every edge must be PBH detectable.  No marginal part gives exact zeros.
    """
    if check:
        _gate(spec)
    split = neutral_split(spec.A, domain, _stability(spec, domain))
    if check:
        for (i, j), ok in spec.detectable.items():
            if not ok:
                raise NotDetectable(i, j)
    U, n1 = split.U, split.n1
    M = U @ U.T if domain == CONTINUOUS else U @ split.marginal_block @ U.T

    def gains(S):
        return M @ S.transpose(0, 2, 1) if n1 else np.zeros((len(S), len(M), S.shape[1]))
    return split, _gain_map(spec, gains)


def gains_ct_neutral(spec: ArraySpec, check: bool = True) -> GainSet:
    """Continuous-time neutral-stability recipe: G_ij = U U^T C_ij^T."""
    split, gains = _neutral(spec, CONTINUOUS, check)
    return GainSet(gains, recipe=RECIPE_ALG1_CT, certificate=split)


def gains_dt_neutral(spec: ArraySpec, check: bool = True) -> GainSet:
    """Discrete-time neutral-stability recipe: G_ij = U Q U^T C_ij^T.

    Also computes eps_bar from the Laplacian of the reduced weights
    H_ij = C_ij U, the largest coupling step the theorem licenses.
    """
    split, gains = _neutral(spec, DISCRETE, check)
    ebar = eps_bar(laplacian_from_outputs(spec, pre_transform=split.U)) if split.n1 else np.inf
    return GainSet(gains, recipe=RECIPE_ALG2_DT, eps_bar=float(ebar), certificate=split)


def eps_bar(L: np.ndarray) -> float:
    """Largest eps with L >= eps L^2 for symmetric PSD L: 1/lambda_max(L).

    Returns +inf for the zero Laplacian (any step works).  A Laplacian
    with an entry that is not finite, from reduced weights that overflowed,
    is refused before any norm or eigensolve.
    """
    if not np.isfinite(L).all():
        raise MatsyncError("eps_bar requires a finite Laplacian")
    scale = np.linalg.norm(L)
    if np.linalg.norm(L - L.T) > LAPLACIAN_SYM_TOL * max(scale, 1.0):
        raise NotSymmetric("eps_bar requires a symmetric Laplacian")
    if scale == 0.0:
        return np.inf
    lam_max = float(np.linalg.eigvalsh(L)[-1])
    if lam_max <= 0.0:
        return np.inf
    return 1.0 / lam_max
