"""Array of identical linear systems with per-edge output matrices.

An array is ``q`` copies of ``xdot = A x`` (or ``x+ = A x``) where system
``i`` measures ``C_ij (x_j - x_i)`` for every neighbour ``j``.  The sparsity
pattern of the output-matrix map induces the network graph and its
normalized Laplacian, whose algebraic connectivity drives the coupling
condition of the CL-detectability synthesis route.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .errors import NotConnected, NotSymmetric

EDGE_TOL = 1e-12  # C blocks of Frobenius norm at most this are absent; C_ij, C_ji this close are equal
NULL_TOL = 1e-9  # lambda2 of Gamma below this * max(lambda_max, 1/q) is zero

CONTINUOUS = "continuous"
DISCRETE = "discrete"


@dataclass(frozen=True)
class ArraySpec:
    """Shared dynamics ``A`` plus the edge output-matrix map ``C``.

    ``C`` maps 0-based ordered pairs ``(i, j)`` to ``m_ij x n`` arrays.  The
    map may be asymmetric (``C_ij != C_ji``); such specs are accepted and
    flagged by :func:`validate_spec` rather than rejected, since the
    asymmetric counterexample has to be representable.
    """

    q: int
    n: int
    A: np.ndarray
    C: dict = field(default_factory=dict)
    time_domain: str = CONTINUOUS

    def __post_init__(self):
        object.__setattr__(self, "A", np.asarray(self.A, dtype=float))
        cmap = {
            (int(i), int(j)): np.atleast_2d(np.asarray(M, dtype=float))
            for (i, j), M in self.C.items()
        }
        object.__setattr__(self, "C", cmap)
        if self.time_domain not in (CONTINUOUS, DISCRETE):
            raise ValueError(f"unknown time domain {self.time_domain!r}")

    def nonzero_edges(self, edge_tol=EDGE_TOL):
        """Ordered pairs whose output matrix is nonzero in Frobenius norm."""
        return [
            e for e, M in sorted(self.C.items())
            if np.linalg.norm(M) > edge_tol
        ]


@dataclass(frozen=True)
class ValidationReport:
    symmetric: bool
    violations: tuple

    @property
    def ok(self):
        return not self.violations


@dataclass(frozen=True)
class NetworkGraph:
    """Vertices ``0..q-1`` with the ordered edge pairs of a spec."""

    q: int
    edges: frozenset
    degrees: tuple
    undirected: bool

    @property
    def edge_count(self):
        return len(self.edges)

    def is_complete(self):
        return all(
            (i, j) in self.edges
            for i in range(self.q) for j in range(self.q) if i != j
        )


@dataclass(frozen=True)
class NormalizedGraphLaplacian:
    """The q x q matrix with entries -1/q on edges and d_i/q on the diagonal."""

    gamma: np.ndarray
    lambda2: float


def validate_spec(spec: ArraySpec) -> ValidationReport:
    """Report dimension mismatches, nonzero diagonal outputs, and symmetry.

    Never raises: a malformed spec yields a report with violations, and a
    directed spec is merely flagged ``symmetric=False``.
    """
    violations = []
    if spec.q < 1:
        violations.append(f"agent count q={spec.q} must be >= 1")
    if spec.A.shape != (spec.n, spec.n):
        violations.append(f"A has shape {spec.A.shape}, expected ({spec.n}, {spec.n})")
    symmetric = True
    for (i, j), M in sorted(spec.C.items()):
        if not (0 <= i < spec.q and 0 <= j < spec.q):
            violations.append(f"edge ({i + 1}, {j + 1}) is outside 1..{spec.q}")
            continue
        if i == j:
            if np.linalg.norm(M) > EDGE_TOL:
                violations.append(f"C_{i + 1}{i + 1} must be absent or zero")
            continue
        if M.shape[1] != spec.n:
            violations.append(
                f"C_{i + 1}{j + 1} has {M.shape[1]} columns, expected {spec.n}"
            )
        other = spec.C.get((j, i))
        if other is None:
            if np.linalg.norm(M) > EDGE_TOL:
                symmetric = False
        elif other.shape != M.shape or not np.allclose(M, other, rtol=0.0, atol=EDGE_TOL):
            symmetric = False
    return ValidationReport(symmetric=symmetric, violations=tuple(violations))


def build_graph(spec: ArraySpec, edge_tol=EDGE_TOL) -> NetworkGraph:
    """Edges are the ordered pairs with ``||C_ij||_F > edge_tol``."""
    edges = set()
    degrees = [0] * spec.q
    for (i, j), M in spec.C.items():
        if i == j:
            continue
        if np.linalg.norm(M) > edge_tol:
            edges.add((i, j))
            degrees[i] += 1
    undirected = all((j, i) in edges for (i, j) in edges)
    return NetworkGraph(
        q=spec.q,
        edges=frozenset(edges),
        degrees=tuple(degrees),
        undirected=undirected,
    )


def is_connected(g: NetworkGraph) -> bool:
    """Breadth-first reachability of every vertex from vertex 0.

    Edges are traversed in both directions, which coincides with graph
    connectivity in the undirected case and is the natural reading for the
    flagged directed specs.
    """
    if g.q <= 1:
        return True
    neighbours = [set() for _ in range(g.q)]
    for (i, j) in g.edges:
        neighbours[i].add(j)
        neighbours[j].add(i)
    seen = {0}
    queue = deque([0])
    while queue:
        v = queue.popleft()
        for w in neighbours[v]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) == g.q


def complete_projector(q: int) -> np.ndarray:
    """J = I - 11^T/q, the normalized Laplacian of the complete graph."""
    return np.eye(q) - np.ones((q, q)) / q


def sync_complement_basis(q: int) -> np.ndarray:
    """Q: a q x (q-1) orthonormal basis of the complement of 1_q, so QQ^T = J.

    Empty (q x 0) for a single agent.
    """
    ones = np.full((q, 1), 1.0 / np.sqrt(q))
    full, _ = np.linalg.qr(np.hstack([ones, np.eye(q)[:, :q - 1]]))
    return full[:, 1:]


def gamma_matrix(g: NetworkGraph) -> np.ndarray:
    """Gamma: -1/q on each ordered edge (i, j), out-degree d_i/q on the diagonal.

    Defined for every graph, directed or disconnected; normalized_laplacian
    adds the checks its eigenvalue analysis needs.
    """
    q = g.q
    gamma = np.zeros((q, q))
    for (i, j) in g.edges:
        gamma[i, j] = -1.0 / q
    for i in range(q):
        gamma[i, i] = g.degrees[i] / q
    return gamma


def normalized_laplacian(g: NetworkGraph) -> NormalizedGraphLaplacian:
    """Assemble Gamma and locate its smallest nonzero eigenvalue.

    Raises NotConnected when a second eigenvalue sits in the numerical null
    space (the multiplicity of 0 equals the number of components), and
    NotSymmetric when the graph is directed.
    """
    if not g.undirected:
        raise NotSymmetric("normalized Laplacian requires an undirected graph")
    q = g.q
    gamma = gamma_matrix(g)
    if q == 1:
        # single vertex: trivially synchronized, treat as a complete graph
        return NormalizedGraphLaplacian(gamma=gamma, lambda2=1.0)
    eigs = np.linalg.eigvalsh(gamma)
    lam_max = max(eigs[-1], 0.0)
    thresh = NULL_TOL * max(lam_max, 1.0 / q)
    if eigs[1] <= thresh:
        raise NotConnected("graph is disconnected: zero eigenvalue has multiplicity > 1")
    return NormalizedGraphLaplacian(gamma=gamma, lambda2=float(eigs[1]))
