"""Array of identical linear systems with per-edge output matrices.

An array is ``q`` copies of ``xdot = A x`` (or ``x+ = A x``) where system
``i`` measures ``C_ij (x_j - x_i)`` for every neighbour ``j``.  The sparsity
pattern of the output-matrix map induces the network graph and its
normalized Laplacian, whose algebraic connectivity drives the coupling
condition of the CL-detectability synthesis route.  A spec's EdgeTable,
built once, holds its pairs, norms, mirrors and outputs stacked per shape,
and every per-edge step of every layer reads it; a GainSet's gains are an
EdgeTable too.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import NotConnected, NotSymmetric

EDGE_TOL = 1e-12  # default edge_tol: C blocks of Frobenius norm at most this are absent; C_ij, C_ji this close are equal
NULL_TOL = 1e-9  # lambda2 of Gamma below this * max(lambda_max, 1/q) is zero

F64 = np.dtype(float)

CONTINUOUS = "continuous"
DISCRETE = "discrete"


def as_block(M):
    """M as a 2-D float64 array; a parsed document's block is one already."""
    ok = type(M) is np.ndarray and M.ndim == 2 and M.dtype is F64
    return M if ok else np.atleast_2d(np.asarray(M, dtype=float))


def _keys(*pairs):
    """Each (i, j) row of (E, 2) arrays as one integer, by one radix for all."""
    lo = min(P.min(initial=0) for P in pairs)
    w = max(P.max(initial=0) for P in pairs) - lo + 1
    return [(P[:, 0] - lo) * w + (P[:, 1] - lo) for P in pairs]


@dataclass(frozen=True)
class EdgeTable:
    """A map of ordered pairs to blocks, a spec's outputs C_ij or its gains
    G_ij: their (E, 2) int ``pairs`` in insertion order, ``groups``, one
    (positions, stack) per block shape, ``where`` each position's (group,
    row), ``order``, the positions in sorted pair order, and, when first
    read, ``mirror``, the position of each (j, i) or -1, and ``norms``
    (np.linalg.norm bit for bit).  A per-edge computation is one numpy call
    per group, bit-equal to one per block."""

    pairs: np.ndarray
    groups: tuple
    where: np.ndarray
    order: np.ndarray

    @classmethod
    def of(cls, cmap):
        """The table of a {pair: 2-D float array} map."""
        mats, E = list(cmap.values()), len(cmap)
        pairs = np.array(list(cmap), dtype=np.int64).reshape(E, 2)
        shapes = [M.shape for M in mats]
        groups, where = [], np.zeros((E, 2), dtype=np.int64)
        for g, shape in enumerate(dict.fromkeys(shapes)):
            idx = np.array([k for k, s in enumerate(shapes) if s == shape])
            groups.append((idx, np.array([mats[k] for k in idx]).reshape(len(idx), *shape)))
            where[idx, 0], where[idx, 1] = g, np.arange(len(idx))
        (key,) = _keys(pairs)
        return cls(pairs, tuple(groups), where, np.argsort(key))

    def find(self, pairs):
        """The position in this table of each (E, 2) pair, -1 for none: a
        binary search of the table's sorted pairs for the pairs taken in
        sorted order, which at E = 39,800 takes 2.5 ms with their argsort
        and 7.4 ms without (one CPU)."""
        key, want = _keys(self.pairs, pairs)
        at = np.full(len(want), -1)
        if len(key):
            s = np.argsort(want)
            pos = self.order[np.minimum(np.searchsorted(key, want[s], sorter=self.order), len(key) - 1)]
            at[s] = np.where(key[pos] == want[s], pos, -1)
        return at

    mirror = functools.cached_property(lambda self: self.find(self.pairs[:, ::-1]))

    @functools.cached_property
    def norms(self):
        out = np.zeros(len(self.pairs))
        for idx, S in self.groups:
            X = S.reshape(len(idx), 1, -1)
            with np.errstate(over="ignore"):  # to inf, as np.linalg.norm goes
                out[idx] = np.sqrt(X @ X.transpose(0, 2, 1)).ravel()
        return out

    def mirrors_close(self, atol):
        """Whether each C_ij has a stored mirror C_ji of its shape, within atol
        as np.allclose(rtol=0) decides it; atol = 0 decides np.array_equal."""
        out, m = np.zeros(len(self.pairs), dtype=bool), self.mirror
        for g, (idx, S) in enumerate(self.groups):
            k = idx[(m[idx] >= 0) & (self.where[m[idx], 0] == g)]
            X, Y = S[self.where[k, 1]], S[self.where[m[k], 1]]
            with np.errstate(invalid="ignore"):
                out[k] = ((np.abs(X - Y) <= atol) | (X == Y)).all(axis=(1, 2))
        return out

    def gram(self, n, pre_transform=None):
        """(E, k, k) stack of the weights H'H, H = C or C @ pre_transform, in
        table order: one batched matmul per group, bit-equal to H.T @ H.  An
        overflow runs to inf silently; the CL certificate refuses such a weight."""
        k = n if pre_transform is None else pre_transform.shape[1]
        out = np.empty((len(self.pairs), k, k))
        for idx, H in self.groups:
            with np.errstate(over="ignore"):
                if pre_transform is not None:
                    H = H @ pre_transform
                out[idx] = H.transpose(0, 2, 1) @ H
        return out


@dataclass(frozen=True)
class ArraySpec:
    """Shared dynamics ``A`` plus the edge output-matrix map ``C``.

    ``C`` maps 0-based ordered pairs ``(i, j)`` to ``m_ij x n`` arrays.  The
    map may be asymmetric (``C_ij != C_ji``); such specs are accepted and
    flagged ``symmetric = False`` rather than rejected, since the asymmetric
    counterexample has to be representable.

    Each fact below is computed once, when first read, and every layer reads
    it here: ``table``, the EdgeTable of ``C``; ``nonzero``, its outputs of
    Frobenius norm above ``edge_tol``; ``edges``, their pairs, sorted;
    ``weights``; ``symmetric`` (validate_spec), ``graph`` (build_graph),
    ``connected`` (is_connected of the graph) and ``lambda2``; ``stability``
    (classify_stability of ``A`` in the spec's time domain, its one
    ``eig(A)``) and ``detectable`` (detectable_edges).
    """

    q: int
    n: int
    A: np.ndarray
    C: dict = field(default_factory=dict)
    time_domain: str = CONTINUOUS
    edge_tol: float = EDGE_TOL

    def __post_init__(self):
        object.__setattr__(self, "A", np.asarray(self.A, dtype=float))
        cmap = {(int(i), int(j)): as_block(M) for (i, j), M in self.C.items()}
        object.__setattr__(self, "C", cmap)
        if self.time_domain not in (CONTINUOUS, DISCRETE):
            raise ValueError(f"unknown time domain {self.time_domain!r}")

    table = functools.cached_property(lambda self: EdgeTable.of(self.C))
    nonzero = functools.cached_property(lambda self: self.table.norms > self.edge_tol)

    @functools.cached_property
    def edges(self):
        t = self.table
        return tuple(map(tuple, t.pairs[t.order[self.nonzero[t.order]]].tolist()))

    @functools.cached_property
    def weights(self):
        """C_ij'C_ij of each stored output, in table order, computed once."""
        return self.table.gram(self.n)

    # lambdas look the functions up when called, so a wrapped one is counted
    symmetric = functools.cached_property(lambda self: validate_spec(self))
    graph = functools.cached_property(lambda self: build_graph(self))
    connected = functools.cached_property(lambda self: is_connected(self.graph))
    stability = functools.cached_property(lambda self: spectral.classify_stability(self.A, self.time_domain))
    detectable = functools.cached_property(lambda self: spectral.detectable_edges(self, self.stability))

    @functools.cached_property
    def lambda2(self):
        """normalized_laplacian(graph).lambda2; 0.0 when the graph is directed or disconnected."""
        try:
            return normalized_laplacian(self.graph).lambda2
        except (NotConnected, NotSymmetric):
            return 0.0


@dataclass(frozen=True)
class NetworkGraph:
    """Vertices ``0..q-1`` with a spec's sorted ordered edge pairs, (E, 2)."""

    q: int
    pairs: np.ndarray
    degrees: tuple
    undirected: bool

    @property
    def edges(self):
        return frozenset(map(tuple, self.pairs.tolist()))

    @property
    def edge_count(self):
        return len(self.pairs)

    def is_complete(self):
        return len(self.pairs) == self.q * (self.q - 1)


@dataclass(frozen=True)
class NormalizedGraphLaplacian:
    """The q x q matrix with entries -1/q on edges and d_i/q on the diagonal."""

    gamma: np.ndarray
    lambda2: float


def validate_spec(spec: ArraySpec) -> bool:
    """Whether the edge outputs are symmetric: each stored pair C_ij, C_ji of
    distinct agents in 1..q within ``spec.edge_tol`` entry by entry, and no
    such pair of ``spec.edges`` without its mirror.  Read it as
    ``spec.symmetric``, which calls this once per spec.
    """
    t = spec.table
    i, j = t.pairs.T
    off = (0 <= i) & (i < spec.q) & (0 <= j) & (j < spec.q) & (i != j)
    mirrored = off & (t.mirror >= 0)
    one_sided = (off & ~mirrored & spec.nonzero).any()
    return bool(not one_sided and t.mirrors_close(spec.edge_tol)[mirrored].all())


def build_graph(spec: ArraySpec) -> NetworkGraph:
    """Edges are the off-diagonal pairs of ``spec.edges``; read it as
    ``spec.graph``, built once per spec."""
    t = spec.table
    keep = spec.nonzero & (t.pairs[:, 0] != t.pairs[:, 1])
    pairs = t.pairs[t.order[keep[t.order]]]
    undirected = (keep[t.mirror] & (t.mirror >= 0))[keep].all()
    return NetworkGraph(
        q=spec.q,
        pairs=pairs,
        degrees=tuple(np.bincount(pairs[:, 0], minlength=spec.q).tolist()),
        undirected=bool(undirected),
    )


def is_connected(g: NetworkGraph) -> bool:
    """Breadth-first reachability of every vertex from vertex 0, edges taken
    both ways: graph connectivity when undirected, the natural reading for
    the flagged directed specs."""
    adjacent = np.zeros((g.q, g.q), dtype=bool)
    adjacent[g.pairs[:, 0], g.pairs[:, 1]] = adjacent[g.pairs[:, 1], g.pairs[:, 0]] = True
    seen = front = np.arange(g.q) == 0
    while front.any():
        front = adjacent[front].any(axis=0) & ~seen
        seen = seen | front
    return bool(seen.all())


def sync_complement_basis(q: int) -> np.ndarray:
    """Q: a q x (q-1) orthonormal basis of the complement of 1_q, so QQ^T = I - 11^T/q.

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
    gamma[g.pairs[:, 0], g.pairs[:, 1]] = -1.0 / q
    np.fill_diagonal(gamma, np.divide(g.degrees, q))
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


# last: spectral imports this module, and ArraySpec's stability reads it
from . import spectral  # noqa: E402
