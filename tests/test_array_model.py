import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import connected_edge_pairs
from matsync import (
    ArraySpec,
    NotConnected,
    NotSymmetric,
    build_graph,
    builtin_example,
    closed_loop,
    is_connected,
    normalized_laplacian,
    sync_complement_basis,
    validate_spec,
)
from matsync.array_model import EDGE_TOL, gamma_matrix

# frozen regression: lambda2 of the 5-chain, (2 - 2 cos(pi/5))/5
CHAIN5_LAMBDA2 = 0.0763932022500210


def jacobi_eigenvalues(M, sweeps=60):
    """Textbook cyclic Jacobi eigensolver for symmetric matrices (oracle)."""
    A = np.array(M, dtype=float)
    n = A.shape[0]
    for _ in range(sweeps):
        off = np.sqrt(np.sum(np.tril(A, -1) ** 2))
        if off < 1e-14:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(A[p, q]) < 1e-30:
                    continue
                theta = 0.5 * np.arctan2(2.0 * A[p, q], A[q, q] - A[p, p])
                c, s = np.cos(theta), np.sin(theta)
                J = np.eye(n)
                J[p, p] = J[q, q] = c
                J[p, q] = s
                J[q, p] = -s
                A = J.T @ A @ J
    return np.sort(np.diag(A))


def chain_spec(q=5):
    C = {}
    for i in range(q - 1):
        C[(i, i + 1)] = np.ones((1, 2))
        C[(i + 1, i)] = np.ones((1, 2))
    return ArraySpec(q=q, n=2, A=np.zeros((2, 2)), C=C)


class TestValidateSpec:
    def test_symmetric_pair(self):
        spec = builtin_example("chain5").spec
        report = validate_spec(spec)
        assert report

    def test_asymmetric_outputs_flagged(self):
        spec = builtin_example("counterexample_asym").spec
        report = validate_spec(spec)
        assert not report

    def test_empty_map_is_valid(self):
        spec = ArraySpec(q=3, n=2, A=np.zeros((2, 2)), C={})
        report = validate_spec(spec)
        assert report
        assert build_graph(spec).edge_count == 0

    def test_one_sided_edge_is_asymmetric(self):
        spec = ArraySpec(q=2, n=1, A=np.zeros((1, 1)), C={(0, 1): [[1.0]]})
        assert not validate_spec(spec)


class TestBuildGraph:
    def test_chain5_structure(self):
        g = build_graph(builtin_example("chain5").spec)
        assert g.degrees == (1, 2, 2, 2, 1)
        assert g.undirected
        assert not g.is_complete()

    def test_counterexample_is_complete(self):
        g = build_graph(builtin_example("counterexample_asym").spec)
        assert g.is_complete()
        assert g.degrees == (2, 2, 2)

    def test_zero_outputs_make_no_edges(self):
        spec = ArraySpec(
            q=3, n=1, A=np.zeros((1, 1)), C={(0, 1): [[0.0]], (1, 0): [[0.0]]}
        )
        assert build_graph(spec).edge_count == 0

    def test_edge_tol_filters_tiny_outputs(self):
        spec = ArraySpec(q=2, n=1, A=np.zeros((1, 1)), C={(0, 1): [[1e-13]]})
        assert build_graph(spec).edge_count == 0
        spec = ArraySpec(q=2, n=1, A=np.zeros((1, 1)), C={(0, 1): [[1e-13]]}, edge_tol=1e-14)
        assert build_graph(spec).edge_count == 1


class TestConnectivity:
    def test_chain_connected(self):
        assert is_connected(build_graph(chain_spec()))

    def test_complete_connected(self):
        assert is_connected(build_graph(builtin_example("counterexample_asym").spec))

    def test_isolated_vertices(self):
        spec = ArraySpec(
            q=4, n=1, A=np.zeros((1, 1)), C={(0, 1): [[1.0]], (1, 0): [[1.0]]}
        )
        assert not is_connected(build_graph(spec))


class TestNormalizedLaplacian:
    def test_complete_graph_equals_projector(self):
        for q in (3, 5):
            C = {
                (i, j): [[1.0]] for i in range(q) for j in range(q) if i != j
            }
            spec = ArraySpec(q=q, n=1, A=np.zeros((1, 1)), C=C)
            ngl = normalized_laplacian(build_graph(spec))
            assert np.allclose(ngl.gamma, np.eye(q) - np.ones((q, q)) / q)
            assert ngl.lambda2 == pytest.approx(1.0, abs=1e-12)

    def test_two_vertices(self):
        spec = ArraySpec(
            q=2, n=1, A=np.zeros((1, 1)), C={(0, 1): [[1.0]], (1, 0): [[1.0]]}
        )
        ngl = normalized_laplacian(build_graph(spec))
        assert np.allclose(ngl.gamma, [[0.5, -0.5], [-0.5, 0.5]])
        assert ngl.lambda2 == pytest.approx(1.0, abs=1e-12)

    def test_chain5_lambda2_against_jacobi_oracle(self):
        ngl = normalized_laplacian(build_graph(builtin_example("chain5").spec))
        oracle = jacobi_eigenvalues(ngl.gamma)[1]
        assert ngl.lambda2 == pytest.approx(oracle, rel=1e-10)
        assert ngl.lambda2 == pytest.approx(CHAIN5_LAMBDA2, abs=1e-12)

    def test_gamma_of_directed_and_disconnected_graphs(self):
        # one-sided edge 1 -> 2, vertex 3 isolated: normalized_laplacian
        # refuses this graph, gamma_matrix and closed_loop still need it
        spec = ArraySpec(q=3, n=1, A=np.zeros((1, 1)), C={(0, 1): [[1.0]]})
        g = build_graph(spec)
        expected = np.array([[1.0, -1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]) / 3
        assert np.array_equal(gamma_matrix(g), expected)
        assert np.array_equal(closed_loop(spec, {(0, 1): [[1.0]]}).gamma, expected)
        with pytest.raises(NotSymmetric):
            normalized_laplacian(g)

    def test_disconnected_raises(self):
        spec = ArraySpec(
            q=4, n=1, A=np.zeros((1, 1)), C={(0, 1): [[1.0]], (1, 0): [[1.0]]}
        )
        with pytest.raises(NotConnected):
            normalized_laplacian(build_graph(spec))

    def test_no_edges_raises(self):
        spec = ArraySpec(q=3, n=1, A=np.zeros((1, 1)), C={})
        with pytest.raises(NotConnected):
            normalized_laplacian(build_graph(spec))


@pytest.mark.parametrize("q", [1, 2, 3, 5, 8, 100])
def test_sync_complement_basis(q):
    Q = sync_complement_basis(q)
    assert Q.shape == (q, q - 1)
    assert np.allclose(Q.T @ Q, np.eye(q - 1), atol=1e-13)
    assert np.allclose(Q.T @ np.ones(q), 0.0, atol=1e-13)
    assert np.allclose(Q @ Q.T, np.eye(q) - np.ones((q, q)) / q, atol=1e-13)


def graph_from_pairs(q, pairs):
    C = {}
    for (i, j) in pairs:
        C[(i, j)] = [[1.0]]
        C[(j, i)] = [[1.0]]
    return build_graph(ArraySpec(q=q, n=1, A=np.zeros((1, 1)), C=C))


@given(q=st.integers(2, 8), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_gamma_spectrum_properties(q, seed):
    rng = np.random.default_rng(seed)
    g = graph_from_pairs(q, connected_edge_pairs(rng, q, extra=int(rng.integers(0, q))))
    ngl = normalized_laplacian(g)
    assert np.allclose(ngl.gamma, ngl.gamma.T)
    assert np.allclose(ngl.gamma @ np.ones(q), 0.0, atol=1e-12)
    eigs = np.linalg.eigvalsh(ngl.gamma)
    assert eigs[0] >= -1e-10
    assert eigs[-1] <= 1.0 + 1e-10


@given(q=st.integers(2, 8), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_projector_sandwich_bounds(q, seed):
    # Gamma <= J <= Gamma / lambda2 for undirected connected graphs
    rng = np.random.default_rng(seed)
    g = graph_from_pairs(q, connected_edge_pairs(rng, q, extra=int(rng.integers(0, q))))
    ngl = normalized_laplacian(g)
    J = np.eye(q) - np.ones((q, q)) / q
    assert np.linalg.eigvalsh(J - ngl.gamma)[0] >= -1e-10
    assert np.linalg.eigvalsh(ngl.gamma / ngl.lambda2 - J)[0] >= -1e-10


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_build_graph_symmetric_for_symmetric_specs(seed):
    rng = np.random.default_rng(seed)
    q = int(rng.integers(2, 7))
    pairs = connected_edge_pairs(rng, q, extra=1)
    C = {}
    for (i, j) in pairs:
        M = rng.standard_normal((2, 3))
        C[(i, j)] = M
        C[(j, i)] = M
    g = build_graph(ArraySpec(q=q, n=3, A=np.zeros((3, 3)), C=C))
    assert g.undirected
    for (i, j) in g.edges:
        assert (j, i) in g.edges


def symmetric_loop(spec):
    """Reference: the per-edge np.allclose rule of validate_spec."""
    for (i, j), M in spec.C.items():
        if i == j or not (0 <= i < spec.q and 0 <= j < spec.q):
            continue
        other = spec.C.get((j, i))
        if other is None:
            if np.linalg.norm(M) > EDGE_TOL:
                return False
        elif other.shape != M.shape or not np.allclose(M, other, rtol=0.0, atol=EDGE_TOL):
            return False
    return True


MIRRORS = ("equal", "tol", "past_tol", "rows", "missing", "inf", "inf_one_side", "nan")


def mirror_of(rng, C, kind):
    """C_ji for C_ij = C: equal, off by exactly +-EDGE_TOL or by one ulp more
    on its zero entries, of another row count, absent, or with infinities."""
    D = C.copy()
    zeros = C == 0.0
    sign = np.where(rng.random(C.shape) < 0.5, -1.0, 1.0)
    if kind == "tol":
        D[zeros] = (sign * EDGE_TOL)[zeros]
    elif kind == "past_tol":
        D[zeros] = (sign * np.nextafter(EDGE_TOL, np.inf))[zeros]
    elif kind == "rows":
        D = np.vstack([C, C[:1]])
    elif kind == "missing":
        return None
    elif kind == "inf_one_side":
        D[0, 0] = np.inf
    elif kind == "nan":
        D[0, 0] = np.nan
    return D


@given(seed=st.integers(0, 2**32 - 1), kinds=st.lists(st.sampled_from(MIRRORS), max_size=6))
@settings(max_examples=200, deadline=None)
def test_batched_symmetry_equals_allclose_loop(seed, kinds):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 4))
    cmap = {}
    for k, kind in enumerate(kinds):
        C = rng.standard_normal((int(rng.integers(1, 4)), n))
        C[rng.random(C.shape) < 0.4] = 0.0
        if rng.random() < 0.2:
            C = np.zeros_like(C)
        if kind == "inf":
            C[0, 0] = rng.choice([-np.inf, np.inf])
        D = mirror_of(rng, C, kind)
        cmap[(k, k + 1)] = C
        if D is not None:
            cmap[(k + 1, k)] = D
    spec = ArraySpec(q=len(kinds) + 1, n=n, A=np.zeros((n, n)), C=cmap)
    assert validate_spec(spec) == symmetric_loop(spec)


@given(seed=st.integers(0, 2**32 - 1), tol=st.sampled_from([0.0, EDGE_TOL, 1e-3]))
@settings(max_examples=100, deadline=None)
def test_nonzero_edges_equals_norm_loop(seed, tol):
    # some outputs scaled to within a few ulps of the tolerance
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 5))
    cmap = {}
    for e in rng.permutation(12)[: int(rng.integers(0, 12))]:
        C = rng.standard_normal((int(rng.integers(1, n + 1)), n))
        if rng.random() < 0.5:
            C = C / np.linalg.norm(C) * tol * (1.0 + rng.integers(-3, 4) * 2.0**-52)
        cmap[(int(e) // 4, int(e) % 4)] = C
    spec = ArraySpec(q=4, n=n, A=np.zeros((n, n)), C=cmap, edge_tol=tol)
    want = tuple(e for e in sorted(spec.C) if np.linalg.norm(spec.C[e]) > tol)
    assert spec.edges == want


# --- the edge table and every batch it feeds, against per-edge loops ----------


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def random_edge_map(rng, q, n):
    """Outputs of mixed row counts in random insertion order: self-pairs,
    zero blocks, bit-equal and unequal mirrors, and pairs without a mirror."""
    pairs = [(i, j) for i in range(q) for j in range(q)]
    cmap = {}
    for k in rng.permutation(len(pairs))[: int(rng.integers(0, min(len(pairs), 60) + 1))]:
        i, j = pairs[k]
        kind = rng.choice(["random", "zero", "mirror", "near_mirror"])
        if kind in ("mirror", "near_mirror") and (j, i) in cmap:
            C = cmap[(j, i)].copy()
            if kind == "near_mirror":
                C.flat[int(rng.integers(C.size))] += 1e-3
        else:
            C = rng.standard_normal((int(rng.integers(1, 4)), n))
            C[rng.random(C.shape) < 0.2] = 0.0
            if kind == "zero":
                C[:] = rng.choice([0.0, -0.0])
        cmap[(i, j)] = C
    return cmap


def laplacian_loop(pairs, weights, q, n):
    """L one block at a time, -= W_ij off the diagonal, += W_ij on (i, i)."""
    L = np.zeros((q * n, q * n))
    for (i, j), W in zip(pairs, weights):
        if i != j:
            L[i * n:(i + 1) * n, j * n:(j + 1) * n] -= W
            L[i * n:(i + 1) * n, i * n:(i + 1) * n] += W
    return L


def closed_loop_loop(spec, gmap, scale):
    """Psi = (I (x) A) - scale L_W one edge at a time, rounded as closed_loop rounds it."""
    q, n, A = spec.q, spec.n, spec.A
    psi = np.kron(np.eye(q), A) - scale * 0.0
    sums = {}
    for (i, j), C in spec.C.items():
        if i != j:
            W = gmap[(i, j)] @ C
            sums[i] = sums.get(i, 0.0) + W
            psi[i * n:(i + 1) * n, j * n:(j + 1) * n] = 0.0 * A - scale * (0.0 - W)
    for i, S in sums.items():
        psi[i * n:(i + 1) * n, i * n:(i + 1) * n] = A - scale * S
    return psi


def pbh_loop(C, A, boundary, tol):
    """[A - lam I; C] of full column rank at every boundary lam, one SVD each."""
    n = len(A)
    return all(
        np.linalg.svd(np.vstack([A - lam * np.eye(n), C]), compute_uv=False)[-1] > tol
        for lam in boundary[boundary.imag >= 0]
    )


@given(seed=st.integers(0, 2**32 - 1), q=st.integers(1, 30), n=st.integers(1, 4))
@settings(max_examples=100, deadline=None)
def test_edge_table_and_its_batches_equal_per_edge_loops(seed, q, n):
    from conftest import random_neutrally_stable, random_spd
    from matsync import (
        classify_stability, gains_ct_neutral, gains_dt_neutral, gains_theorem1,
        laplacian_from_outputs, verify_cl_detectability,
    )
    from matsync.gains import _edge_weights
    from matsync.spectral import detectable_edges

    rng = np.random.default_rng(seed)
    cmap = random_edge_map(rng, q, n)
    spec = ArraySpec(q=q, n=n, A=random_neutrally_stable(rng, n), C=cmap)
    t, pairs, Cs = spec.table, list(cmap), list(cmap.values())

    # the table's fields
    assert t.pairs.tolist() == [list(e) for e in pairs]
    assert same_bits(t.norms, [np.linalg.norm(C) for C in Cs])
    assert [pairs[k] for k in t.order] == sorted(pairs)
    assert t.mirror.tolist() == [pairs.index((j, i)) if (j, i) in cmap else -1 for (i, j) in pairs]
    positions = sorted(k for idx, _ in t.groups for k in idx.tolist())
    assert positions == list(range(len(pairs)))
    for g, (idx, S) in enumerate(t.groups):
        for r, k in enumerate(idx.tolist()):
            assert same_bits(S[r], Cs[k]) and t.where[k].tolist() == [g, r]
    assert spec.edges == tuple(e for e in sorted(pairs) if np.linalg.norm(cmap[e]) > spec.edge_tol)

    # the graph it gives
    g = build_graph(spec)
    offdiag = [e for e in spec.edges if e[0] != e[1]]
    assert g.edges == frozenset(offdiag)
    assert g.degrees == tuple(sum(1 for (i, _) in offdiag if i == v) for v in range(q))
    assert g.undirected == all((j, i) in g.edges for (i, j) in g.edges)
    want = np.zeros((q, q))
    for (i, j) in offdiag:
        want[i, j] = -1.0 / q
    for v in range(q):
        want[v, v] = g.degrees[v] / q
    assert same_bits(gamma_matrix(g), want)
    seen, todo = {0}, [0]
    while todo:
        v = todo.pop()
        for (i, j) in offdiag:
            for a, b in ((i, j), (j, i)):
                if a == v and b not in seen:
                    seen.add(b)
                    todo.append(b)
    assert is_connected(g) == (len(seen) == q)

    # the weights, the certificate's edge weights and the block Laplacians
    assert same_bits(spec.weights, [C.T @ C for C in Cs] if Cs else np.zeros((0, n, n)))
    kept = [e for e in spec.edges
            if not (e[0] > e[1] and (e[1], e[0]) in cmap and np.array_equal(cmap[e], cmap[e[::-1]]))]
    assert same_bits(_edge_weights(spec), [cmap[e].T @ cmap[e] for e in kept] if kept else np.zeros((0, n, n)))
    assert same_bits(laplacian_from_outputs(spec), laplacian_loop(pairs, [C.T @ C for C in Cs], q, n))
    U = rng.standard_normal((n, int(rng.integers(1, n + 1))))
    H = [C @ U for C in Cs]
    assert same_bits(laplacian_from_outputs(spec, pre_transform=U),
                     laplacian_loop(pairs, [h.T @ h for h in H], q, U.shape[1]))

    # the three recipes' gains
    P = random_spd(rng, n)
    gs = gains_theorem1(spec, P, verify_cl_detectability(spec, P), alpha=0.75)
    assert list(gs.gains) == pairs
    assert all(same_bits(gs.gains[e], 0.75 * np.linalg.solve(P, C.T)) for e, C in cmap.items())
    # alg2's eps_bar needs a symmetric Laplacian: its map gets every mirror equal
    sym = {}
    for (i, j), C in cmap.items():
        sym[(i, j)] = sym.get((j, i), C)
    sym.update({(j, i): C for (i, j), C in list(sym.items()) if (j, i) not in sym})
    for recipe, domain, cmap in ((gains_ct_neutral, "continuous", cmap),
                                 (gains_dt_neutral, "discrete", sym)):
        dspec = ArraySpec(q=q, n=n, A=random_neutrally_stable(rng, n, domain), C=cmap,
                          time_domain=domain)
        gs = recipe(dspec, check=False)
        split = gs.certificate
        M = split.U @ split.U.T if domain == "continuous" else (
            split.U @ split.marginal_block @ split.U.T)
        assert list(gs.gains) == list(cmap)
        assert all(same_bits(gs.gains[e], M @ C.T) for e, C in cmap.items())

        # the closed loop of random gains, and the PBH verdicts
        gmap = {e: rng.standard_normal((n, C.shape[0])) for e, C in cmap.items()}
        scale = 1.0 if domain == "continuous" else 0.5
        cl = closed_loop(dspec, gmap, epsilon=None if domain == "continuous" else 0.5)
        assert same_bits(cl.system_matrix, closed_loop_loop(dspec, gmap, scale))
        # the PBH verdicts, keyed by the spec's own symmetry: the mirrored
        # map is symmetric, and the random map made one-sided is not
        cls = classify_stability(dspec.A, domain)
        if domain == "continuous" and q > 1:
            cmap = {**cmap, (0, 1): np.ones((1, n))}
            cmap.pop((1, 0), None)
            dspec = ArraySpec(q=q, n=n, A=dspec.A, C=cmap, time_domain=domain)
        assert dspec.symmetric == (domain == "discrete" or q == 1)
        want = {}
        for (i, j) in dspec.edges:
            key = (min(i, j), max(i, j)) if dspec.symmetric else (i, j)
            want.setdefault(key, pbh_loop(cmap[(i, j)], dspec.A, cls.boundary, 1e-8 * cls.norm))
        got = detectable_edges(dspec, cls)
        assert list(got.items()) == list(want.items())
