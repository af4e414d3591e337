import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import connected_edge_pairs, random_spd
from matsync import (
    ArraySpec,
    DimensionMismatch,
    build_laplacian,
    builtin_example,
    laplacian_from_outputs,
    sync_complement_basis,
)


def edge_sum_oracle(spec, x):
    """Independent evaluation of sum_{j>i} ||C_ij (x_j - x_i)||^2."""
    total = 0.0
    for (i, j), C in spec.C.items():
        if j <= i:
            continue
        xi = x[i * spec.n:(i + 1) * spec.n]
        xj = x[j * spec.n:(j + 1) * spec.n]
        total += float(np.sum((C @ (xj - xi)) ** 2))
    return total


def block(L, n, i, j):
    """Block (i, j) of L: minus the weight of edge (i, j) off the diagonal."""
    return L[i * n:(i + 1) * n, j * n:(j + 1) * n]


def complement_projector(q, n):
    """VV' with V = sync_complement_basis(q) (x) I_n."""
    V = np.kron(sync_complement_basis(q), np.eye(n))
    return V @ V.T


def random_symmetric_psd_blocks(rng, q, n, pairs):
    Q = {}
    for (i, j) in pairs:
        B = rng.standard_normal((n, n))
        Q[(i, j)] = B @ B.T
        Q[(j, i)] = B @ B.T
    return Q


class TestBuildLaplacian:
    def test_single_identity_edge(self):
        L = build_laplacian({(0, 1): np.eye(2), (1, 0): np.eye(2)}, q=2)
        I2 = np.eye(2)
        expected = np.block([[I2, -I2], [-I2, I2]])
        assert np.array_equal(L, expected)

    def test_counterexample_unstable_eigenvalue(self):
        spec = builtin_example("counterexample_asym").spec
        L = laplacian_from_outputs(spec)
        lam = np.linalg.eigvals(-L)
        assert lam.real.max() == pytest.approx(4.0312, abs=1e-3)

    def test_scalar_blocks_reduce_to_weighted_laplacian(self):
        a12, a23 = 0.7, 1.9
        L = build_laplacian(
            {(0, 1): [[a12]], (1, 0): [[a12]], (1, 2): [[a23]], (2, 1): [[a23]]},
            q=3,
        )
        W = np.array([[0, a12, 0], [a12, 0, a23], [0, a23, 0]])
        classical = np.diag(W.sum(axis=1)) - W
        assert np.allclose(L, classical)

    def test_rejects_nonsquare_and_diagonal_weights(self):
        with pytest.raises(DimensionMismatch):
            build_laplacian({(0, 1): np.ones((1, 2))}, q=2)
        with pytest.raises(DimensionMismatch):
            build_laplacian({(0, 0): np.eye(2), (0, 1): np.eye(2)}, q=2)
        with pytest.raises(DimensionMismatch):
            build_laplacian({}, q=2)
        with pytest.raises(DimensionMismatch):
            build_laplacian({(0, 1): np.eye(2), (1, 2): np.eye(2)}, q=2)
        with pytest.raises(DimensionMismatch):
            build_laplacian({(0, 1): np.eye(2), (1, 0): np.eye(3)}, q=2)


class TestFromOutputs:
    def test_row_vector_output(self):
        spec = ArraySpec(q=2, n=2, A=np.zeros((2, 2)), C={(0, 1): [[1.0, 0.0]]})
        L = laplacian_from_outputs(spec)
        assert np.array_equal(-block(L, 2, 0, 1), [[1.0, 0.0], [0.0, 0.0]])

    def test_chain5_blocks_rank_one_psd(self):
        spec = builtin_example("chain5").spec
        L = laplacian_from_outputs(spec)
        for (i, j) in spec.C:
            B = -block(L, 3, i, j)
            assert B.shape == (3, 3)
            assert np.linalg.matrix_rank(B, tol=1e-10) == 1
            assert np.linalg.eigvalsh(B)[0] >= -1e-12

    def test_pre_transform_hook_matches_explicit_assembly(self, rng):
        spec = builtin_example("chain5").spec
        U = rng.standard_normal((3, 2))
        L = laplacian_from_outputs(spec, pre_transform=U)
        assert L.shape == (spec.q * 2, spec.q * 2)
        # oracle: assemble the reduced Laplacian blockwise from H = C U
        n1, q = 2, spec.q
        expected = np.zeros((q * n1, q * n1))
        for (i, j), C in spec.C.items():
            H = C @ U
            Q = H.T @ H
            expected[i * n1:(i + 1) * n1, j * n1:(j + 1) * n1] -= Q
            expected[i * n1:(i + 1) * n1, i * n1:(i + 1) * n1] += Q
        assert np.allclose(L, expected, atol=1e-12)


class TestDisagreement:
    def test_zero_on_sync_subspace(self, rng):
        spec = builtin_example("chain5").spec
        L = laplacian_from_outputs(spec)
        v = rng.standard_normal(3)
        x = np.tile(v, 5)
        assert abs(x @ L @ x) <= 1e-12 * np.linalg.norm(L)

    def test_two_agent_scalar(self):
        L = build_laplacian({(0, 1): [[1.0]], (1, 0): [[1.0]]}, q=2)
        x = np.array([0.0, 3.0])
        assert x @ L @ x == pytest.approx(9.0)

    def test_matches_edge_sum_oracle(self, rng):
        spec = builtin_example("chain5").spec
        L = laplacian_from_outputs(spec)
        for _ in range(10):
            x = rng.standard_normal(15)
            val = x @ L @ x
            oracle = edge_sum_oracle(spec, x)
            assert val == pytest.approx(oracle, rel=1e-10)


class TestSyncProjector:
    def test_single_agent_is_zero(self):
        assert np.array_equal(complement_projector(1, 3), np.zeros((3, 3)))

    def test_two_agents_scalar(self):
        assert np.allclose(complement_projector(2, 1), [[0.5, -0.5], [-0.5, 0.5]])

    def test_idempotent(self):
        P = complement_projector(4, 3)
        assert np.allclose(P @ P, P, atol=1e-12)

    def test_absorbed_by_symmetric_laplacian(self, rng):
        Q = random_symmetric_psd_blocks(rng, 3, 2, [(0, 1), (1, 2), (0, 2)])
        L = build_laplacian(Q, q=3)
        P = complement_projector(3, 2)
        assert np.linalg.norm(L @ P - L) <= 1e-10 * np.linalg.norm(L)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_symmetric_psd_blocks_give_psd_laplacian(seed):
    rng = np.random.default_rng(seed)
    q = int(rng.integers(2, 7))
    n = int(rng.integers(1, 5))
    pairs = connected_edge_pairs(rng, q, extra=int(rng.integers(0, 2)))
    L = build_laplacian(random_symmetric_psd_blocks(rng, q, n, pairs), q=q)
    assert np.allclose(L, L.T)
    eigs = np.linalg.eigvalsh(L)
    assert eigs[0] >= -1e-9 * max(eigs[-1], 1e-30)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_stacked_ones_in_null_space_even_asymmetric(seed):
    rng = np.random.default_rng(seed)
    q = int(rng.integers(2, 6))
    n = int(rng.integers(1, 4))
    Q = {}
    for i in range(q):
        for j in range(q):
            if i != j and rng.random() < 0.6:
                Q[(i, j)] = rng.standard_normal((n, n))  # not PSD, not symmetric
    if not Q:
        Q[(0, 1)] = rng.standard_normal((n, n))
    L = build_laplacian(Q, q=q, n=n)
    ones_block = np.kron(np.ones((q, 1)), np.eye(n))
    assert np.linalg.norm(L @ ones_block) <= 1e-10 * max(np.linalg.norm(L), 1e-30)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_disagreement_nonnegative_and_matches_oracle(seed):
    rng = np.random.default_rng(seed)
    q = int(rng.integers(2, 6))
    n = int(rng.integers(1, 4))
    cmap = {}
    for (i, j) in connected_edge_pairs(rng, q, extra=1):
        C = rng.standard_normal((int(rng.integers(1, n + 1)), n))
        cmap[(i, j)] = C
        cmap[(j, i)] = C
    spec = ArraySpec(q=q, n=n, A=np.zeros((n, n)), C=cmap)
    L = laplacian_from_outputs(spec)
    x = rng.standard_normal(q * n)
    val = x @ L @ x
    assert val >= -1e-10 * max(np.linalg.norm(L), 1.0)
    assert val == pytest.approx(edge_sum_oracle(spec, x), rel=1e-10, abs=1e-12)


def test_example1_nullity_is_state_dimension():
    L = laplacian_from_outputs(builtin_example("counterexample_asym").spec)
    s = np.linalg.svd(L, compute_uv=False)
    assert int(np.sum(s <= 1e-9 * s[0])) == 2
