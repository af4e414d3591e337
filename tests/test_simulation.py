import os
import subprocess
import sys
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg as sla
from scipy.sparse import csr_array
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    TRACE_RTOL,
    connected_edge_pairs,
    off_sync_eigenvalues,
    random_complete_cl_spec,
    random_neutrally_stable,
    random_orthogonal,
    random_symmetric_spec,
    row_deviation,
    spectrum_partition_gap,
    sweep_gains,
)
from matsync import (
    ArraySpec,
    DimensionMismatch,
    Diverged,
    asymptotic_anchor,
    build_mass_spring,
    builtin_example,
    closed_loop,
    find_common_P,
    gains_ct_neutral,
    gains_dt_neutral,
    gains_theorem1,
    laplacian_from_outputs,
    neutral_split,
    rho_sweep,
    simulate_ct,
    simulate_dt,
    verify_cl_detectability,
)
from matsync import simulation
from matsync.builders import BUILTIN_NAMES
from matsync.simulation import BOUND_CAP_FACTOR, MAX_TRACE_ROWS, rk4_step_matrix

PARTITION_TOL = 1e-8  # times max(1, ||Psi||_2)
RHO_TOL = 1e-11  # times max(1, ||Psi||_2): two orthonormal bases, one quotient


def natural_gains(spec):
    return {e: C.T for e, C in spec.C.items()}


def sweep_P(ex):
    """The P `matsync sweep` uses on a bundled example."""
    return ex.P if ex.P is not None else find_common_P(ex.spec).P


class TestClosedLoop:
    def test_two_scalar_agents(self):
        spec = ArraySpec(q=2, n=1, A=[[0.0]], C={(0, 1): [[1.0]], (1, 0): [[1.0]]})
        cl = closed_loop(spec, {(0, 1): [[1.0]], (1, 0): [[1.0]]})
        assert np.allclose(cl.system_matrix, [[-1.0, 1.0], [1.0, -1.0]])

    def test_counterexample_reproduces_minus_laplacian(self):
        spec = builtin_example("counterexample_asym").spec
        cl = closed_loop(spec, natural_gains(spec))
        L = laplacian_from_outputs(spec)
        assert np.allclose(cl.system_matrix, -L)
        assert np.linalg.eigvals(cl.system_matrix).real.max() == pytest.approx(
            4.0312, abs=1e-3
        )

    def test_sync_modes_carry_drift_eigenvalues(self):
        # eig(Psi) = eig(A) + eig(V' Psi V) as multisets, on every bundled
        # example, with natural gains and with the sweep's gains
        for name in BUILTIN_NAMES:
            ex = builtin_example(name)
            spec, P = ex.spec, sweep_P(ex)
            for gmap in [natural_gains(spec)] + [
                sweep_gains(spec, P, alpha) for alpha in (0.0, 0.1, 1.0, 10.0)
            ]:
                psi = closed_loop(spec, gmap).system_matrix
                assert spectrum_partition_gap(psi, spec.A, spec.q) <= PARTITION_TOL, name

    @given(
        seed=st.integers(0, 2**32 - 1), q=st.integers(2, 6), n=st.integers(1, 4),
        domain=st.sampled_from(["continuous", "discrete"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_spectrum_partition_any_gains(self, seed, q, n, domain):
        # the sync subspace is invariant for any gains, symmetric or not
        rng = np.random.default_rng(seed)
        spec = random_symmetric_spec(rng, q=q, n=n, domain=domain)
        gmap = {
            e: rng.standard_normal((n, C.shape[0])) for e, C in spec.C.items()
        }
        psi = closed_loop(spec, gmap, epsilon=0.3).system_matrix
        assert spectrum_partition_gap(psi, spec.A, q) <= PARTITION_TOL

    def test_theorem1_closed_loop_structure(self):
        # system matrix must be [I x A] - alpha [I x P^-1] L exactly
        ex = builtin_example("chain5")
        alpha = 1.7
        gs = gains_theorem1(ex.spec, ex.P, verify_cl_detectability(ex.spec, ex.P), alpha=alpha)
        cl = closed_loop(ex.spec, gs)
        L = laplacian_from_outputs(ex.spec)
        expected = np.kron(np.eye(5), ex.spec.A) - alpha * np.kron(
            np.eye(5), np.linalg.inv(ex.P)
        ) @ L
        assert np.allclose(cl.system_matrix, expected, atol=1e-10)

    def test_restricted_to_sync_subspace_acts_as_A(self, rng):
        spec = random_symmetric_spec(rng, q=3, n=2)
        cl = closed_loop(spec, natural_gains(spec))
        v = rng.standard_normal(2)
        stacked = np.tile(v, 3)
        assert np.allclose(
            cl.system_matrix @ stacked, np.tile(spec.A @ v, 3), atol=1e-12
        )

    def test_gain_shape_checked(self):
        spec = ArraySpec(q=2, n=2, A=np.zeros((2, 2)), C={(0, 1): [[1.0, 0.0]]})
        with pytest.raises(DimensionMismatch):
            closed_loop(spec, {(0, 1): np.ones((1, 2))})
        with pytest.raises(DimensionMismatch):
            closed_loop(spec, {})
        # a gain off the edges is refused whatever its shape
        with pytest.raises(DimensionMismatch, match=r"gain for \(2, 1\), which is not an edge"):
            closed_loop(spec, {(0, 1): np.ones((2, 1)), (1, 0): [[9.0]]})

    def test_discrete_embeds_epsilon(self):
        spec = ArraySpec(
            q=2, n=1, A=[[1.0]], C={(0, 1): [[1.0]], (1, 0): [[1.0]]},
            time_domain="discrete",
        )
        cl = closed_loop(spec, {(0, 1): [[1.0]], (1, 0): [[1.0]]}, epsilon=0.25)
        assert np.allclose(cl.system_matrix, [[0.75, 0.25], [0.25, 0.75]])
        assert cl.epsilon == 0.25


def assemble_block_laplacian(blocks, q, n):
    """Reference: L_W one block at a time, -= W_ij off the diagonal and
    += W_ij on block (i, i), in the order of the map."""
    L = np.zeros((q * n, q * n))
    for (i, j), B in blocks.items():
        if i != j:
            L[i * n:(i + 1) * n, j * n:(j + 1) * n] -= B
            L[i * n:(i + 1) * n, i * n:(i + 1) * n] += B
    return L


def laplacian_closed_loop(spec, gmap, epsilon):
    """(I (x) A) - [epsilon] L_W, with L_W from assemble_block_laplacian."""
    weights = {e: np.atleast_2d(np.asarray(gmap[e], dtype=float)) @ C
               for e, C in spec.C.items()}
    L = assemble_block_laplacian(weights, spec.q, spec.n)
    base = np.kron(np.eye(spec.q), spec.A)
    return base - L if epsilon is None else base - epsilon * L


def sparse_normal(rng, shape):
    """Standard normal entries, about half of them +0.0 or -0.0."""
    return rng.standard_normal(shape) * (rng.random(shape) < 0.5)


def random_sparse_array(rng, q, n, domain):
    """Random edges in random order with sparse A, outputs and gains, one output zero."""
    pairs = [(i, j) for i in range(q) for j in range(q) if i != j]
    order = rng.permutation(len(pairs))[:int(rng.integers(0, len(pairs) + 1))]
    C = {pairs[k]: sparse_normal(rng, (int(rng.integers(1, 4)), n)) for k in order}
    if C:
        C[next(iter(C))] = np.zeros_like(C[next(iter(C))])
    spec = ArraySpec(q=q, n=n, A=sparse_normal(rng, (n, n)), C=C, time_domain=domain)
    return spec, {e: sparse_normal(rng, (n, M.shape[0])) for e, M in spec.C.items()}


def assert_same_bits(got, want):
    """Equal as float64 bit patterns: tells 0.0 from -0.0, unlike np.array_equal."""
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestClosedLoopBits:
    """closed_loop's Psi / M is (I (x) A) - [epsilon] L_W bit for bit, signed zeros included."""

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    @pytest.mark.parametrize("epsilon", [None, 0.3, 2.0])
    def test_bundled_examples(self, name, epsilon, rng):
        spec = builtin_example(name).spec
        if epsilon is not None:
            spec = ArraySpec(q=spec.q, n=spec.n, A=spec.A, C=spec.C, time_domain="discrete")
        for gmap in (natural_gains(spec),
                     {e: sparse_normal(rng, C.T.shape) for e, C in spec.C.items()}):
            got = closed_loop(spec, gmap, epsilon=epsilon).system_matrix
            assert_same_bits(got, laplacian_closed_loop(spec, gmap, epsilon))

    def test_neutral_array_with_many_negative_zeros(self, rng):
        # the off-diagonal blocks of I (x) A hold 0.0 * A: -0.0 under every
        # negative entry of A, kept wherever no edge writes
        spec = random_symmetric_spec(rng, q=30, n=4)
        gmap = gains_ct_neutral(spec).gains
        got = closed_loop(spec, gmap).system_matrix
        assert np.signbit(got[got == 0.0]).any()
        assert_same_bits(got, laplacian_closed_loop(spec, gmap, None))

    @given(
        seed=st.integers(0, 2**32 - 1), q=st.integers(1, 5), n=st.integers(1, 3),
        epsilon=st.sampled_from([None, 0.3, 1.0, 0.0, -0.0, -0.5, 1e300]),
    )
    @settings(max_examples=80, deadline=None)
    def test_random_sparse_arrays(self, seed, q, n, epsilon):
        rng = np.random.default_rng(seed)
        domain = "continuous" if epsilon is None else "discrete"
        spec, gmap = random_sparse_array(rng, q, n, domain)
        with np.errstate(over="ignore", invalid="ignore"):
            got = closed_loop(spec, gmap, epsilon=epsilon).system_matrix
            want = laplacian_closed_loop(spec, gmap, epsilon)
        assert_same_bits(got, want)


class TestSimulateCT:
    def test_zero_dynamics_constant(self):
        spec = ArraySpec(q=1, n=2, A=np.zeros((2, 2)), C={})
        trace = simulate_ct(closed_loop(spec, {}), [1.0, -2.0], T=1.0, h=0.01)
        assert np.allclose(trace.states, trace.states[0])
        assert trace.bounded

    def test_sync_start_stays_synchronized(self, rng):
        spec = random_symmetric_spec(rng, q=4, n=3)
        cl = closed_loop(spec, natural_gains(spec))
        v = rng.standard_normal(3)
        x0 = np.tile(v, 4)
        trace = simulate_ct(cl, x0, T=10.0, h=1e-3)
        assert np.max(trace.sync_error) <= 1e-9 * np.linalg.norm(x0)
        assert trace.verdict() == "converged"

    def test_uncoupled_skew_matches_matrix_exponential(self, rng):
        X = rng.standard_normal((4, 4))
        S = X - X.T
        spec = ArraySpec(q=1, n=4, A=S, C={})
        cl = closed_loop(spec, {})
        x0 = rng.standard_normal(4)
        trace = simulate_ct(cl, x0, T=10.0, h=1e-3)
        # oracle: scaling-and-squaring matrix exponential
        exact = sla.expm(S * 10.0) @ x0
        assert np.linalg.norm(trace.states[-1] - exact) <= 1e-6 * np.linalg.norm(x0)
        norms = np.linalg.norm(trace.states, axis=1)
        assert np.max(np.abs(norms - norms[0])) <= 1e-6 * norms[0]

    def test_rk4_order_against_exponential(self, rng):
        A = rng.standard_normal((5, 5))
        A = A / np.linalg.norm(A, 2) * 2.0
        spec = ArraySpec(q=1, n=5, A=A, C={})
        cl = closed_loop(spec, {})
        x0 = rng.standard_normal(5)
        exact = sla.expm(A * 1.0) @ x0
        errs = []
        for h in (0.05, 0.025):
            trace = simulate_ct(cl, x0, T=1.0, h=h)
            errs.append(np.linalg.norm(trace.states[-1] - exact))
        factor = errs[0] / errs[1]
        assert 8.0 <= factor <= 32.0

    @pytest.mark.parametrize("T,h", [(100.0, 1e-300), (1e300, 1e-300), (2.0**63, 1.0)])
    def test_step_count_beyond_int64_rejected(self, T, h):
        # checked before any step is taken
        spec = ArraySpec(q=1, n=1, A=[[0.0]], C={})
        with pytest.raises(ValueError, match="T / h"):
            simulate_ct(closed_loop(spec, {}), [1.0], T=T, h=h)

    def test_divergence_truncates_and_flags(self):
        spec = ArraySpec(q=1, n=1, A=[[5.0]], C={})
        cl = closed_loop(spec, {})
        with pytest.raises(Diverged) as exc:
            simulate_ct(cl, [1.0], T=5.0, h=1e-3)
        trace = exc.value.trace
        assert not trace.bounded
        assert trace.times[-1] < 5.0
        assert trace.verdict() == "diverged"


class TestSimulateDT:
    def test_identity_constant(self):
        spec = ArraySpec(q=2, n=1, A=[[1.0]], C={}, time_domain="discrete")
        trace = simulate_dt(closed_loop(spec, {}), [1.0, 2.0], K=10)
        assert np.allclose(trace.states, trace.states[0])

    @pytest.mark.parametrize("K", [0, 2**63 - 1, 2**64])
    def test_step_count_outside_int64_rejected(self, K):
        spec = ArraySpec(q=2, n=1, A=[[1.0]], C={}, time_domain="discrete")
        with pytest.raises(ValueError, match="K"):
            simulate_dt(closed_loop(spec, {}), [1.0, 2.0], K=K)

    def test_rotation_pair_contracts(self, rng):
        th = 0.7
        R = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        spec = ArraySpec(
            q=2, n=2, A=R, C={(0, 1): np.eye(2), (1, 0): np.eye(2)},
            time_domain="discrete",
        )
        gs = gains_dt_neutral(spec)
        cl = closed_loop(spec, gs)
        # oracle: the closed loop restricted off the sync subspace is Schur
        Y = np.array([[1.0], [-1.0]]) / np.sqrt(2.0)
        B = np.kron(Y, np.eye(2))
        M_red = B.T @ cl.system_matrix @ B
        assert np.max(np.abs(np.linalg.eigvals(M_red))) < 1.0
        x0 = rng.standard_normal(4)
        trace = simulate_dt(cl, x0, K=2000)
        assert trace.sync_error[-1] <= 1e-6 * trace.sync_error[0]

    def test_oversized_step_runs_without_claims(self, rng):
        # outside the theorem hypotheses: no synchronization assertion
        spec = random_symmetric_spec(rng, q=3, n=2, domain="discrete")
        gs = gains_dt_neutral(spec)
        cl = closed_loop(spec, gs, epsilon=2.0 * gs.eps_bar)
        try:
            trace = simulate_dt(cl, rng.standard_normal(6), K=500)
            assert trace.states.shape[1] == 6
        except Diverged:
            pass


def slow_ramp_loop(epsilon=0.5):
    """x+ = 1.00015 x on the sync subspace of two coupled scalar agents."""
    spec = ArraySpec(
        q=2, n=1, A=[[1.00015]], C={(0, 1): [[1.0]], (1, 0): [[1.0]]},
        time_domain="discrete",
    )
    return closed_loop(spec, natural_gains(spec), epsilon=epsilon)


def kept_indices(points, max_rows=MAX_TRACE_ROWS):
    stride = -(-points // max_rows)
    idx = list(range(0, points, stride))
    if idx[-1] != points - 1:
        idx.append(points - 1)
    return idx


def scaled_rotation_loop(rng, qn, growth):
    """x+ = growth * O x with O random orthogonal: ||x_k|| = growth^k ||x_0||."""
    M = growth * random_orthogonal(rng, qn)
    spec = ArraySpec(q=1, n=qn, A=M, C={}, time_domain="discrete")
    return closed_loop(spec, {})


def reference_run(M, x0, points):
    """Every state of x <- M x, one product per step, and the first index past the cap."""
    cap_sq = (BOUND_CAP_FACTOR * np.linalg.norm(x0)) ** 2
    states, x = [x0], x0
    for k in range(1, points):
        x = M @ x
        if not (x @ x <= cap_sq):
            return np.array(states), k
        states.append(x)
    return np.array(states), None


def run_dt(cl, x0, K):
    """The trace of simulate_dt, whether it returns or raises Diverged."""
    try:
        return simulate_dt(cl, x0, K=K)
    except Diverged as exc:
        return exc.trace


class TestKeptRows:
    def test_diverged_trace_past_row_cap_matches_reference_loop(self):
        cl = slow_ramp_loop()
        x0 = np.array([1.0, 0.5])
        K = 200_000
        with pytest.raises(Diverged) as exc:
            simulate_dt(cl, x0, K=K)
        trace = exc.value.trace
        states, k = reference_run(cl.system_matrix, x0, K + 1)
        assert k is not None and MAX_TRACE_ROWS < k < K + 1
        idx = kept_indices(k)
        assert idx[1] != kept_indices(K + 1)[1]  # the truncated run has its own stride
        assert not trace.bounded
        assert np.array_equal(trace.times, np.array(idx, dtype=float))
        # consecutive states differ by >= 1.5e-4 relative, so a shifted row fails
        assert row_deviation(trace.states, states[idx]) <= TRACE_RTOL

    def test_long_run_keeps_bounded_rows_ending_in_final_state(self):
        th = 0.7
        R = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        spec = ArraySpec(
            q=2, n=2, A=R, C={(0, 1): np.eye(2), (1, 0): np.eye(2)},
            time_domain="discrete",
        )
        cl = closed_loop(spec, gains_dt_neutral(spec))
        x0 = np.array([1.0, -0.5, 0.25, 2.0])
        K = 300_000
        trace = simulate_dt(cl, x0, K=K)
        x = x0
        for _ in range(K):
            x = cl.system_matrix @ x
        assert len(trace.times) <= MAX_TRACE_ROWS + 1
        assert np.array_equal(trace.times, np.array(kept_indices(K + 1), dtype=float))
        assert np.array_equal(trace.states[0], x0)
        assert row_deviation(trace.states[-1], x) <= TRACE_RTOL

    # one block for the whole trace, the module default, and many small blocks
    @pytest.mark.parametrize("block_cells", [1 << 18, 16_000, 40])
    def test_metrics_equal_pairwise_loop(self, rng, monkeypatch, block_cells):
        monkeypatch.setattr(simulation, "METRIC_BLOCK_CELLS", block_cells)
        spec = random_symmetric_spec(rng, q=6, n=3)
        cl = closed_loop(spec, natural_gains(spec))
        trace = simulate_ct(cl, rng.standard_normal(18), T=0.5, h=1e-2)
        X = trace.states.reshape(len(trace.times), 6, 3)
        sync = np.zeros(len(trace.times))
        for i in range(6):
            for j in range(i + 1, 6):
                sync = np.maximum(sync, np.linalg.norm(X[:, i] - X[:, j], axis=1))
        assert np.array_equal(trace.sync_error, sync)
        dis = np.einsum("sik,ij,sjk->s", X, cl.gamma, X)
        assert np.all(
            np.abs(trace.disagreement - dis)
            <= 1e-12 * np.linalg.norm(trace.states, axis=1) ** 2
        )


def metric_loop(rng, q, n):
    """What _metrics reads of a closed loop, with Gamma of a random directed graph."""
    adjacency = rng.random((q, q)) < 0.5
    np.fill_diagonal(adjacency, False)
    gamma = (np.diag(adjacency.sum(axis=1)) - adjacency) / q
    return SimpleNamespace(spec=SimpleNamespace(q=q, n=n), gamma=gamma)


def brute_sync(X):
    """max over pairs of the row-wise np.linalg.norm of x_i - x_j, X of shape (S, q, n)."""
    want = np.zeros(len(X))
    for i in range(X.shape[1]):
        for j in range(i + 1, X.shape[1]):
            want = np.maximum(want, np.linalg.norm(X[:, i] - X[:, j], axis=1))
    return want


def rotating_rows(rng, S, q, n, spread, scale):
    """One configuration about a common state, slowly rotated and shrunk row by row."""
    X0 = rng.standard_normal((1, n)) + spread * rng.standard_normal((q, n))
    K = rng.standard_normal((n, n))
    step = sla.expm(rng.uniform(0.0, 0.05) * (K - K.T)) * rng.uniform(0.98, 1.0)
    X = np.empty((S, q, n))
    X[0] = scale * X0
    for s in range(1, S):
        X[s] = X[s - 1] @ step
    return X


class TestMetrics:
    @given(
        seed=st.integers(0, 2**32 - 1), q=st.integers(1, 12), n=st.integers(1, 5),
        S=st.integers(1, 300), block_cells=st.integers(1, 400),
        log_scale=st.floats(-150, 150), rotating=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_metrics_against_brute_force(
        self, seed, q, n, S, block_cells, log_scale, rotating
    ):
        rng = np.random.default_rng(seed)
        cl = metric_loop(rng, q, n)
        if rotating:
            # neighbouring rows alike, so the pruning bound drops agents
            X = rotating_rows(rng, S, q, n, 10.0 ** rng.uniform(-8, 0), 10.0 ** log_scale)
        else:
            # agents spread 1e-8 to 1 relative around a common state, each row at its own scale
            spread = 10.0 ** rng.uniform(-8, 0, (S, 1, 1))
            scale = 10.0 ** (log_scale + rng.uniform(-1, 1, (S, 1, 1)))
            X = scale * (rng.standard_normal((S, 1, n)) + spread * rng.standard_normal((S, q, n)))
        want = brute_sync(X)
        # the module's choice of path, then the pruned path at every q
        for prune_min in (simulation.PRUNE_MIN_AGENTS, 1):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(simulation, "METRIC_BLOCK_CELLS", block_cells)
                mp.setattr(simulation, "PRUNE_MIN_AGENTS", prune_min)
                sync, dis = simulation._metrics(cl, X.reshape(S, q * n))
            assert np.array_equal(sync, want)
        want = np.einsum("sik,ij,sjk->s", X, cl.gamma, X)
        assert np.all(np.abs(dis - want) <= 1e-12 * np.sum(X**2, axis=(1, 2)))

    @pytest.mark.parametrize("S, q, n, rows", [
        pytest.param(100_001, 3, 4, "random", id="100001-3-4"),
        pytest.param(401, 100, 4, "random", id="401-100-4"),
        pytest.param(401, 100, 4, "smooth", id="401-100-4-smooth"),
    ])
    def test_metrics_make_no_trace_sized_temporary(self, S, q, n, rows):
        # numpy reports its array allocations to tracemalloc; one (S, q, n)
        # temporary is already past the bound.  Smooth rows run the pruning
        # bound with few agents kept
        rng = np.random.default_rng(7)
        cl = metric_loop(rng, q, n)
        if rows == "random":
            states = rng.standard_normal((S, q * n))
        else:
            states = rotating_rows(rng, S, q, n, 0.1, 1.0).reshape(S, q * n)
        tracemalloc.start()
        try:
            sync, dis = simulation._metrics(cl, states)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < sync.nbytes + dis.nbytes + 2**20


def sphere_rows(rng, S, q, n):
    # q/2 random unit vectors and their negatives, scaled per row: every agent
    # is at the largest radius, so no agent can be dropped
    u = rng.standard_normal((S, q // 2, n))
    u /= np.linalg.norm(u, axis=2, keepdims=True)
    return np.concatenate((u, -u), axis=1) * rng.uniform(0.5, 2.0, (S, 1, 1))


def coincident_rows(rng, S, q, n):
    # three points, each held by several agents, and two of them mirrored
    # about the third, so the farthest distance is held by many tied pairs
    p = rng.standard_normal((S, 1, n))
    points = np.concatenate((p, -p, np.zeros_like(p)), axis=1)
    return points[:, rng.integers(0, 3, q)] + rng.standard_normal((1, 1, n))


def equal_rows(rng, S, q, n):
    # all agents equal in every other row, so sync_error is 0 there
    X = rng.standard_normal((S, 1, n)) + 1e-3 * rng.standard_normal((S, q, n))
    X[::2] = X[::2, :1]
    return X


def subnormal_rows(rng, S, q, n):
    # spreads of 1e-8 at scale 1e-150: the squared distances are subnormal
    return 1e-150 * (rng.standard_normal((S, 1, n)) + 1e-8 * rng.standard_normal((S, q, n)))


def huge_rows(rng, S, q, n):
    return 1e150 * (rng.standard_normal((S, 1, n)) + rng.standard_normal((S, q, n)))


def agent_counts(monkeypatch, name):
    """Wrap simulation.<name>(T, out); returns the agent count of each call."""
    agents, wrapped = [], getattr(simulation, name)

    def counted(T, out):
        agents.append(len(T))
        return wrapped(T, out)

    monkeypatch.setattr(simulation, name, counted)
    return agents


class TestPrunedPairSearch:
    @pytest.mark.parametrize("rows", [
        sphere_rows, coincident_rows, equal_rows, subnormal_rows, huge_rows,
    ])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_adversarial_rows_equal_brute_force(self, rng, rows, n):
        S, q = 50, simulation.PRUNE_MIN_AGENTS + 4
        X = rows(rng, S, q, n)
        sync, _ = simulation._metrics(metric_loop(rng, q, n), X.reshape(S, q * n))
        assert np.array_equal(sync, brute_sync(X))

    def test_radii_rounded_to_zero_keep_every_agent(self, rng):
        # every squared radius and the anchor's distances to its neighbours
        # round to 0 among subnormals, while the pair (-1.5e-162, 0), (1.5e-162, 0)
        # rounds up: only the absolute slack keeps that pair in the search
        config = 1e-162 * np.array([[0.0, 1.5], [-1.5, 0.0], [1.5, 0.0], [0.0, -1.0]])
        X = np.tile(config, (5, 1))[None]
        sync, _ = simulation._metrics(metric_loop(rng, 20, 2), X.reshape(1, -1))
        assert np.array_equal(sync, brute_sync(X))

    def test_equal_pairs_through_the_centroid_keep_both(self, rng, monkeypatch):
        # (0, 1), (0, -r), (-r, 0), (1, 0), r ~ 0.75, and two agents that put the
        # centroid at 0, rotated, scaled and shifted: the anchor's pair through
        # the centroid and the pair (-r, 0), (1, 0) are both 1 + r long, and the
        # second rounds an ulp longer; without the relative slack it is dropped
        monkeypatch.setattr(simulation, "PRUNE_MIN_AGENTS", 1)
        X = np.array([[
            [0.13326784674840988, 0.001621149166471359],
            [-0.02537595981967617, 0.000896566221421552],
            [0.04230427793129518, 0.06919788030326864],
            [0.043028860876344985, -0.08944592626481743],
            [0.031231935422012188, 0.012486478447406201],
            [0.031231935422012188, 0.012486478447406201],
        ]])
        sync, _ = simulation._metrics(metric_loop(rng, 6, 2), X.reshape(1, -1))
        assert np.array_equal(sync, brute_sync(X))

    def test_sphere_prunes_no_agent(self, rng, monkeypatch):
        S, q, n = 50, simulation.PRUNE_MIN_AGENTS + 4, 3
        agents = agent_counts(monkeypatch, "_pair_loop")
        simulation._metrics(metric_loop(rng, q, n), sphere_rows(rng, S, q, n).reshape(S, q * n))
        assert agents == [q]

    @pytest.mark.parametrize("below", [True, False])
    def test_agent_count_around_the_threshold(self, rng, monkeypatch, below):
        q = simulation.PRUNE_MIN_AGENTS - below
        S, n = 200, 3
        X = rotating_rows(rng, S, q, n, 0.3, 1.0)
        bounded = agent_counts(monkeypatch, "_candidates")
        sync, _ = simulation._metrics(metric_loop(rng, q, n), X.reshape(S, q * n))
        assert np.array_equal(sync, brute_sync(X))
        assert (bounded == []) == below

    def test_synchronizing_wide_trace_visits_fewer_agents(self, monkeypatch):
        # an alg1 array of 100 agents, as in the benchmark's wide_array workload
        rng = np.random.default_rng(5)
        q, n = 100, 4
        spec = random_symmetric_spec(rng, q=q, n=n, A=random_neutrally_stable(rng, n, n1=2))
        cl = closed_loop(spec, gains_ct_neutral(spec))
        agents = agent_counts(monkeypatch, "_pair_loop")
        trace = simulate_ct(cl, rng.standard_normal(q * n), T=4.0, h=1e-2)
        per_block = simulation.METRIC_BLOCK_CELLS // (q * n)
        assert len(agents) == -(-len(trace.times) // per_block)
        assert max(agents) < q
        X = trace.states.reshape(-1, q, n)
        assert np.array_equal(trace.sync_error, brute_sync(X))


class TestChunkedStepper:
    """Chunks of B states from [R; ...; R^B] @ x against a one-product-per-step loop.

    POWER_TABLE_CELLS sets B = cells // qn^2 and MAX_TRACE_ROWS the stride, so
    small values put chunk edges and kept-row strides inside short runs.
    """

    @given(
        seed=st.integers(0, 2**32 - 1), qn=st.integers(1, 5), B=st.integers(3, 8),
        extra=st.sampled_from([-1, 0, 1, None]), max_rows=st.integers(1, 6),
    )
    @settings(max_examples=60, deadline=None)
    def test_bounded_horizons_around_chunk_length(self, seed, qn, B, extra, max_rows):
        # horizons of B-1, B, B+1 and 2B+1 states
        points = 2 * B + 1 if extra is None else B + extra
        rng = np.random.default_rng(seed)
        cl = scaled_rotation_loop(rng, qn, rng.uniform(0.9, 1.0))
        x0 = rng.standard_normal(qn)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simulation, "POWER_TABLE_CELLS", B * qn * qn)
            mp.setattr(simulation, "MAX_TRACE_ROWS", max_rows)
            trace = run_dt(cl, x0, points - 1)
        states, k = reference_run(cl.system_matrix, x0, points)
        assert k is None and trace.bounded
        idx = kept_indices(points, max_rows)
        assert np.array_equal(trace.times, np.array(idx, dtype=float))
        assert np.array_equal(trace.states[0], x0)
        assert row_deviation(trace.states, states[idx]) <= TRACE_RTOL

    @given(
        seed=st.integers(0, 2**32 - 1), qn=st.integers(1, 5), B=st.integers(3, 8),
        chunks=st.integers(0, 3), row=st.sampled_from(["first", "middle", "last"]),
        after=st.integers(0, 10), max_rows=st.integers(1, 6),
    )
    # state k-1 is not on the stride, so it is kept on its own: from the
    # chunk (k = 5) and from the state the chunk started at (k = 10)
    @example(seed=0, qn=2, B=3, chunks=1, row="middle", after=0, max_rows=2)
    @example(seed=0, qn=2, B=3, chunks=3, row="first", after=0, max_rows=6)
    @settings(max_examples=60, deadline=None)
    def test_crossing_on_any_row_of_a_chunk(
        self, seed, qn, B, chunks, row, after, max_rows
    ):
        # state k sits on row (k - 1) % B of its chunk
        k = chunks * B + {"first": 0, "middle": B // 2, "last": B - 1}[row] + 1
        rng = np.random.default_rng(seed)
        # ||x_k|| / ||x_0|| = 10^(8k / (k - 1/2)): the cap 1e8 is first passed at k
        cl = scaled_rotation_loop(rng, qn, 10.0 ** (8.0 / (k - 0.5)))
        x0 = rng.standard_normal(qn)
        points = k + 1 + after
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simulation, "POWER_TABLE_CELLS", B * qn * qn)
            mp.setattr(simulation, "MAX_TRACE_ROWS", max_rows)
            trace = run_dt(cl, x0, points - 1)
        states, k_ref = reference_run(cl.system_matrix, x0, points)
        assert k_ref == k and not trace.bounded
        # the rows the stride of k points keeps among states 0..k-1
        idx = kept_indices(k, max_rows)
        assert np.array_equal(trace.times, np.array(idx, dtype=float))
        assert row_deviation(trace.states, states[idx]) <= TRACE_RTOL

    @pytest.mark.parametrize("x0", [[0.0, 1.0], [1.0, 1.0]])
    def test_overflowing_powers_stay_out_of_the_table(self, x0):
        # 3^647 overflows, so [R; ...; R^B] at B = 2^16 / 4 would hold inf, and
        # inf * 0 = nan would end a run that never leaves the stable axis
        spec = ArraySpec(q=1, n=2, A=np.diag([3.0, 0.9]), C={}, time_domain="discrete")
        cl = closed_loop(spec, {})
        x0 = np.array(x0)
        K = 1000
        trace = run_dt(cl, x0, K)
        states, k = reference_run(cl.system_matrix, x0, K + 1)
        assert trace.bounded == (k is None)
        idx = kept_indices(K + 1 if k is None else k)
        assert np.array_equal(trace.times, np.array(idx, dtype=float))
        assert row_deviation(trace.states, states[idx]) <= TRACE_RTOL


class TestOneProductPerStep:
    """At B = 1, each state is R @ (the state before), bit for bit.

    POWER_TABLE_CELLS = P * qn keeps B = 1 (P < 2 qn) and makes blocks of P
    products, and MAX_TRACE_ROWS sets the stride, so block edges and
    kept-row strides fall inside short runs.
    """

    @staticmethod
    def run(cl, x0, steps, P, max_rows):
        qn = len(x0)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simulation, "POWER_TABLE_CELLS", P * qn)
            mp.setattr(simulation, "MAX_TRACE_ROWS", max_rows)
            assert len(simulation._power_table(cl.system_matrix)) == qn
            return run_dt(cl, x0, steps)

    @given(
        seed=st.integers(0, 2**32 - 1), qn=st.integers(3, 6), P=st.integers(2, 5),
        blocks=st.integers(1, 3), extra=st.sampled_from([-1, 0, 1]),
        max_rows=st.integers(1, 6),
    )
    @settings(max_examples=60, deadline=None)
    def test_bounded_runs(self, seed, qn, P, blocks, extra, max_rows):
        steps = blocks * P + extra  # runs ending just before, on and after a block edge
        rng = np.random.default_rng(seed)
        cl = scaled_rotation_loop(rng, qn, rng.uniform(0.9, 1.0))
        x0 = rng.standard_normal(qn)
        trace = self.run(cl, x0, steps, P, max_rows)
        states, k = reference_run(cl.system_matrix, x0, steps + 1)
        assert k is None and trace.bounded
        idx = kept_indices(steps + 1, max_rows)
        assert np.array_equal(trace.times, np.array(idx, dtype=float))
        assert np.array_equal(trace.states, states[idx])

    def check_crossing(self, seed, qn, P, k, after, max_rows):
        rng = np.random.default_rng(seed)
        # ||x_k|| / ||x_0|| = 10^(8k / (k - 1/2)): the cap 1e8 is first passed at k
        cl = scaled_rotation_loop(rng, qn, 10.0 ** (8.0 / (k - 0.5)))
        x0 = rng.standard_normal(qn)
        steps = k + after
        trace = self.run(cl, x0, steps, P, max_rows)
        states, k_ref = reference_run(cl.system_matrix, x0, steps + 1)
        assert k_ref == k and not trace.bounded
        idx = kept_indices(k, max_rows)
        assert np.array_equal(trace.times, np.array(idx, dtype=float))
        assert np.array_equal(trace.states, states[idx])

    @given(
        seed=st.integers(0, 2**32 - 1), qn=st.integers(3, 6), P=st.integers(2, 5),
        blocks=st.integers(0, 3), product=st.sampled_from(["first", "middle", "last"]),
        after=st.integers(0, 12), max_rows=st.integers(1, 6),
    )
    # k = 5 with a stride of 3 for the run and for the states before the
    # crossing: state 4 is kept on its own, from inside its block (P = 3) and
    # as the state the block starts from (P = 2)
    @example(seed=0, qn=3, P=3, blocks=1, product="middle", after=0, max_rows=2)
    @example(seed=0, qn=3, P=2, blocks=2, product="first", after=0, max_rows=2)
    @example(seed=1, qn=4, P=4, blocks=2, product="last", after=12, max_rows=3)
    @example(seed=2, qn=5, P=2, blocks=0, product="first", after=12, max_rows=1)
    @settings(max_examples=60, deadline=None)
    def test_crossing_on_any_product_of_a_block(
        self, seed, qn, P, blocks, product, after, max_rows
    ):
        # state k is product (k - 1) % P of its block
        k = blocks * P + {"first": 0, "middle": P // 2, "last": P - 1}[product] + 1
        self.check_crossing(seed, qn, P, k, after, max_rows)

    def test_crossing_steps_again_at_its_own_stride(self, monkeypatch):
        # k = 5 is the middle product of the second block of 3.  The stride of
        # 16 states is 8 and that of the 5 before the crossing 3, so the run is
        # stepped again, to keep states 0 and 3 and then state 4
        calls = []
        step = simulation._step
        monkeypatch.setattr(simulation, "_step", lambda *a: calls.append(a[2]) or step(*a))
        self.check_crossing(seed=0, qn=3, P=3, k=5, after=10, max_rows=2)
        assert calls == [16, 5]


class TestVerdicts:
    def test_counterexample_grows(self, rng):
        spec = builtin_example("counterexample_asym").spec
        cl = closed_loop(spec, natural_gains(spec))
        x0 = rng.standard_normal(6)
        try:
            trace = simulate_ct(cl, x0, T=5.0, h=1e-3)
        except Diverged as e:
            trace = e.trace
        assert trace.sync_error[-1] / trace.sync_error[0] >= 10.0


class TestRhoSweep:
    def test_decoupled_alpha_zero(self):
        ex = builtin_example("chain5")
        rho0 = rho_sweep(ex.spec, ex.P, [0.0])[0][1]
        assert rho0 == pytest.approx(0.9678, abs=1e-3)

    def test_complete_graph_stabilizes(self, rng):
        spec = random_complete_cl_spec(rng, q=3, n=2)
        cert = find_common_P(spec)
        (_, rho) = rho_sweep(spec, cert.P, [1.0])[0]
        assert rho < 0.0
        gs = gains_theorem1(spec, cert.P, cert, alpha=1.0)
        cl = closed_loop(spec, gs)
        h = min(1e-3, 1.0 / np.linalg.norm(cl.system_matrix, 2))
        trace = simulate_ct(cl, rng.standard_normal(6), T=3000 * h, h=h)
        # simulation confirms decay of the disagreement
        assert trace.sync_error[-1] < trace.sync_error[0]

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_rho_is_off_sync_abscissa(self, name):
        ex = builtin_example(name)
        P = sweep_P(ex)
        for alpha, rho in rho_sweep(ex.spec, P, [0.1, 1.0, 10.0]):
            psi = closed_loop(ex.spec, sweep_gains(ex.spec, P, alpha)).system_matrix
            want = off_sync_eigenvalues(psi, ex.spec.q, ex.spec.n).real.max()
            assert abs(rho - want) <= RHO_TOL * max(1.0, np.linalg.norm(psi, 2))

    def test_single_agent_has_no_off_sync_modes(self):
        spec = ArraySpec(q=1, n=2, A=np.diag([0.5, -1.0]), C={})
        assert rho_sweep(spec, np.eye(2), [1.0, 2.0]) == [(1.0, -np.inf), (2.0, -np.inf)]

    @pytest.mark.parametrize("alphas", [[1e303], [0.1, 1e152, 1e305]])
    def test_overflowing_quotient_is_refused_without_a_warning(self, alphas):
        ex = builtin_example("mass_spring_demo")
        P = sweep_P(ex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match=r"at alpha = 1e\+30[35]$"):
                rho_sweep(ex.spec, P, alphas)

    def test_ordering_follows_input(self):
        ex = builtin_example("chain5")
        alphas = [5.0, 0.5, 2.0]
        out = rho_sweep(ex.spec, ex.P, alphas)
        assert [a for a, _ in out] == alphas


class TestSyncInvariance:
    def test_arbitrary_gains_preserve_sync_subspace(self, rng):
        # coupling vanishes identically on 1 (x) v; keep the horizon short
        # enough that unstable transverse modes cannot amplify roundoff
        for seed in range(5):
            local = np.random.default_rng(seed)
            spec = random_symmetric_spec(local, q=3, n=2)
            gmap = {
                e: 0.5 * local.standard_normal((2, C.shape[0]))
                for e, C in spec.C.items()
            }
            cl = closed_loop(spec, gmap)
            v = local.standard_normal(2)
            trace = simulate_ct(cl, np.tile(v, 3), T=2.0, h=1e-3)
            assert np.max(trace.sync_error) <= 1e-8 * np.linalg.norm(v)


class TestTheorem2EndToEnd:
    def test_neutral_ct_specs_synchronize(self):
        for seed in (11, 23, 37):
            rng = np.random.default_rng(seed)
            q = int(rng.integers(3, 6))
            n = int(rng.integers(2, 5))
            spec = random_symmetric_spec(rng, q=q, n=n)
            gs = gains_ct_neutral(spec)
            cl = closed_loop(spec, gs)
            h = min(5e-3, 1.5 / np.linalg.norm(cl.system_matrix, 2))
            x0 = rng.standard_normal(q * n)
            trace = simulate_ct(cl, x0, T=200.0, h=h)
            assert trace.bounded
            ratio = trace.sync_error[-1] / max(trace.sync_error[0], 1e-12)
            assert ratio <= 1e-4, f"seed {seed}: ratio {ratio:.2e}"


class TestTheorem4EndToEnd:
    def test_neutral_dt_specs_synchronize(self):
        for seed in (5, 17, 29):
            rng = np.random.default_rng(seed)
            q = int(rng.integers(3, 6))
            n = int(rng.integers(2, 5))
            spec = random_symmetric_spec(rng, q=q, n=n, domain="discrete")
            gs = gains_dt_neutral(spec)
            cl = closed_loop(spec, gs)  # epsilon defaults to eps_bar
            x0 = rng.standard_normal(q * n)
            trace = simulate_dt(cl, x0, K=5000)
            assert trace.bounded
            ratio = trace.sync_error[-1] / max(trace.sync_error[0], 1e-12)
            assert ratio <= 1e-4, f"seed {seed}: ratio {ratio:.2e}"


class TestLaSalleLimit:
    def test_nominal_ct_limit_in_sync_set(self, rng):
        # skew drift + symmetric PSD coupling: the invariant limit set is
        # exactly the synchronization subspace
        spec = random_symmetric_spec(rng, q=3, n=2, A=None)
        split = neutral_split(spec.A, "continuous")
        nominal = ArraySpec(
            q=3, n=split.n1,
            A=split.marginal_block,
            C={e: C @ split.U for e, C in spec.C.items()},
        )
        cl = closed_loop(nominal, natural_gains(nominal))
        x0 = rng.standard_normal(3 * split.n1)
        x0 = x0 / np.linalg.norm(x0)
        trace = simulate_ct(cl, x0, T=400.0, h=5e-3)
        L = laplacian_from_outputs(nominal)
        x = trace.states[-1]
        assert x @ L @ x <= 1e-8
        assert trace.sync_error[-1] <= 1e-4


class TestAsymptoticAnchor:
    def test_unforced_oblique_projection(self, rng):
        from conftest import well_conditioned_transform

        n1, n2 = 2, 2
        X = rng.standard_normal((n1, n1))
        blk = sla.block_diag(X - X.T, np.diag([-0.7, -1.3]))
        T = well_conditioned_transform(rng, 4)
        A = T @ blk @ np.linalg.inv(T)
        x0 = rng.standard_normal(4)
        v = asymptotic_anchor(A, x0, [0.0, 1.0], np.zeros((2, 4)))
        # oracle from the known constructive transform
        z = np.linalg.solve(T, x0)
        expected = T[:, :n1] @ z[:n1]
        assert np.allclose(v, expected, atol=1e-8)

    def test_stable_matrix_anchors_at_zero(self):
        v = asymptotic_anchor(np.diag([-1.0, -2.0]), [3.0, 4.0], [0.0, 1.0], np.zeros((2, 2)))
        assert np.array_equal(v, np.zeros(2))

    def test_theorem2_pipeline_anchor(self, rng):
        # mass-spring demo drift extended by a stable mode; the xi-projection
        # of the closed loop converges to exp(([I x S] - L) t) v
        built = build_mass_spring(
            masses=(1.0, 2.0),
            springs=(1.0, 1.5, 0.5),
            damping={(0, 1): (0.8, 0.5), (1, 2): (0.6, 1.0)},
            q=3,
        )
        S_ms = built.transformed.spec.A  # 4x4 skew
        A = sla.block_diag(S_ms, -0.8)
        cmap = {}
        for e, C in built.transformed.spec.C.items():
            cmap[e] = np.hstack([C, np.zeros((C.shape[0], 1))])
        spec = ArraySpec(q=3, n=5, A=A, C=cmap)
        gs = gains_ct_neutral(spec)
        split = gs.certificate
        cl = closed_loop(spec, gs)
        x0 = rng.standard_normal(15)
        T_end, h = 60.0, 2e-3
        trace = simulate_ct(cl, x0, T=T_end, h=h)

        n1 = split.n1
        U_dag_full = np.kron(np.eye(3), split.U_dag)
        W_full = np.kron(np.eye(3), split.W)
        W_dag_full = np.kron(np.eye(3), split.W_dag)
        xi = trace.states @ U_dag_full.T
        eta = trace.states @ W_dag_full.T

        # nominal dynamics and the forcing it sees from the stable modes
        H = {e: C @ split.U for e, C in spec.C.items()}
        lw_blocks = {e: M.T @ M for e, M in H.items()}
        from matsync import build_laplacian

        L = build_laplacian(lw_blocks, q=3)
        A_nom = np.kron(np.eye(3), split.marginal_block) - L
        # w_i = sum_j H_ij' C_ij W (eta_j - eta_i), assembled per sample
        w = np.zeros((len(trace.times), 3 * n1))
        eta_blocks = eta.reshape(len(trace.times), 3, split.n2)
        for (i, j), C in spec.C.items():
            coupling = H[(i, j)].T @ C @ split.W
            w[:, i * n1:(i + 1) * n1] += (
                eta_blocks[:, j] - eta_blocks[:, i]
            ) @ coupling.T
        v = asymptotic_anchor(A_nom, xi[0], trace.times, w)
        nominal_end = sla.expm(A_nom * T_end) @ v
        err = np.linalg.norm(xi[-1] - nominal_end)
        assert err <= 1e-4 * np.linalg.norm(xi[0])


def test_identity_added_as_eye_plus_rounds_it():
    # 0.0 + -0.0 is 0.0, and M[i, i] + 1.0 is 1.0 + M[i, i]
    M = np.array([[-0.0, -0.0, 3.0], [-0.0, -1.0, -0.0], [0.5, -0.0, -2.5e-17]])
    got = M.copy()
    simulation._add_identity(got)
    assert_same_bits(got, np.eye(3) + M)


def rk4_horner_from_identity(psi, h):
    """The Horner form of the RK4 polynomial with its first product against I."""
    n = psi.shape[0]
    R = np.eye(n)
    for k in (4, 3, 2, 1):
        R = np.eye(n) + (h * psi / k) @ R
    return R


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_rk4_step_matrix_equals_horner_from_identity(name, rng):
    spec = builtin_example(name).spec
    psis = [closed_loop(spec, natural_gains(spec)).system_matrix]
    psis += [rng.standard_normal((m, m)) for m in (1, 2, 5, 12)]
    for psi in psis:
        for h in (1e-3, 0.1, 2.0):
            assert_same_bits(rk4_step_matrix(psi, h), rk4_horner_from_identity(psi, h))


# np.kron's broadcast product, eye(q) and per-edge blocks of n x n
ASSEMBLY_SLACK_BYTES = 2**18


@pytest.mark.parametrize("domain", ["continuous", "discrete"])
def test_closed_loop_and_step_matrix_make_no_extra_square_temporary(domain, rng):
    # qn = 240: Psi is one qn x qn array, and R is built in four (hPsi,
    # hPsi / k and the two R's of Horner's rule)
    q, n = 60, 4
    spec = random_symmetric_spec(rng, q, n, domain, A=rng.standard_normal((n, n)))
    gmap = {e: rng.standard_normal((n, C.shape[0])) for e, C in spec.C.items()}
    square = 8 * (q * n) ** 2
    tracemalloc.start()
    try:
        psi = closed_loop(spec, gmap, epsilon=0.3).system_matrix
        _, cl_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        start, _ = tracemalloc.get_traced_memory()
        rk4_step_matrix(psi, 0.01)
        _, rk4_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cl_peak <= square + ASSEMBLY_SLACK_BYTES
    assert rk4_peak - start <= 4 * square + 2**16


def test_rk4_step_matrix_is_degree_four_taylor():
    import math

    A = np.array([[0.0, 1.0], [-2.0, -0.3]])
    h = 0.1
    R = rk4_step_matrix(A, h)
    expected = sum(
        np.linalg.matrix_power(h * A, k) / math.factorial(k) for k in range(5)
    )
    assert np.allclose(R, expected, atol=1e-14)


def graph_loop(pairs, q, n, seed):
    """A closed loop on the undirected pairs with natural gains: Psi = I (x) A - L_W,
    A skew and L_W PSD, so the exact flow never grows."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, n))
    cmap = {}
    for i, j in pairs:
        cmap[(i, j)] = cmap[(j, i)] = rng.standard_normal((n, n)) / n
    spec = ArraySpec(q=q, n=n, A=X - X.T, C=cmap)
    return closed_loop(spec, natural_gains(spec))


def graph_pairs(kind, q, seed=0):
    if kind == "tree":
        return connected_edge_pairs(np.random.default_rng(seed), q, extra=0)
    if kind == "star":
        return [(0, i) for i in range(1, q)]
    if kind == "complete":
        return [(i, j) for i in range(q) for j in range(i + 1, q)]
    return [(i, i + 1) for i in range(q - 1)] + ([(q - 1, 0)] if kind == "ring" else [])


def spy_step_matrix(mp):
    """(Psi as simulate_ct hands it to rk4_step_matrix, the R it gets back), per call."""
    seen = []

    def spy(psi, h, f=rk4_step_matrix):
        seen.append((psi, f(psi, h)))
        return seen[-1][1]

    mp.setattr(simulation, "rk4_step_matrix", spy)
    return seen


def rk4_rounding_bound(psi, h):
    """8 (m + 4) u (1 + ||hPsi||_1)^4, m the most nonzeros in a row of Psi.

    To first order (Higham, Accuracy and Stability, 2002, sec. 3.5), each
    Horner step I + (hPsi/k) R rounds within (m + 4) u |I + |hPsi/k| |R||: a
    product sums at most m nonzero terms, whatever order a dense or a CSR
    kernel takes, hPsi/k is rounded twice and the identity once.  Four steps
    with || |R| ||_1 <= (1 + ||hPsi||_1)^4 put each branch within half the
    bound of the exact R in the 1-norm, which bounds every entry.
    """
    m = int(np.diff(psi.indptr).max())
    u = np.finfo(float).eps / 2
    return 8 * (m + 4) * u * (1 + h * sla.norm(psi.toarray(), 1)) ** 4


# the smallest q whose pattern the rule sends to CSR: 54 for chains and 55
# for rings; random trees cross over between q ~ 70 and 90, so they are
# drawn from q = 100, where every one of 1000 seeds went to CSR
CSR_FROM_Q = {"chain": 54, "ring": 55, "tree": 100}


@settings(max_examples=12, deadline=None)
@given(
    kind=st.sampled_from(sorted(CSR_FROM_Q)),
    size=st.floats(0.0, 1.0),
    n=st.integers(1, 4),
    h=st.sampled_from([1e-3, 1e-2, 0.1]),
    seed=st.integers(0, 2**32 - 1),
)
@example(kind="chain", size=0.0, n=4, h=0.1, seed=0)
def test_csr_step_matrix_matches_dense_within_rounding(kind, size, n, h, seed):
    q = CSR_FROM_Q[kind] + round(size * (150 - CSR_FROM_Q[kind]))
    cl = graph_loop(graph_pairs(kind, q, seed), q, n, seed)
    psi = csr_array(cl.system_matrix)
    R, dense = rk4_step_matrix(psi, h), rk4_step_matrix(cl.system_matrix, h)
    assert type(R) is np.ndarray and R.dtype == np.float64 and R.shape == dense.shape
    assert np.abs(R - dense).max() <= rk4_rounding_bound(psi, h)
    x0 = np.random.default_rng(seed).standard_normal(q * n)
    with pytest.MonkeyPatch.context() as mp:
        seen = spy_step_matrix(mp)
        trace = simulate_ct(cl, x0, T=10 * h, h=h)
    assert [type(psi) for psi, _ in seen] == [csr_array]
    want = simulation._iterate(cl, dense, x0, 11, h)
    assert np.array_equal(trace.times, want.times)
    assert row_deviation(trace.states, want.states) <= TRACE_RTOL
    norms = np.linalg.norm(want.states, axis=1)
    assert (np.abs(trace.sync_error - want.sync_error) <= TRACE_RTOL * norms).all()
    assert (np.abs(trace.disagreement - want.disagreement) <= TRACE_RTOL * norms**2).all()


@pytest.mark.parametrize("kind, q, csr", [
    ("star", 100, False), ("complete", 30, False), ("chain", 100, True), ("tree", 100, True),
    # the crossovers of CSR_FROM_Q; the golden case mass_spring_chain54_sparse_step
    # is a q = 54 chain
    ("chain", 53, False), ("chain", 54, True), ("ring", 54, False), ("ring", 55, True),
])
def test_step_matrix_branch_follows_the_operation_count(kind, q, csr):
    cl = graph_loop(graph_pairs(kind, q), q, 2, seed=q)
    with pytest.MonkeyPatch.context() as mp:
        seen = spy_step_matrix(mp)
        simulate_ct(cl, np.ones(2 * q), T=0.01, h=0.01)
    [(psi, R)] = seen
    assert isinstance(psi, csr_array) == csr
    if not csr:
        assert_same_bits(R, rk4_horner_from_identity(cl.system_matrix, 0.01))


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_bundled_examples_keep_the_dense_step_matrix(name):
    spec = builtin_example(name).spec
    cl = closed_loop(spec, natural_gains(spec))
    with pytest.MonkeyPatch.context() as mp:
        seen = spy_step_matrix(mp)
        simulate_ct(cl, np.ones(spec.q * spec.n), T=0.1, h=0.1)
    [(psi, R)] = seen
    assert psi is cl.system_matrix
    assert_same_bits(R, rk4_horner_from_identity(psi, 0.1))


def test_csr_step_matrix_peaks_below_two_squares():
    # the CSR products of a q = 100 chain hold a few hundred kB; R comes back
    # as one dense qn x qn array
    q, n = 100, 4
    psi = graph_loop(graph_pairs("chain", q), q, n, seed=1).system_matrix
    square = 8 * (q * n) ** 2
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        rk4_step_matrix(csr_array(psi), 0.01)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - start <= 2 * square


def test_dense_step_matrix_imports_no_scipy_sparse():
    # the import costs ~18 ms per process, so only the CSR branch pays it
    code = (
        "import sys, numpy as np\n"
        "from matsync import builtin_example, closed_loop, simulate_ct\n"
        "spec = builtin_example('mass_spring_demo').spec\n"
        "cl = closed_loop(spec, {e: C.T for e, C in spec.C.items()})\n"
        "simulate_ct(cl, np.ones(spec.q * spec.n), T=0.1, h=0.1)\n"
        "assert 'scipy.sparse' not in sys.modules, 'imported'\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    subprocess.run([sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": src})
