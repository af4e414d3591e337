import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    random_complete_cl_spec,
    random_neutrally_stable,
    random_symmetric_spec,
    random_spd,
)
import matsync.gains as gains_module
from matsync.spectral import detectable_edges
from matsync import (
    ArraySpec,
    Infeasible,
    NotConnected,
    NotDetectable,
    NotSymmetric,
    SingularP,
    build_graph,
    build_laplacian,
    builtin_example,
    closed_loop,
    condition14,
    eps_bar,
    find_common_P,
    gains_ct_neutral,
    gains_dt_neutral,
    gains_theorem1,
    laplacian_from_outputs,
    normalized_laplacian,
    simulate_ct,
    verify_cl_detectability,
)


class TestVerifyCLDetectability:
    def test_chain5_printed_P(self):
        ex = builtin_example("chain5")
        cert = verify_cl_detectability(ex.spec, ex.P)
        assert cert.feasible
        # worst-edge margin quoted to 4 decimals in the source matrices
        assert -cert.eps <= -0.0047 + 1e-3
        assert cert.sigma > 0.0

    def test_lyapunov_equation_case(self, rng):
        A = np.array([[-1.0, 0.4], [0.0, -2.0]])
        P = sla.solve_continuous_lyapunov(A.T, -np.eye(2))
        C = rng.standard_normal((1, 2))
        spec = ArraySpec(q=2, n=2, A=A, C={(0, 1): C, (1, 0): C})
        cert = verify_cl_detectability(spec, P)
        assert cert.feasible
        assert cert.eps >= 1.0 - 1e-9  # C'C + I >= I
        assert cert.sigma == pytest.approx(-1.0, abs=1e-12)

    def test_scalar_infeasible(self):
        spec = ArraySpec(q=2, n=1, A=[[1.0]], C={(0, 1): [[1.0]], (1, 0): [[1.0]]})
        cert = verify_cl_detectability(spec, np.eye(1))
        assert not cert.feasible  # 2 >= 1

    def test_no_edges_vacuous(self):
        spec = ArraySpec(q=2, n=1, A=[[1.0]], C={})
        cert = verify_cl_detectability(spec, np.eye(1))
        assert cert.eps == np.inf


class TestFindCommonP:
    def test_chain5_search_feasible_and_reverified(self):
        spec = builtin_example("chain5").spec
        cert = find_common_P(spec)
        assert cert.feasible
        recheck = verify_cl_detectability(spec, cert.P)
        assert recheck.feasible

    def test_hurwitz_warm_start(self, rng):
        A = np.array([[-0.5, 1.0], [0.0, -1.5]])
        C = rng.standard_normal((1, 2))
        spec = ArraySpec(q=2, n=2, A=A, C={(0, 1): C, (1, 0): C})
        cert = find_common_P(spec)
        assert cert.feasible

    def test_scalar_unstable_interval(self):
        # 2p < 1 requires p in (0, 0.5)
        spec = ArraySpec(q=2, n=1, A=[[1.0]], C={(0, 1): [[1.0]], (1, 0): [[1.0]]})
        cert = find_common_P(spec)
        p = cert.P[0, 0]
        assert 0.0 < p < 0.5
        assert cert.feasible

    def test_undetectable_mode_infeasible(self):
        # unstable e2 direction invisible to the only output: 2 P22 < 0 impossible
        C = np.array([[1.0, 0.0]])
        spec = ArraySpec(
            q=2, n=2, A=np.diag([1.0, 1.0]), C={(0, 1): C, (1, 0): C}
        )
        with pytest.raises(Infeasible) as exc:
            find_common_P(spec)
        assert exc.value.certificate is not None
        assert not exc.value.certificate.feasible

    def test_deterministic(self):
        spec = builtin_example("chain5").spec
        P1 = find_common_P(spec).P
        P2 = find_common_P(spec).P
        assert np.array_equal(P1, P2)


class TestGainsTheorem1:
    def test_scalar_formula(self):
        spec = ArraySpec(q=2, n=1, A=[[0.0]], C={(0, 1): [[3.0]], (1, 0): [[3.0]]})
        gs = gains_theorem1(spec, [[2.0]], verify_cl_detectability(spec, [[2.0]]), alpha=1.0)
        assert np.allclose(gs.gains[(0, 1)], [[1.5]])

    def test_alpha_scaling_is_exact(self):
        ex = builtin_example("chain5")
        cert = verify_cl_detectability(ex.spec, ex.P)
        g1 = gains_theorem1(ex.spec, ex.P, cert, alpha=1.0)
        g2 = gains_theorem1(ex.spec, ex.P, cert, alpha=2.0)
        for e in g1.gains:
            assert np.array_equal(2.0 * g1.gains[e], g2.gains[e])

    def test_small_alpha_warns(self):
        ex = builtin_example("chain5")
        with pytest.warns(UserWarning, match="below the 1/"):
            gains_theorem1(ex.spec, ex.P, verify_cl_detectability(ex.spec, ex.P), alpha=0.01)

    def test_singular_P_rejected(self):
        ex = builtin_example("chain5")
        with pytest.raises(SingularP):
            P = np.zeros((3, 3))
            gains_theorem1(ex.spec, P, verify_cl_detectability(ex.spec, P), alpha=1.0)

    def test_certificate_of_another_P_rejected(self):
        ex = builtin_example("chain5")
        with pytest.raises(ValueError, match="not of this P"):
            gains_theorem1(ex.spec, ex.P, verify_cl_detectability(ex.spec, 2.0 * ex.P))

    def test_condition14_attached(self):
        ex = builtin_example("chain5")
        gs = gains_theorem1(ex.spec, ex.P, verify_cl_detectability(ex.spec, ex.P), alpha=1.0)
        cert, report = gs.certificate
        assert cert.feasible
        assert not report.holds  # chain connectivity is too weak


class TestCondition14:
    def test_complete_graph_automatic(self):
        ex = builtin_example("chain5")
        cert = verify_cl_detectability(ex.spec, ex.P)
        report = condition14(cert, 1.0)
        assert report.holds
        assert report.delta == pytest.approx(cert.eps)

    def test_arithmetic(self):
        from matsync import CLDetectabilityCertificate

        cert = CLDetectabilityCertificate(
            P=np.eye(1), eps=1.0, sigma=2.0, feasible=True, strict_tol=0.0
        )
        report = condition14(cert, 0.5)
        assert report.delta == pytest.approx(-1.0)
        assert not report.holds

    def test_chain5_fails(self):
        ex = builtin_example("chain5")
        cert = verify_cl_detectability(ex.spec, ex.P)
        lam2 = normalized_laplacian(build_graph(ex.spec)).lambda2
        assert not condition14(cert, lam2).holds

    def test_rejects_bad_lambda2(self):
        ex = builtin_example("chain5")
        cert = verify_cl_detectability(ex.spec, ex.P)
        with pytest.raises(ValueError):
            condition14(cert, 0.0)


class TestGainsNeutralCT:
    def test_full_marginal_identity_outputs(self):
        spec = ArraySpec(
            q=2,
            n=2,
            A=[[0.0, 1.0], [-1.0, 0.0]],
            C={(0, 1): np.eye(2), (1, 0): np.eye(2)},
        )
        gs = gains_ct_neutral(spec)
        # U U^T = I for a normal drift, so G = C^T
        assert np.allclose(gs.gains[(0, 1)], np.eye(2), atol=1e-10)
        assert gs.recipe == "alg1_ct"

    def test_stable_drift_zero_gains(self, rng):
        C = rng.standard_normal((2, 2))
        spec = ArraySpec(
            q=2, n=2, A=np.diag([-1.0, -2.0]), C={(0, 1): C, (1, 0): C}
        )
        gs = gains_ct_neutral(spec)
        assert all(np.array_equal(G, np.zeros((2, 2))) for G in gs.gains.values())
        assert gs.certificate.n1 == 0

    def test_hypothesis_failures(self, rng):
        asym = builtin_example("counterexample_asym").spec
        with pytest.raises(NotSymmetric):
            gains_ct_neutral(asym)
        # forcing skips the symmetric check and yields natural unit gains
        gs = gains_ct_neutral(asym, check=False)
        for e, C in asym.C.items():
            assert np.allclose(gs.gains[e], C.T, atol=1e-10)

        C = rng.standard_normal((1, 2))
        disconnected = ArraySpec(
            q=3, n=2, A=[[0.0, 1.0], [-1.0, 0.0]], C={(0, 1): C, (1, 0): C}
        )
        with pytest.raises(NotConnected):
            gains_ct_neutral(disconnected)

        undetectable = ArraySpec(
            q=2,
            n=2,
            A=np.zeros((2, 2)),
            C={(0, 1): [[1.0, 0.0]], (1, 0): [[1.0, 0.0]]},
        )
        with pytest.raises(NotDetectable):
            gains_ct_neutral(undetectable)


class TestGainsNeutralDT:
    def test_rotation_pair(self):
        th = 0.7
        R = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        spec = ArraySpec(
            q=2,
            n=2,
            A=R,
            C={(0, 1): np.eye(2), (1, 0): np.eye(2)},
            time_domain="discrete",
        )
        gs = gains_dt_neutral(spec)
        assert np.allclose(gs.gains[(0, 1)], R, atol=1e-10)
        assert gs.eps_bar == pytest.approx(0.5, abs=1e-10)

    def test_schur_stable_zero_gains(self, rng):
        C = rng.standard_normal((1, 2))
        spec = ArraySpec(
            q=2,
            n=2,
            A=0.5 * np.eye(2),
            C={(0, 1): C, (1, 0): C},
            time_domain="discrete",
        )
        gs = gains_dt_neutral(spec)
        assert all(np.array_equal(G, np.zeros((2, 1))) for G in gs.gains.values())
        assert gs.eps_bar == np.inf


class TestEpsBar:
    def test_two_agent_identity_weights(self):
        lw = build_laplacian({(0, 1): np.eye(2), (1, 0): np.eye(2)}, q=2)
        assert np.linalg.eigvalsh(lw.L)[-1] == pytest.approx(2.0)
        assert eps_bar(lw) == pytest.approx(0.5)

    def test_zero_laplacian_sentinel(self):
        lw = build_laplacian({(0, 1): np.zeros((2, 2))}, q=2)
        assert eps_bar(lw) == np.inf

    def test_step_inequality_random(self, rng):
        for _ in range(10):
            spec = random_symmetric_spec(rng, q=int(rng.integers(2, 5)), n=3)
            lw = laplacian_from_outputs(spec)
            eb = eps_bar(lw)
            assert np.linalg.eigvalsh(lw.L - eb * lw.L @ lw.L)[0] >= -1e-9

    def test_asymmetric_rejected(self, rng):
        lw = build_laplacian({(0, 1): [[1.0]], (1, 0): [[3.0]]}, q=2)
        with pytest.raises(NotSymmetric):
            eps_bar(lw)


class TestProofProperties:
    def test_lyapunov_decrease_along_trajectories(self, rng):
        # with theorem-1 gains and the connectivity condition holding,
        # V = x'(J x P)x decays at least at rate delta * x'(Gamma x I)x
        spec = random_complete_cl_spec(rng, q=3, n=2)
        cert = find_common_P(spec)
        lam2 = normalized_laplacian(build_graph(spec)).lambda2
        report = condition14(cert, lam2)
        assert report.holds
        alpha = 1.0 / (2.0 * spec.q)
        gs = gains_theorem1(spec, cert.P, cert, alpha=alpha)
        cl = closed_loop(spec, gs)
        h = min(1e-3, 0.5 / np.linalg.norm(cl.system_matrix, 2))
        x0 = rng.standard_normal(spec.q * spec.n)
        trace = simulate_ct(cl, x0, T=2000 * h, h=h)

        JP = np.kron(
            np.eye(spec.q) - np.ones((spec.q, spec.q)) / spec.q, cert.P
        )
        GI = np.kron(cl.gamma, np.eye(spec.n))
        V = np.einsum("si,ij,sj->s", trace.states, JP, trace.states)
        g = np.einsum("si,ij,sj->s", trace.states, GI, trace.states)
        dV = np.diff(V) / h
        bound = -0.9 * report.delta * np.minimum(g[:-1], g[1:])
        assert np.all(V[1:] <= V[:-1] + 1e-12 * max(V[0], 1.0))
        assert np.all(dV <= bound + 1e-9 * max(V[0], 1.0))

    def test_norm_nonincreasing_nominal_ct(self, rng):
        # xdot = ([I x S] - L) x with skew S and symmetric PSD L
        spec = random_symmetric_spec(rng, q=3, n=3, domain="continuous")
        split_gains = {e: C.T for e, C in spec.C.items()}
        cl = closed_loop(
            ArraySpec(q=spec.q, n=spec.n, A=random_skew(rng, 3), C=spec.C),
            split_gains,
        )
        x0 = rng.standard_normal(9)
        trace = simulate_ct(cl, x0, T=10.0, h=1e-3)
        norms = np.linalg.norm(trace.states, axis=1)
        assert np.all(norms[1:] <= norms[:-1] * (1.0 + 1e-12) + 1e-12)

    def test_norm_constant_without_coupling(self, rng):
        S = random_skew(rng, 4)
        spec = ArraySpec(q=2, n=4, A=S, C={})
        cl = closed_loop(spec, {})
        x0 = rng.standard_normal(8)
        trace = simulate_ct(cl, x0, T=10.0, h=1e-3)
        norms = np.linalg.norm(trace.states, axis=1)
        assert np.max(np.abs(norms - norms[0])) <= 1e-6 * norms[0]

    def test_dt_contraction_up_to_eps_bar(self, rng):
        spec = random_symmetric_spec(rng, q=3, n=2, domain="discrete", A=None)
        # nominal system: orthogonal drift block of the split
        from matsync import neutral_split

        split = neutral_split(spec.A, "discrete")
        Q = split.marginal_block
        H = {e: C @ split.U for e, C in spec.C.items()}
        lw = build_laplacian({e: M.T @ M for e, M in H.items()}, q=spec.q)
        ebar = eps_bar(lw)
        for frac in (0.3, 1.0):
            eps = frac * ebar
            M = np.kron(np.eye(spec.q), Q) @ (np.eye(lw.L.shape[0]) - eps * lw.L)
            for _ in range(20):
                xi = rng.standard_normal(lw.L.shape[0])
                xi_next = M @ xi
                decrease = xi_next @ xi_next - xi @ xi
                assert decrease <= -eps * (xi @ lw.L @ xi) + 1e-9


def random_skew(rng, n):
    X = rng.standard_normal((n, n))
    return X - X.T


def test_find_common_P_output_reverified_independently(rng):
    for seed in range(5):
        local = np.random.default_rng(seed)
        spec = random_complete_cl_spec(local, q=int(local.integers(2, 5)), n=2)
        cert = find_common_P(spec)
        recheck = verify_cl_detectability(spec, cert.P)
        assert recheck.feasible
        assert recheck.eps == pytest.approx(cert.eps, rel=1e-12)


def test_verify_eigensolves_each_mirrored_edge_once(rng, monkeypatch):
    spec = random_complete_cl_spec(rng, q=5, n=3)
    edges = len(spec.edges)
    solved = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(
        np.linalg, "eigvalsh",
        lambda a: solved.append(a.shape[0] if a.ndim == 3 else 1) or eigvalsh(a),
    )
    verify_cl_detectability(spec, random_spd(rng, 3))
    assert sum(solved) == edges // 2 + 2


class _FirstViolation(Exception):
    pass


def _solver_calls(monkeypatch, run):
    """eigvalsh, eigh and svd calls made by run(), stopping find_common_P after
    its first evaluation of the violation."""
    calls = []
    with monkeypatch.context() as m:
        for name in ("eigvalsh", "eigh", "svd"):
            fn = getattr(np.linalg, name)
            m.setattr(np.linalg, name, lambda *a, _fn=fn, **k: calls.append(1) or _fn(*a, **k))
        first = gains_module._violation

        def stop(*args):
            first(*args)
            raise _FirstViolation

        m.setattr(gains_module, "_violation", stop)
        try:
            run()
        except _FirstViolation:
            pass
    return len(calls)


def test_edge_tests_make_one_solver_call_per_shape_group(rng, monkeypatch):
    # the same drift at q = 5 and q = 20 (10 and 190 distinct edge weights),
    # with a marginal pair for the PBH test to check
    A = random_neutrally_stable(rng, 4, n1=2)
    C = random_complete_cl_spec(rng, q=20, n=4).C
    small, big = (
        ArraySpec(q=q, n=4, A=A, C={(i, j): M for (i, j), M in C.items() if max(i, j) < q})
        for q in (5, 20)
    )
    P = random_spd(rng, 4)
    counts = {
        spec.q: [
            _solver_calls(monkeypatch, lambda: verify_cl_detectability(spec, P)),
            _solver_calls(monkeypatch, lambda: find_common_P(spec)),
            _solver_calls(monkeypatch, lambda: detectable_edges(spec, symmetric=True)),
        ]
        for spec in (small, big)
    }
    assert counts[5] == counts[20]


@given(
    seed=st.integers(0, 2**32 - 1), q=st.integers(2, 5), n=st.integers(1, 4),
    near=st.booleans(),
)
@settings(max_examples=80, deadline=None)
def test_certificate_equals_loop_over_all_ordered_edges(seed, q, n, near):
    # exact mirrors C_ji = C_ij, or near ones with each entry of C_ji an ulp off
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    cmap = {}
    for i in range(q):
        for j in range(i + 1, q):
            if rng.random() < 0.7:
                C = rng.standard_normal((int(rng.integers(1, n + 1)), n))
                cmap[(i, j)] = cmap[(j, i)] = C
                if near:
                    away = np.where(rng.random(C.shape) < 0.5, -np.inf, np.inf)
                    cmap[(j, i)] = np.nextafter(C, away)
    spec = ArraySpec(q=q, n=n, A=A, C=cmap)
    P = random_spd(rng, n)
    cert = verify_cl_detectability(spec, P)
    Ps = 0.5 * (P + P.T)
    X = A.T @ Ps + Ps @ A
    eps = min(
        (float(np.linalg.eigvalsh(C.T @ C - X)[0]) for C in cmap.values()), default=np.inf
    )
    assert cert.eps == eps
    assert cert.sigma == float(np.linalg.eigvalsh(X)[-1])
