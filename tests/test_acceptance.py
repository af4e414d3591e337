"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred to calibration.
"""

import time

import numpy as np
import pytest
import scipy.linalg as sla

from conftest import (
    connected_edge_pairs,
    random_complete_cl_spec,
    random_neutrally_stable,
    random_symmetric_spec,
)
from matsync import (
    ArraySpec,
    build_graph,
    build_laplacian,
    builtin_example,
    closed_loop,
    eps_bar,
    find_common_P,
    gains_ct_neutral,
    gains_dt_neutral,
    gains_theorem1,
    laplacian_from_outputs,
    neutral_split,
    normalized_laplacian,
    rho_sweep,
    simulate_ct,
    simulate_dt,
    verify_cl_detectability,
)


def test_criterion_1_asymmetric_counterexample_unstable():
    t0 = time.monotonic()
    spec = builtin_example("counterexample_asym").spec
    L = laplacian_from_outputs(spec)
    lam, vec = np.linalg.eig(-L)
    k = int(np.argmax(lam.real))
    assert lam[k].real == pytest.approx(4.0312, abs=1e-3)
    v = vec[:, k]
    proj = np.kron(np.ones((3, 3)) / 3.0, np.eye(2))
    residual = np.linalg.norm(v - proj @ v)
    assert residual >= 0.1 * np.linalg.norm(v)
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    print(
        f"\n[criterion 1] PASS: eig(-L) = {lam[k].real:.4f} (4.0312 +/- 1e-3), "
        f"eigenvector off the sync subspace (residual {residual:.3f}), {elapsed:.2f}s"
    )


def test_criterion_2_chain5_certificate():
    t0 = time.monotonic()
    ex = builtin_example("chain5")
    X = ex.spec.A.T @ ex.P + ex.P @ ex.spec.A
    worst = max(
        float(np.linalg.eigvalsh(X - C.T @ C)[-1])
        for (i, j), C in ex.spec.C.items()
    )
    assert worst <= -0.0047 + 1e-3
    abscissa = float(np.max(np.linalg.eigvals(ex.spec.A).real))
    assert abscissa == pytest.approx(0.9678, abs=1e-3)
    cert = verify_cl_detectability(ex.spec, ex.P)
    assert cert.feasible
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    print(
        f"\n[criterion 2] PASS: worst edge margin {worst:.4f} <= -0.0047 + 1e-3, "
        f"drift eigenvalue {abscissa:.4f}, {elapsed:.2f}s"
    )


def test_criterion_3_chain5_alpha_sweep():
    t0 = time.monotonic()
    ex = builtin_example("chain5")
    alphas = np.logspace(np.log10(0.1), np.log10(100.0), 50)
    results = rho_sweep(ex.spec, ex.P, alphas)
    rhos = np.array([r for _, r in results])
    assert len(rhos) == 50
    assert rhos.min() >= 0.0418 - 1e-3
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    print(
        f"\n[criterion 3] PASS: min rho = {rhos.min():.4f} >= 0.0418 - 1e-3 over "
        f"50 log-spaced alpha in [0.1, 100], {elapsed:.2f}s"
    )


def test_criterion_4_theorem1_complete_graphs():
    t0 = time.monotonic()
    worst = 0.0
    for trial in range(20):
        rng = np.random.default_rng(1000 + trial)
        q = int(rng.integers(2, 6))
        n = int(rng.integers(1, 4))
        spec = random_complete_cl_spec(rng, q, n)
        cert = find_common_P(spec)
        gs = gains_theorem1(spec, cert.P, cert, alpha=1.0 / (2.0 * q))
        _, report = gs.certificate
        assert report.holds  # complete graph: condition is automatic
        cl = closed_loop(spec, gs)
        h = min(5e-3, 1.5 / np.linalg.norm(cl.system_matrix, 2))
        trace = simulate_ct(cl, rng.standard_normal(q * n), T=200.0, h=h)
        ratio = trace.sync_error[-1] / max(trace.sync_error[0], 1e-12)
        worst = max(worst, ratio)
        assert ratio <= 1e-4, f"trial {trial}: ratio {ratio:.2e}"
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    print(
        f"\n[criterion 4] PASS: 20/20 complete-graph arrays converged at "
        f"alpha = 1/(2q) (worst ratio {worst:.2e}), {elapsed:.1f}s"
    )


def test_criterion_5_alg1_random_neutral_ct():
    t0 = time.monotonic()
    worst = 0.0
    for trial in range(20):
        rng = np.random.default_rng(2000 + trial)
        q = int(rng.integers(2, 6))
        n = int(rng.integers(2, 5))
        spec = random_symmetric_spec(rng, q, n)
        gs = gains_ct_neutral(spec)
        cl = closed_loop(spec, gs)
        h = min(5e-3, 1.5 / np.linalg.norm(cl.system_matrix, 2))
        x0 = rng.standard_normal(q * n)
        trace = simulate_ct(cl, x0, T=200.0, h=h)
        assert trace.bounded
        assert np.max(np.linalg.norm(trace.states, axis=1)) <= 1e3 * np.linalg.norm(x0)
        ratio = trace.sync_error[-1] / max(trace.sync_error[0], 1e-12)
        worst = max(worst, ratio)
        assert ratio <= 1e-4, f"trial {trial}: ratio {ratio:.2e}"
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    print(
        f"\n[criterion 5] PASS: 20/20 neutrally stable CT arrays converged and "
        f"stayed bounded (worst ratio {worst:.2e}), {elapsed:.1f}s"
    )


def test_criterion_6_alg2_random_neutral_dt():
    t0 = time.monotonic()
    worst = 0.0
    for trial in range(20):
        rng = np.random.default_rng(3000 + trial)
        q = int(rng.integers(2, 6))
        n = int(rng.integers(2, 5))
        spec = random_symmetric_spec(rng, q, n, domain="discrete")
        gs = gains_dt_neutral(spec)
        cl = closed_loop(spec, gs)  # epsilon defaults to eps_bar
        assert cl.epsilon == pytest.approx(gs.eps_bar)
        x0 = rng.standard_normal(q * n)
        trace = simulate_dt(cl, x0, K=5000)
        assert trace.bounded
        assert np.max(np.linalg.norm(trace.states, axis=1)) <= 1e3 * np.linalg.norm(x0)
        ratio = trace.sync_error[-1] / max(trace.sync_error[0], 1e-12)
        worst = max(worst, ratio)
        assert ratio <= 1e-4, f"trial {trial}: ratio {ratio:.2e}"
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    print(
        f"\n[criterion 6] PASS: 20/20 neutrally stable DT arrays converged at "
        f"eps = eps_bar over K=5000 (worst ratio {worst:.2e}), {elapsed:.1f}s"
    )


def test_criterion_7_structural_invariants():
    t0 = time.monotonic()
    failures = []

    # (a) projector sandwich Gamma <= J <= Gamma / lambda2
    for k in range(100):
        rng = np.random.default_rng(4000 + k)
        q = int(rng.integers(2, 9))
        C = {}
        for (i, j) in connected_edge_pairs(rng, q, extra=int(rng.integers(0, q))):
            C[(i, j)] = [[1.0]]
            C[(j, i)] = [[1.0]]
        ngl = normalized_laplacian(build_graph(ArraySpec(q=q, n=1, A=[[0.0]], C=C)))
        J = np.eye(q) - np.ones((q, q)) / q
        if np.linalg.eigvalsh(J - ngl.gamma)[0] < -1e-10:
            failures.append(f"sandwich-left {k}")
        if np.linalg.eigvalsh(ngl.gamma / ngl.lambda2 - J)[0] < -1e-10:
            failures.append(f"sandwich-right {k}")

    # (b) symmetric PSD blocks: L PSD with the stacked-ones null space
    for k in range(100):
        rng = np.random.default_rng(5000 + k)
        q = int(rng.integers(2, 7))
        n = int(rng.integers(1, 5))
        Q = {}
        for (i, j) in connected_edge_pairs(rng, q, extra=1):
            B = rng.standard_normal((n, n))
            Q[(i, j)] = B @ B.T
            Q[(j, i)] = B @ B.T
        L = build_laplacian(Q, q=q)
        eigs = np.linalg.eigvalsh(L)
        if eigs[0] < -1e-9 * max(eigs[-1], 1e-30):
            failures.append(f"psd {k}")
        ones = np.kron(np.ones((q, 1)), np.eye(n))
        if np.linalg.norm(L @ ones) > 1e-10 * np.linalg.norm(L):
            failures.append(f"nullspace {k}")

    # (c) disagreement equals the explicit edge sum
    for k in range(100):
        rng = np.random.default_rng(6000 + k)
        q = int(rng.integers(2, 6))
        n = int(rng.integers(1, 4))
        spec = random_symmetric_spec(rng, q, n)
        L = laplacian_from_outputs(spec)
        x = rng.standard_normal(q * n)
        oracle = sum(
            float(np.sum((C @ (x[j * n:(j + 1) * n] - x[i * n:(i + 1) * n])) ** 2))
            for (i, j), C in spec.C.items()
            if j > i
        )
        val = x @ L @ x
        if abs(val - oracle) > 1e-10 * max(abs(oracle), 1.0):
            failures.append(f"disagreement {k}")

    # (d) split round-trip plus exact skewness / orthogonality
    for k in range(100):
        rng = np.random.default_rng(7000 + k)
        domain = "continuous" if k % 2 == 0 else "discrete"
        n = int(rng.integers(1, 6))
        A = random_neutrally_stable(rng, n, domain)
        split = neutral_split(A, domain)
        B = np.hstack([split.U, split.W])
        D = sla.block_diag(split.marginal_block, split.F)
        if not np.allclose(
            np.linalg.inv(B) @ A @ B, D, atol=1e-8 * (1.0 + np.linalg.norm(A))
        ):
            failures.append(f"roundtrip {k}")
        S = split.marginal_block
        if domain == "continuous":
            if np.linalg.norm(S + S.T) > 1e-8 * (1.0 + np.linalg.norm(S)):
                failures.append(f"skew {k}")
        elif np.linalg.norm(S.T @ S - np.eye(split.n1)) > 1e-8:
            failures.append(f"orthogonal {k}")

    # (e) largest-step inequality L >= eps_bar L^2
    for k in range(100):
        rng = np.random.default_rng(8000 + k)
        spec = random_symmetric_spec(rng, q=int(rng.integers(2, 6)), n=int(rng.integers(1, 4)))
        L = laplacian_from_outputs(spec)
        eb = eps_bar(L)
        if np.linalg.eigvalsh(L - eb * L @ L)[0] < -1e-9:
            failures.append(f"eps_bar {k}")

    assert not failures, f"{len(failures)} invariant failures: {failures[:10]}"
    elapsed = time.monotonic() - t0
    print(
        f"\n[criterion 7] PASS: 5 invariant families x 100 randomized instances, "
        f"zero failures, {elapsed:.1f}s"
    )


def test_criterion_8_integrator_integrity():
    t0 = time.monotonic()
    rng = np.random.default_rng(424242)

    # RK4 convergence order against the matrix-exponential oracle
    A = rng.standard_normal((5, 5))
    A = A / np.linalg.norm(A, 2) * 2.0
    spec = ArraySpec(q=1, n=5, A=A, C={})
    cl = closed_loop(spec, {})
    x0 = rng.standard_normal(5)
    exact = sla.expm(A) @ x0
    errs = [
        np.linalg.norm(simulate_ct(cl, x0, T=1.0, h=h).states[-1] - exact)
        for h in (0.05, 0.025)
    ]
    factor = errs[0] / errs[1]
    assert 8.0 <= factor <= 32.0

    # norm conservation for uncoupled skew dynamics
    X = rng.standard_normal((4, 4))
    S = X - X.T
    spec = ArraySpec(q=2, n=4, A=S, C={})
    cl = closed_loop(spec, {})
    y0 = rng.standard_normal(8)
    trace = simulate_ct(cl, y0, T=10.0, h=1e-3)
    norms = np.linalg.norm(trace.states, axis=1)
    drift = np.max(np.abs(norms - norms[0])) / norms[0]
    assert drift <= 1e-6

    elapsed = time.monotonic() - t0
    print(
        f"\n[criterion 8] PASS: step-halving error factor {factor:.1f} in [8, 32], "
        f"skew norm drift {drift:.2e} <= 1e-6 over T=10, {elapsed:.1f}s"
    )
