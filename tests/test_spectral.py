import dataclasses

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    random_neutrally_stable,
    random_orthogonal,
    random_symmetric_spec,
    well_conditioned_transform,
)
from matsync import (
    ArraySpec,
    NotNeutrallyStable,
    NotSPD,
    builtin_example,
    classify_stability,
    find_common_P,
    neutral_split,
    pbh_detectable,
    spd_sqrt,
)
from matsync.spectral import (
    AXIS_TOL,
    NEUTRALLY_STABLE,
    PBH_RANK_TOL,
    STABLE,
    UNSTABLE,
    StabilityClass,
    _pbh,
    _side,
    detectable_edges,
)

ROT = np.array([[0.0, 1.0], [-1.0, 0.0]])


def rotation(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


class TestClassifyStability:
    def test_skew_is_neutrally_stable(self):
        cls = classify_stability(ROT, "continuous")
        assert cls.kind == "neutrally_stable"
        assert (cls.marginal_count, cls.stable_count) == (2, 0)

    def test_nilpotent_jordan_block_is_unstable(self):
        cls = classify_stability(np.array([[0.0, 1.0], [0.0, 0.0]]), "continuous")
        assert cls.kind == "unstable"
        assert cls.marginal_count + cls.stable_count == 2

    def test_chain5_dynamics_unstable(self):
        A = builtin_example("chain5").spec.A
        cls = classify_stability(A, "continuous")
        assert cls.kind == "unstable"
        assert np.max(np.linalg.eigvals(A).real) == pytest.approx(0.9678, abs=1e-3)

    def test_hurwitz_is_stable(self):
        cls = classify_stability(np.diag([-1.0, -2.0]), "continuous")
        assert cls.kind == "stable"
        assert cls.marginal_count == 0

    def test_discrete_rotation_with_stable_mode(self):
        A = sla.block_diag(rotation(0.3), 0.5)
        cls = classify_stability(A, "discrete")
        assert cls.kind == "neutrally_stable"
        assert (cls.marginal_count, cls.stable_count) == (2, 1)

    def test_discrete_jordan_at_one_is_unstable(self):
        cls = classify_stability(np.array([[1.0, 1.0], [0.0, 1.0]]), "discrete")
        assert cls.kind == "unstable"

    def test_zero_matrix_is_neutrally_stable_ct(self):
        cls = classify_stability(np.zeros((2, 2)), "continuous")
        assert cls.kind == "neutrally_stable"
        assert cls.marginal_count == 2


class TestPBH:
    def test_full_output_always_detectable(self, rng):
        for _ in range(5):
            A = rng.standard_normal((3, 3))
            assert pbh_detectable(np.eye(3), A, "continuous")
            assert pbh_detectable(np.eye(3), A, "discrete")

    def test_hidden_unstable_mode(self):
        assert not pbh_detectable([[1.0, 0.0]], np.diag([1.0, 2.0]), "continuous")

    def test_chain5_edges_detectable_vs_eigenpair_oracle(self):
        spec = builtin_example("chain5").spec
        A = spec.A
        lam, V = np.linalg.eig(A)
        for (i, j), C in spec.C.items():
            assert pbh_detectable(C, A, "continuous")
            # oracle: no closed-right-half-plane eigenvector of A in null C
            for k in range(3):
                if lam[k].real >= -1e-9:
                    assert np.linalg.norm(C @ V[:, k]) > 1e-8

    def test_observable_pairs(self):
        assert pbh_detectable(np.array([[2.0, 1.0], [0.5, 3.0]]), np.zeros((2, 2)), "continuous")
        assert not pbh_detectable([[1.0, 0.0]], np.zeros((2, 2)), "continuous")

    def test_mass_spring_pair_vs_observability_matrix_rank(self):
        from matsync import build_mass_spring

        built = build_mass_spring(
            masses=(1.0, 2.0),
            springs=(1.0, 1.0, 1.0),
            damping={(0, 1): (1.0, 1.0)},
            q=2,
        )
        S = built.transformed.spec.A
        H = built.transformed.spec.C[(0, 1)]
        obs_matrix = np.vstack([H @ np.linalg.matrix_power(S, k) for k in range(4)])
        assert pbh_detectable(H, S, "continuous") == (np.linalg.matrix_rank(obs_matrix, tol=1e-10) == 4)
        assert pbh_detectable(H, S, "continuous")


class TestNeutralSplit:
    def test_planar_rotation_ct(self):
        split = neutral_split(ROT, "continuous")
        assert split.n1 == 2 and split.n2 == 0
        S = split.marginal_block
        assert np.linalg.norm(S + S.T) <= 1e-10
        # normal A: the constructed basis is orthonormal, so U U^T = I
        assert np.allclose(split.U @ split.U.T, np.eye(2), atol=1e-10)

    def test_block_diagonal_ct(self):
        split = neutral_split(np.diag([0.0, -1.0]), "continuous")
        assert split.marginal_block.shape == (1, 1)
        assert split.marginal_block[0, 0] == 0.0
        assert np.allclose(split.F, [[-1.0]])

    def test_rotation_plus_stable_dt(self):
        split = neutral_split(sla.block_diag(rotation(0.3), 0.5), "discrete")
        Q = split.marginal_block
        assert np.linalg.norm(Q.T @ Q - np.eye(2)) <= 1e-10
        assert np.allclose(split.F, [[0.5]])

    def test_identities_and_roundtrip(self, rng):
        A = random_neutrally_stable(rng, 5, "continuous", n1=3)
        split = neutral_split(A, "continuous")
        assert np.allclose(split.U_dag @ split.U, np.eye(3), atol=1e-9)
        assert np.allclose(split.W_dag @ split.U, 0.0, atol=1e-9)
        B = np.hstack([split.U, split.W])
        D = sla.block_diag(split.marginal_block, split.F)
        assert np.allclose(
            B @ D @ np.vstack([split.U_dag, split.W_dag]),
            A,
            atol=1e-8 * (1 + np.linalg.norm(A)),
        )

    def test_unstable_matrix_rejected(self):
        with pytest.raises(NotNeutrallyStable):
            neutral_split(builtin_example("chain5").spec.A, "continuous")

    def test_stable_matrix_gives_empty_marginal_part(self):
        A = np.array([[-1.0, 0.3], [0.0, -2.0]])
        split = neutral_split(A, "continuous")
        assert split.n1 == 0
        assert split.U.shape == (2, 0)
        assert sorted(np.linalg.eigvals(split.F).real) == pytest.approx(
            sorted(np.linalg.eigvals(A).real), abs=1e-10
        )

    def test_marginal_exponential_is_orthogonal(self, rng):
        for _ in range(5):
            A = random_neutrally_stable(rng, 4, "continuous")
            split = neutral_split(A, "continuous")
            S = split.marginal_block
            for t in (0.5, 1.0, 2.0):
                E = sla.expm(S * t)
                assert np.linalg.norm(E @ E.T - np.eye(split.n1)) <= 1e-8

    def test_detectability_transfers_to_reduced_pair(self, rng):
        # (C, A) detectable with A neutrally stable => (C U, S) observable, C U != 0
        for seed in range(8):
            local = np.random.default_rng(seed)
            spec = random_symmetric_spec(local, q=2, n=4, domain="continuous")
            split = neutral_split(spec.A, "continuous")
            for (i, j), C in spec.C.items():
                H = C @ split.U
                assert np.linalg.norm(H) > 1e-9
                assert pbh_detectable(H, split.marginal_block, "continuous")


@given(seed=st.integers(0, 2**32 - 1), domain=st.sampled_from(["continuous", "discrete"]))
@settings(max_examples=30, deadline=None)
def test_split_roundtrip_random(seed, domain):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 6))
    A = random_neutrally_stable(rng, n, domain)
    split = neutral_split(A, domain)
    B = np.hstack([split.U, split.W])
    D = sla.block_diag(split.marginal_block, split.F)
    assert np.allclose(
        np.linalg.inv(B) @ A @ B, D, atol=1e-8 * (1.0 + np.linalg.norm(A))
    )
    S = split.marginal_block
    if domain == "continuous":
        assert np.linalg.norm(S + S.T) <= 1e-8 * (1.0 + np.linalg.norm(S))
    else:
        assert np.linalg.norm(S.T @ S - np.eye(split.n1)) <= 1e-8


class TestSpdSqrt:
    def test_scaled_identity(self):
        assert np.allclose(spd_sqrt(4.0 * np.eye(2)), 2.0 * np.eye(2))

    def test_tridiagonal_reconstruction(self):
        M = np.array([[2.0, -1.0], [-1.0, 2.0]])
        R = spd_sqrt(M)
        assert np.allclose(R, R.T)
        assert np.linalg.norm(R @ R - M) <= 1e-10 * np.linalg.norm(M)

    def test_diagonal(self):
        assert np.allclose(spd_sqrt(np.diag([1.0, 9.0])), np.diag([1.0, 3.0]))

    def test_rejects_asymmetric_and_indefinite(self):
        with pytest.raises(NotSPD):
            spd_sqrt(np.array([[1.0, 2.0], [0.0, 1.0]]))
        with pytest.raises(NotSPD):
            spd_sqrt(np.diag([1.0, -1.0]))


def pbh_loop(C, A, eigenvalues):
    """Reference: one SVD of [A - lam I; C] per eigenvalue, per edge."""
    n = A.shape[0]
    tol = PBH_RANK_TOL * np.linalg.norm(A, 2)
    return all(
        np.linalg.svd(np.vstack([A - lam * np.eye(n), C]), compute_uv=False)[-1] > tol
        for lam in eigenvalues
    )


def hidden_output(rng, A, domain, m):
    """m x n output whose rows are orthogonal to one eigenvector of A on the
    boundary (both parts of a complex one), so that (C, A) is not detectable."""
    n = A.shape[0]
    lam, V = np.linalg.eig(A)
    d = lam.real if domain == "continuous" else np.abs(lam) - 1.0
    v = V[:, rng.choice(np.flatnonzero(np.abs(d) <= AXIS_TOL * np.linalg.norm(A, 2)))]
    Q, _ = np.linalg.qr(np.column_stack([v.real, v.imag] if np.any(v.imag) else [v.real]))
    return rng.standard_normal((m, n)) @ (np.eye(n) - Q @ Q.T)


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(3, 6),
    domain=st.sampled_from(["continuous", "discrete"]),
)
@settings(max_examples=80, deadline=None)
def test_batched_pbh_equals_per_edge_loop(seed, n, domain):
    # n >= 3 leaves a nonzero output orthogonal to a complex eigenvector
    rng = np.random.default_rng(seed)
    A = random_neutrally_stable(rng, n, domain, n1=int(rng.integers(2, n + 1)))
    lam = np.linalg.eigvals(A)
    d = lam.real if domain == "continuous" else np.abs(lam) - 1.0
    suspect = lam[d >= -AXIS_TOL * np.linalg.norm(A, 2)]
    Cs = []
    for _ in range(int(rng.integers(2, 9))):
        m = int(rng.integers(1, n + 1))
        Cs.append(rng.standard_normal((m, n)))
        Cs.append(hidden_output(rng, A, domain, m))
    order = rng.permutation(len(Cs))
    spec = ArraySpec(
        q=len(Cs) + 1, n=n, A=A, time_domain=domain,
        C={(0, k + 1): Cs[p] for k, p in enumerate(order)},
    )
    want = {(0, k + 1): pbh_loop(Cs[p], A, suspect) for k, p in enumerate(order)}
    assert set(want.values()) == {True, False}
    assert not spec.symmetric  # one-sided edges: every ordered pair is listed
    assert detectable_edges(spec) == want
    assert [pbh_detectable(C, A, domain) for C in Cs] == [pbh_loop(C, A, suspect) for C in Cs]


# --- each rank test once per conjugate pair ------------------------------------


def paired_drift(rng, n, kind, repeat, defect):
    """A real n x n drift: "ct" holds +-i omega pairs, "dt" rotations, "random"
    is unstructured.  repeat gives every pair one frequency; defect couples the
    first two pairs by defect * I, a Jordan-like chain that is near-defective
    when defect is near the semisimplicity tolerance."""
    if kind == "random":
        return rng.standard_normal((n, n))
    pairs = int(rng.integers(min(n // 2, 1), n // 2 + 1))
    freqs = np.full(pairs, rng.uniform(0.2, 3.0)) if repeat else rng.uniform(0.2, 3.0, pairs)
    if kind == "ct":
        blocks = [w * ROT for w in freqs]
    else:
        blocks = [rotation(w) for w in freqs]
    rest = n - 2 * pairs
    if rest:
        real = rng.choice([0.0] if kind == "ct" else [-1.0, 1.0], size=int(rng.integers(0, rest + 1)))
        stable = rng.uniform(-2.0, -0.3, rest - len(real)) if kind == "ct" else (
            rng.uniform(-0.7, 0.7, rest - len(real)))
        blocks += [np.diag(real), np.diag(stable)]
    blk = sla.block_diag(*blocks)
    if pairs >= 2:
        blk[0:2, 2:4] = defect * np.eye(2)
    T = well_conditioned_transform(rng, n) if rng.random() < 0.7 else np.eye(n)
    return T @ blk @ np.linalg.inv(T)


def random_outputs(rng, n, count):
    """Random m x n outputs, about half of them of rank below min(m, n)."""
    Cs = []
    for _ in range(count):
        m = int(rng.integers(1, n + 1))
        rank = int(rng.integers(0, min(m, n) + 1)) if rng.random() < 0.5 else min(m, n)
        Cs.append(rng.standard_normal((m, rank)) @ rng.standard_normal((rank, n)))
    return Cs


def classify_every_cluster(A, domain):
    """Reference classification: the semisimplicity test at every marginal
    eigenvalue, the conjugate ones included."""
    n = A.shape[0]
    norm = np.linalg.norm(A, 2)
    lam = np.linalg.eigvals(A)
    side = _side(lam, domain, norm)
    marg = side == 0
    n1 = int(marg.sum())
    kind = UNSTABLE if np.any(side > 0) else STABLE if n1 == 0 else NEUTRALLY_STABLE
    null_tol = 1e-7 * max(norm, 1.0)
    if kind == NEUTRALLY_STABLE:
        for v in lam[marg]:
            s = np.linalg.svd(A - v * np.eye(n), compute_uv=False)
            if np.sum(s <= null_tol) < np.sum(np.abs(lam[marg] - v) <= null_tol):
                kind = UNSTABLE
    return StabilityClass(kind, n1, n - n1, tuple(lam[marg]))


drifts = dict(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 6),
    kind=st.sampled_from(["ct", "dt", "random"]),
    repeat=st.booleans(),
    # 0: semisimple; 10**e: from far below the null tolerance 1e-7 to past it
    defect=st.one_of(st.just(0.0), st.floats(-10.0, -4.0).map(lambda e: 10.0**e)),
)


@given(**drifts)
@settings(max_examples=200, deadline=None)
def test_classification_skips_only_conjugate_clusters(seed, n, kind, repeat, defect):
    A = paired_drift(np.random.default_rng(seed), n, kind, repeat, defect)
    for domain in ("continuous", "discrete"):
        assert classify_stability(A, domain) == classify_every_cluster(A, domain)


def pbh_by_shape(Cs, A, eigenvalues, norm):
    """_pbh on one stack per shape among Cs, its verdicts listed in the order of Cs."""
    got = [None] * len(Cs)
    for shape in {C.shape for C in Cs}:
        idx = [k for k, C in enumerate(Cs) if C.shape == shape]
        for k, ok in zip(idx, _pbh(np.array([Cs[k] for k in idx]), A, eigenvalues, norm)):
            got[k] = bool(ok)
    return got


@given(**drifts)
@settings(max_examples=200, deadline=None)
def test_pbh_tests_each_conjugate_pair_once(seed, n, kind, repeat, defect):
    rng = np.random.default_rng(seed)
    A = paired_drift(rng, n, kind, repeat, defect)
    Cs = random_outputs(rng, n, int(rng.integers(1, 7)))
    for domain in ("continuous", "discrete"):
        cls = classify_stability(A, domain)
        boundary, norm = cls.boundary, cls.norm
        # eig of a real matrix: exact conjugate pairs
        assert np.array_equal(np.sort_complex(boundary), np.sort_complex(boundary.conj()))
        upper = boundary[boundary.imag >= 0]
        got = pbh_by_shape(Cs, A, boundary, norm)
        assert got == pbh_by_shape(Cs, A, upper, norm) == [pbh_loop(C, A, boundary) for C in Cs]
        for lam in boundary[boundary.imag > 0]:
            for C in Cs:
                M = np.vstack([A - lam * np.eye(n), C])
                assert np.array_equal(
                    np.linalg.svd(M, compute_uv=False),
                    np.linalg.svd(M.conj(), compute_uv=False),
                )
            # the stacked call, as _pbh makes it for one shape group
            same = [C for C in Cs if C.shape == Cs[0].shape]
            M = np.array([np.vstack([A - lam * np.eye(n), C]) for C in same])
            assert np.array_equal(
                np.linalg.svd(M, compute_uv=False), np.linalg.svd(M.conj(), compute_uv=False)
            )


def test_no_rank_test_runs_on_an_empty_boundary(monkeypatch):
    A = np.array([[-1.0, 2.0], [0.0, -3.0]])
    spec = ArraySpec(q=3, n=2, A=A, C={(0, 1): np.eye(2), (1, 2): np.array([[0.0, 1.0]])})
    calls = []
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(a))
    assert not spec.symmetric
    assert detectable_edges(spec) == {(0, 1): True, (1, 2): True}
    assert calls == []


def test_a_classification_of_the_other_domain_is_refused(rng):
    spec = random_symmetric_spec(rng, q=3, n=3)
    dt = classify_stability(spec.A, "discrete")
    with pytest.raises(ValueError):
        detectable_edges(spec, dt)
    with pytest.raises(ValueError):
        neutral_split(spec.A, "continuous", dt)
    with pytest.raises(ValueError):
        find_common_P(spec, dt)
    with pytest.raises(ValueError):
        neutral_split(spec.A, "discrete", classify_stability(spec.A, "continuous"))


@pytest.mark.parametrize("domain", ["continuous", "discrete"])
def test_a_given_classification_splits_bit_for_bit(rng, domain):
    for n in range(1, 7):
        A = random_neutrally_stable(rng, n, domain)
        given = neutral_split(A, domain, classify_stability(A, domain))
        computed = neutral_split(A, domain)
        for f in dataclasses.fields(computed):
            assert np.array_equal(getattr(given, f.name), getattr(computed, f.name)), f.name


@given(
    seed=st.integers(0, 2**32 - 1),
    freq=st.floats(0.2, 3.0),
    gaps=st.lists(st.one_of(st.just(0.0), st.floats(-12.0, 0.0).map(lambda e: 10.0**e)),
                  min_size=1, max_size=3),
    coupling=st.floats(-4.0, 1.0).map(lambda e: 10.0**e),
)
@settings(max_examples=200, deadline=None)
def test_close_rotations_are_neutrally_stable_and_jordan_blocks_are_not(seed, freq, gaps, coupling):
    # rotations at frequencies that may lie any gap apart, repeated ones
    # included, under an orthogonal change of basis: semisimple at every gap
    rng = np.random.default_rng(seed)
    freqs = freq + np.cumsum([0.0, *gaps])
    Q = random_orthogonal(rng, 2 * len(freqs))
    for A, domain in ((sla.block_diag(*(w * ROT for w in freqs)), "continuous"),
                      (sla.block_diag(*(rotation(w) for w in freqs)), "discrete")):
        assert classify_stability(Q @ A @ Q.T, domain).kind == NEUTRALLY_STABLE
        # the second rotation made the first, coupled to it: a real Jordan
        # block, defective, so unstable
        J = A.copy()
        J[2:4, 2:4] = A[:2, :2]
        J[0:2, 2:4] = coupling * np.eye(2)
        assert classify_stability(Q @ J @ Q.T, domain).kind == UNSTABLE
    assert classify_stability(np.array([[0.0, coupling], [0.0, 0.0]])).kind == UNSTABLE
