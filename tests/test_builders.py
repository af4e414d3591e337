import numpy as np
import pytest

from matsync import (
    DimensionMismatch,
    NonPositiveParameter,
    UnknownName,
    build_graph,
    build_lc,
    build_mass_spring,
    builtin_example,
    classify_stability,
    closed_loop,
    gains_ct_neutral,
    is_connected,
    pbh_detectable,
    simulate_ct,
    validate_spec,
)


class TestMassSpring:
    def test_single_mass_matrices(self):
        built = build_mass_spring(
            masses=(1.0,), springs=(1.0, 1.0), damping={}, q=1
        )
        S = built.transformed.spec.A
        root2 = np.sqrt(2.0)
        assert np.allclose(S, [[0.0, root2], [-root2, 0.0]], atol=1e-12)
        A_raw = built.raw.spec.A
        assert np.allclose(A_raw, [[0.0, 1.0], [-2.0, 0.0]])

    def test_skewness_by_construction(self, rng):
        for _ in range(5):
            p = int(rng.integers(1, 5))
            built = build_mass_spring(
                masses=rng.uniform(0.5, 3.0, p),
                springs=rng.uniform(0.5, 3.0, p + 1),
                damping={(0, 1): rng.uniform(0.0, 2.0, p)},
                q=2,
            )
            S = built.transformed.spec.A
            assert np.linalg.norm(S + S.T) <= 1e-10 * np.linalg.norm(S)

    def test_raw_and_transformed_trajectories_agree(self, rng):
        built = build_mass_spring(
            masses=(1.0, 2.0),
            springs=(1.0, 1.5, 0.5),
            damping={(0, 1): (0.8, 0.5), (1, 2): (0.6, 1.0)},
            q=3,
        )
        x0 = rng.standard_normal(12)
        T_full = np.kron(np.eye(3), built.transform)
        tr_raw = simulate_ct(closed_loop(built.raw.spec, built.raw.gains), x0, T=8.0, h=1e-3)
        tr_xi = simulate_ct(
            closed_loop(built.transformed.spec, built.transformed.gains),
            T_full @ x0,
            T=8.0,
            h=1e-3,
        )
        mapped = tr_raw.states @ T_full.T
        scale = np.max(np.abs(tr_xi.states))
        assert np.max(np.abs(mapped - tr_xi.states)) <= 1e-6 * scale

    def test_weight_identity(self):
        # C_ij' C_ij must equal blkdiag(0, M^-1/2 B M^-1/2)
        built = build_mass_spring(
            masses=(2.0, 5.0), springs=(1.0, 1.0, 1.0),
            damping={(0, 1): (3.0, 7.0)}, q=2,
        )
        C = built.transformed.spec.C[(0, 1)]
        expected = np.zeros((4, 4))
        expected[2:, 2:] = np.diag([3.0 / 2.0, 7.0 / 5.0])
        assert np.allclose(C.T @ C, expected, atol=1e-12)

    def test_synchronizes_with_neutral_gains(self, rng):
        # connected damping graph with observable pairs
        built = build_mass_spring(
            masses=(1.0, 2.0),
            springs=(1.0, 1.5, 0.5),
            damping={(0, 1): (0.8, 0.5), (1, 2): (0.6, 1.0)},
            q=3,
        )
        spec = built.transformed.spec
        gs = gains_ct_neutral(spec)
        trace = simulate_ct(
            closed_loop(spec, gs), rng.standard_normal(12), T=300.0, h=5e-3
        )
        assert trace.verdict() == "converged"
        assert trace.bounded

    def test_rejects_bad_parameters(self):
        with pytest.raises(NonPositiveParameter):
            build_mass_spring((0.0,), (1.0, 1.0), {}, q=1)
        with pytest.raises(NonPositiveParameter):
            build_mass_spring((1.0,), (1.0, -1.0), {}, q=1)
        with pytest.raises(NonPositiveParameter):
            build_mass_spring((1.0,), (1.0, 1.0), {(0, 1): (-0.5,)}, q=2)
        with pytest.raises(DimensionMismatch):
            build_mass_spring((1.0,), (1.0,), {}, q=1)
        with pytest.raises(DimensionMismatch):
            build_mass_spring((1.0,), (1.0, 1.0), {(0, 1): (1.0, 2.0)}, q=2)


class TestLC:
    def test_single_node_matrices(self):
        built = build_lc(
            capacitances=(1.0, 1.0), inductances=(1.0,), conductances={}, q=1
        )
        S = built.transformed.spec.A
        r = 1.0 / np.sqrt(2.0)
        assert np.allclose(S, [[0.0, r], [-r, 0.0]], atol=1e-12)

    def test_skewness_by_construction(self, rng):
        for _ in range(5):
            p = int(rng.integers(1, 4))
            built = build_lc(
                capacitances=rng.uniform(0.5, 2.0, p + 1),
                inductances=rng.uniform(0.5, 2.0, p),
                conductances={(0, 1): rng.uniform(0.0, 1.5, p)},
                q=2,
            )
            S = built.transformed.spec.A
            assert np.linalg.norm(S + S.T) <= 1e-10 * np.linalg.norm(S)

    def test_synchronizes_with_neutral_gains(self, rng):
        # connected conductance graph with observable pairs
        built = build_lc(
            capacitances=(1.0, 0.8, 1.2),
            inductances=(0.9, 1.1),
            conductances={(0, 1): (0.7, 0.4), (1, 2): (0.5, 0.9)},
            q=3,
        )
        spec = built.transformed.spec
        gs = gains_ct_neutral(spec)
        trace = simulate_ct(
            closed_loop(spec, gs), rng.standard_normal(12), T=300.0, h=5e-3
        )
        assert trace.verdict() == "converged"
        assert trace.bounded

    def test_raw_and_transformed_trajectories_agree(self, rng):
        built = build_lc(
            capacitances=(1.0, 0.8, 1.2),
            inductances=(0.9, 1.1),
            conductances={(0, 1): (0.7, 0.4), (1, 2): (0.5, 0.9)},
            q=3,
        )
        x0 = rng.standard_normal(12)
        T_full = np.kron(np.eye(3), built.transform)
        tr_raw = simulate_ct(closed_loop(built.raw.spec, built.raw.gains), x0, T=8.0, h=1e-3)
        tr_xi = simulate_ct(
            closed_loop(built.transformed.spec, built.transformed.gains),
            T_full @ x0,
            T=8.0,
            h=1e-3,
        )
        mapped = tr_raw.states @ T_full.T
        assert np.max(np.abs(mapped - tr_xi.states)) <= 1e-6 * np.max(np.abs(tr_xi.states))


class TestBuiltins:
    def test_counterexample_matrices(self):
        ex = builtin_example("counterexample_asym")
        assert ex.spec.q == 3 and ex.spec.n == 2
        assert len(ex.spec.C) == 6
        assert np.array_equal(ex.spec.A, np.zeros((2, 2)))
        assert not validate_spec(ex.spec)
        assert ex.spec.C[(0, 1)][0, 0] == 1.9006

    def test_chain5_bundle(self):
        ex = builtin_example("chain5")
        assert ex.spec.q == 5 and ex.spec.n == 3
        assert ex.P is not None and np.allclose(ex.P, ex.P.T)
        assert len(ex.spec.C) == 8  # both directions of four edges
        assert validate_spec(ex.spec)

    def test_demo_specs_satisfy_neutral_assumptions(self):
        for name in ("mass_spring_demo", "lc_demo"):
            spec = builtin_example(name).spec
            assert validate_spec(spec)
            assert is_connected(build_graph(spec))
            assert classify_stability(spec.A, "continuous").kind == "neutrally_stable"
            for e in spec.edges:
                assert pbh_detectable(spec.C[e], spec.A, "continuous")

    def test_unknown_name(self):
        with pytest.raises(UnknownName):
            builtin_example("does_not_exist")
