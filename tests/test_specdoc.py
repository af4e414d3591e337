import numpy as np
import pytest

from matsync import ArraySpec, SpecParseError, builtin_example, build_mass_spring
from matsync.gains import GainSet
from matsync.specdoc import (
    GainsDocument,
    SpecDocument,
    parse_gains_document,
    parse_spec_document,
    serialize_gains_document,
    serialize_spec_document,
)


def specs_equal(a: ArraySpec, b: ArraySpec) -> bool:
    if (a.q, a.n, a.time_domain) != (b.q, b.n, b.time_domain):
        return False
    if not np.array_equal(a.A, b.A):
        return False
    if sorted(a.C) != sorted(b.C):
        return False
    return all(np.array_equal(a.C[e], b.C[e]) for e in a.C)


class TestSpecRoundTrip:
    def test_matrix_document(self, rng):
        ex = builtin_example("chain5")
        doc = SpecDocument(spec=ex.spec, P=ex.P, alpha=1.25)
        text = serialize_spec_document(doc)
        parsed = parse_spec_document(text)
        assert specs_equal(parsed.spec, ex.spec)
        assert np.array_equal(parsed.P, ex.P)
        assert parsed.alpha == 1.25
        assert parsed.epsilon is None
        # serialize again: byte-identical
        assert serialize_spec_document(parsed) == text

    def test_random_floats_round_trip_exactly(self, rng):
        C = rng.standard_normal((2, 3))
        spec = ArraySpec(
            q=2, n=3, A=rng.standard_normal((3, 3)), C={(0, 1): C, (1, 0): C},
            time_domain="discrete",
        )
        doc = SpecDocument(spec=spec, epsilon=rng.standard_normal())
        parsed = parse_spec_document(serialize_spec_document(doc))
        assert specs_equal(parsed.spec, spec)
        assert parsed.epsilon == doc.epsilon

    def test_one_based_indices(self):
        text = """
q 2
n 1
A
0.0
edge 1 2
3.0
"""
        parsed = parse_spec_document(text)
        assert (0, 1) in parsed.spec.C
        assert parsed.spec.C[(0, 1)][0, 0] == 3.0


class TestBuilderDocuments:
    def test_mass_spring_block_materializes(self):
        text = """
q 3
time_domain continuous
builder mass_spring
masses 1.0 2.0
springs 1.0 1.5 0.5
coupling 1 2 0.8 0.5
coupling 2 3 0.6 1.0
variant transformed
"""
        parsed = parse_spec_document(text)
        direct = build_mass_spring(
            masses=(1.0, 2.0),
            springs=(1.0, 1.5, 0.5),
            damping={(0, 1): (0.8, 0.5), (1, 2): (0.6, 1.0)},
            q=3,
        ).transformed.spec
        assert specs_equal(parsed.spec, direct)

    def test_raw_variant(self):
        text = """
q 2
builder lc
capacitances 1.0 1.0
inductances 1.0
coupling 1 2 0.5
variant raw
"""
        parsed = parse_spec_document(text)
        assert np.allclose(parsed.spec.A, [[0.0, 1.0], [-0.5, 0.0]])

    def test_builder_excludes_matrices(self):
        text = """
q 2
builder lc
capacitances 1.0 1.0
inductances 1.0
coupling 1 2 0.5
A
0.0 1.0
-1.0 0.0
"""
        with pytest.raises(SpecParseError):
            parse_spec_document(text)


class TestParseErrors:
    def test_missing_q(self):
        with pytest.raises(SpecParseError, match="missing q"):
            parse_spec_document("n 2\nA\n0.0 1.0\n-1.0 0.0\n")

    def test_missing_A(self):
        with pytest.raises(SpecParseError, match="missing matrix A"):
            parse_spec_document("q 2\nn 2\n")

    def test_line_number_in_diagnostic(self):
        text = "q 2\nn 1\nA\n0.0\nedge 1 5\n1.0\n"
        with pytest.raises(SpecParseError, match="line 5"):
            parse_spec_document(text)

    def test_ragged_matrix(self):
        text = "q 2\nn 2\nA\n0.0 1.0\n2.0\n"
        with pytest.raises(SpecParseError, match="ragged"):
            parse_spec_document(text)

    def test_stray_row(self):
        with pytest.raises(SpecParseError, match="outside a matrix block"):
            parse_spec_document("q 2\n1.0 2.0\n")

    def test_bad_time_domain(self):
        with pytest.raises(SpecParseError, match="time_domain"):
            parse_spec_document("q 2\ntime_domain sometimes\n")


    @pytest.mark.parametrize(
        "text, line",
        [
            ("q 2\nn 2\nA\n0.0 nan\n-1.0 0.0\n", 4),
            ("q 2\nn 1\nA\n0.0\nedge 1 2\ninf\n", 6),
            ("q 2\nn 1\nalpha -inf\nA\n0.0\n", 3),
            ("q 2\nbuilder mass_spring\nmasses 1.0 nan\n", 3),
            ("q 2\nbuilder lc\ncoupling 1 2 0.5 inf\n", 3),
        ],
    )
    def test_non_finite_numbers_rejected_with_line(self, text, line):
        with pytest.raises(SpecParseError, match="must be finite") as exc:
            parse_spec_document(text)
        assert exc.value.line == line

    @pytest.mark.parametrize(
        "text, line",
        [
            ("recipe alg1_ct\nq 2\nn 1\ngain 1 2\nnan\n", 5),
            ("recipe alg2_dt\nq 2\nn 1\nepsilon nan\n", 4),
        ],
    )
    def test_non_finite_gains_rejected_with_line(self, text, line):
        with pytest.raises(SpecParseError, match="must be finite") as exc:
            parse_gains_document(text)
        assert exc.value.line == line

    def test_infinite_certificate_margin_parses(self):
        doc = parse_gains_document("recipe theorem1\nq 2\nn 1\ncert_eps inf\n")
        assert doc.metadata["cert_eps"] == float("inf")


class TestGainsDocuments:
    def test_round_trip(self, rng):
        gains = {
            (0, 1): rng.standard_normal((3, 1)),
            (1, 0): rng.standard_normal((3, 1)),
        }
        gs = GainSet(gains=gains, recipe="theorem1", alpha=0.5)
        text = serialize_gains_document(
            gs, q=2, n=3, P=np.eye(3),
            metadata={"cert_eps": 0.25, "cert_condition14": True},
        )
        parsed = parse_gains_document(text)
        assert parsed.gain_set.recipe == "theorem1"
        assert parsed.gain_set.alpha == 0.5
        assert parsed.q == 2 and parsed.n == 3
        assert np.array_equal(parsed.gain_set.gains[(0, 1)], gains[(0, 1)])
        assert np.array_equal(parsed.P, np.eye(3))
        assert parsed.metadata["cert_eps"] == 0.25
        assert parsed.metadata["cert_condition14"] is True
        assert serialize_gains_document(
            parsed.gain_set, q=2, n=3, P=parsed.P, metadata=parsed.metadata
        ) == text

    def test_eps_bar_and_epsilon(self):
        gs = GainSet(gains={(0, 1): np.eye(2)}, recipe="alg2_dt", eps_bar=0.5)
        text = serialize_gains_document(gs, q=2, n=2, epsilon=0.5)
        parsed = parse_gains_document(text)
        assert parsed.gain_set.eps_bar == 0.5
        assert parsed.epsilon == 0.5

    def test_missing_recipe(self):
        with pytest.raises(SpecParseError, match="missing recipe"):
            parse_gains_document("q 2\nn 2\n")
