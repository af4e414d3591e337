import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

    def test_mirrored_coupling_line_is_legal(self):
        text = "q 2\nbuilder lc\ncapacitances 1.0 1.0\ninductances 1.0\ncoupling 1 2 0.5\n"
        once = parse_spec_document(text).spec
        assert specs_equal(parse_spec_document(text + "coupling 2 1 0.5\n").spec, once)

    def test_builder_refusal_names_the_builder_line(self):
        # the mirror disagrees with its edge, which the builder refuses
        text = (
            "q 2\n# an LC pair\nbuilder lc\ncapacitances 1.0 1.0\ninductances 1.0\n"
            "coupling 1 2 0.5\ncoupling 2 1 0.7\n"
        )
        with pytest.raises(SpecParseError, match=r"^line 3: conductance map is not symmetric"):
            parse_spec_document(text)

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

    @pytest.mark.parametrize(
        "parse, text, message",
        [
            (parse_spec_document, "q 2\nn 2\nA\n0.0 1.0\n2.0\n",
             "line 5: ragged matrix block A: row of length 1, expected 2"),
            (parse_spec_document, "q 2\nn 2\nA\n0.0 1.0\n-1.0 0.0\nedge 1 2\n1.0 0.0\n3.0\n",
             "line 8: ragged matrix block edge 1 2: row of length 1, expected 2"),
            (parse_gains_document, "recipe alg1_ct\nq 2\nn 1\ngain 1 2\n1.0\ngain 1 2\n2.0\n",
             "line 6: duplicate matrix block gain 1 2"),
            (parse_spec_document, "q 2\nn 1\nA\n0.0\nP\n1.0\n# again\nP\n2.0\n",
             "line 8: duplicate matrix block P"),
        ],
    )
    def test_block_named_as_written(self, parse, text, message):
        with pytest.raises(SpecParseError) as exc:
            parse(text)
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "parse, text, message",
        [
            (parse_spec_document, "q 2\nn 1\nA\n0.0\nedge 1 2 7\n1.0\nedge 2 1\n1.0\n",
             "line 5: edge header needs two integer indices"),
            (parse_spec_document, "q 2\nn 1\nA\n0.0\nedge 1\n1.0\n",
             "line 5: edge header needs two integer indices"),
            (parse_gains_document, "recipe alg1_ct\nq 2\nn 1\ngain 1 2 9 9\n1.0\n",
             "line 4: gain header needs two integer indices"),
            (parse_gains_document, "recipe alg1_ct\nq 2\nn 1\ngain 1 2\n1.0\ngain 2 1 x\n1.0\n",
             "line 6: gain header needs two integer indices"),
        ],
    )
    def test_block_header_takes_exactly_two_indices(self, parse, text, message):
        with pytest.raises(SpecParseError) as exc:
            parse(text)
        assert str(exc.value) == message

    def test_coupling_line_keeps_its_values_after_the_indices(self):
        text = "q 2\nbuilder mass_spring\nmasses 1.0\nsprings 1.0 1.0\ncoupling 1 2  0.8\n"
        assert sorted(parse_spec_document(text).spec.C) == [(0, 1), (1, 0)]
        with pytest.raises(SpecParseError) as exc:
            parse_spec_document(text.replace("coupling 1 2", "coupling 1"))
        assert str(exc.value) == "line 5: coupling header needs two integer indices"

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

    @pytest.mark.parametrize(
        "parse, text, message",
        [
            (parse_spec_document, "q 2\nn 1\nA\n0.0\nq 3\n", "line 5: duplicate q"),
            (parse_spec_document, "q 2\nn 1\n# again\nn 1\n", "line 4: duplicate n"),
            (parse_spec_document, "q 2\nn -1\nA\n0.0\n", "line 2: n must be >= 1, got -1"),
            (parse_spec_document, "q 2\ntime_domain discrete\ntime_domain continuous\n",
             "line 3: duplicate time_domain"),
            (parse_gains_document, "recipe alg1_ct\nq 2\nn 1\ngain 1 2\n1.0\nq 3\n",
             "line 6: duplicate q"),
            (parse_gains_document, "recipe alg1_ct\nrecipe alg2_dt\nq 2\nn 1\n",
             "line 2: duplicate recipe"),
            (parse_gains_document, "recipe alg1_ct\nq 2\nn 0\n", "line 3: n must be >= 1, got 0"),
        ],
    )
    def test_repeated_key_and_n_below_1(self, parse, text, message):
        with pytest.raises(SpecParseError) as exc:
            parse(text)
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "text, message",
        [
            # a bad row before a later structural error
            ("q 2\nn 2\nA\n0.0 1.0\n2.0\nedge 1 5\n1.0 0.0\n",
             "line 5: ragged matrix block A: row of length 1, expected 2"),
            ("q 2\nn 2\nA\n0.0 1.0\nx 0.0\ntime_domain sometimes\n",
             "line 5: unrecognized line 'x 0.0'"),
            # a structural error before a later bad row
            ("q 2\nn 2\nA\n0.0 1.0\n-1.0 0.0\nedge 1 5\n1.0 nan\n",
             "line 6: edge (1, 5) invalid for q=2"),
            ("q 2\nn 2\nA\n0.0 1.0\n-1.0 0.0\nq 3\nedge 1 2\n1.0\n0.0 1.0\n",
             "line 6: duplicate q"),
        ],
    )
    def test_errors_come_in_document_order(self, text, message):
        with pytest.raises(SpecParseError) as exc:
            parse_spec_document(text)
        assert str(exc.value) == message

    ROW_FAULTS = {
        "ragged": ("2.0", "ragged matrix block A: row of length 1, expected 2"),
        "non_finite": ("inf 2.0", "numbers in a matrix block must be finite"),
        "unrecognized": ("2.0 x", "unrecognized line '2.0 x'"),
    }

    @pytest.mark.parametrize("first", sorted(ROW_FAULTS))
    @pytest.mark.parametrize("second", sorted(ROW_FAULTS))
    def test_first_faulty_row_of_a_block_wins(self, first, second):
        row, message = self.ROW_FAULTS[first]
        text = f"q 2\nn 2\nA\n0.0 1.0\n# a comment inside the block\n{row}\n"
        text += f"{self.ROW_FAULTS[second][0]}\n-1.0 0.0\n"
        with pytest.raises(SpecParseError) as exc:
            parse_spec_document(text)
        assert str(exc.value) == f"line 6: {message}"

    @pytest.mark.parametrize(
        "row, message",
        [
            ("nan", "numbers in a matrix block must be finite"),  # and ragged
            ("x", "unrecognized line 'x'"),  # and ragged
            ("x nan 1.0", "unrecognized line 'x nan 1.0'"),  # and the other two
        ],
    )
    def test_row_with_two_faults_names_the_first_checked(self, row, message):
        with pytest.raises(SpecParseError) as exc:
            parse_gains_document(f"recipe alg1_ct\nq 2\nn 2\ngain 1 2\n1.0 0.0\n{row}\n")
        assert str(exc.value) == f"line 6: {message}"

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


class TestMirroredBlocks:
    TEXT = "q 2\nn 2\nA\n0.0 1.0\n-1.0 0.0\nedge 1 2\n1.5 0.25\n0.0 1.0\nedge 2 1\n1.5 0.25\n0.0 1.0\n"

    def test_mirrored_blocks_parse_into_distinct_arrays(self):
        C = parse_spec_document(self.TEXT).spec.C
        assert np.array_equal(C[(0, 1)], C[(1, 0)])
        assert not np.shares_memory(C[(0, 1)], C[(1, 0)])
        C[(0, 1)][0, 0] = 7.0
        assert C[(1, 0)][0, 0] == 1.5

    def test_mirrored_gains_parse_into_distinct_arrays(self):
        text = "recipe alg1_ct\nq 2\nn 2\ngain 1 2\n1.0\n2.0\ngain 2 1\n1.0\n2.0\nP\n1.0\n2.0\n"
        doc = parse_gains_document(text)
        G = doc.gain_set.gains
        arrays = [G[(0, 1)], G[(1, 0)], doc.P]
        assert all(np.array_equal(M, [[1.0], [2.0]]) for M in arrays)
        assert not any(np.shares_memory(a, b) for a in arrays for b in arrays if a is not b)

    def test_blocks_with_equal_numbers_in_other_rows_keep_their_shapes(self):
        text = "recipe manual\nq 2\nn 2\ngain 1 2\n1.0 2.0\n3.0 4.0\ngain 2 1\n1.0 2.0 3.0 4.0\n"
        G = parse_gains_document(text).gain_set.gains
        assert G[(0, 1)].shape == (2, 2) and G[(1, 0)].shape == (1, 4)

    def test_round_trip_of_mirrored_documents(self, rng):
        C = rng.standard_normal((3, 3))
        spec = ArraySpec(q=3, n=3, A=rng.standard_normal((3, 3)),
                         C={(0, 1): C, (1, 0): C, (1, 2): C, (2, 1): -C})
        text = serialize_spec_document(SpecDocument(spec=spec, P=C))
        parsed = parse_spec_document(text)
        assert specs_equal(parsed.spec, spec)
        assert serialize_spec_document(parsed) == text
        gs = GainSet(gains={e: M.T for e, M in spec.C.items()}, recipe="alg1_ct")
        gtext = serialize_gains_document(gs, q=3, n=3, P=C)
        gparsed = parse_gains_document(gtext)
        assert serialize_gains_document(gparsed.gain_set, q=3, n=3, P=gparsed.P) == gtext

    def test_blocks_that_differ_only_in_the_sign_of_zero_are_written_apart(self):
        gs = GainSet(gains={(0, 1): np.array([[0.0]]), (1, 0): np.array([[-0.0]])}, recipe="manual")
        text = serialize_gains_document(gs, q=2, n=1)
        assert text.endswith("gain 1 2\n0.0\ngain 2 1\n-0.0\n")
        G = parse_gains_document(text).gain_set.gains
        assert not np.signbit(G[(0, 1)][0, 0]) and np.signbit(G[(1, 0)][0, 0])


def _digits(draw, lo, hi):
    return "".join(draw(st.lists(st.sampled_from("0123456789"), min_size=lo, max_size=hi)))


@st.composite
def number_tokens(draw):
    """A number token of a form the parser reads, with its float() value."""
    kind = draw(st.sampled_from(["repr", "subnormal", "long", "exponent", "other"]))
    if kind == "repr":
        return repr(draw(st.floats(allow_nan=False, allow_infinity=False)))
    if kind == "subnormal":
        return repr(draw(st.integers(1, 2**52 - 1)) * 5e-324)
    sign = draw(st.sampled_from(["", "+", "-"]))
    if kind == "long":  # more digits than a double holds
        return f"{sign}{_digits(draw, 1, 25)}.{_digits(draw, 18, 40)}"
    if kind == "exponent":
        e = draw(st.sampled_from("eE")) + draw(st.sampled_from(["", "+", "-"]))
        return f"{sign}{_digits(draw, 1, 20)}.{_digits(draw, 0, 20)}{e}{draw(st.integers(0, 400))}"
    return sign + draw(st.sampled_from(
        [".5", "5.", "1_0", "1_000.000_1", "0e0", "00012", "١٢", "٣.٥", "１２", "1e-400", "5e-324"]
    ))


@given(st.lists(number_tokens(), min_size=1, max_size=12))
@settings(max_examples=400, deadline=None)
def test_numpy_reads_every_accepted_token_as_float_does(tokens):
    want = np.array([float(t) for t in tokens])
    got = np.array(tokens, dtype=float)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    # and the parser reads them so, as rows of a block; a token past the
    # largest double reads as inf, which a block rejects
    text = f"q 1\nn {len(tokens)}\nA\n" + (" ".join(tokens) + "\n") * len(tokens)
    if not np.isfinite(want).all():
        with pytest.raises(SpecParseError, match="line 4: numbers in a matrix block must be finite"):
            parse_spec_document(text)
        return
    A = parse_spec_document(text).spec.A
    assert np.array_equal(A.view(np.uint64), np.tile(want, (len(tokens), 1)).view(np.uint64))


# --- generated documents: round trip bit for bit, faults at their lines ---------


def generated_document(rng):
    """(lines, row line numbers, edge header line numbers) of a spec document
    with comments, blank lines, mirrored blocks and mixed row counts."""
    q, n = int(rng.integers(2, 6)), int(rng.integers(1, 4))

    def numbers(count):
        x = rng.standard_normal(count) * 10.0 ** rng.integers(-300, 300, count)
        x[rng.random(count) < 0.2] = rng.choice([0.0, -0.0, 5e-324, 1.5e-310])
        return [repr(float(v)) if rng.random() < 0.7 else f"{v:.20e}" for v in x]

    def block(rows):
        return [" ".join(numbers(n)) + (" # a row" if rng.random() < 0.1 else "")
                for _ in range(rows)]

    lines, rows, headers, written = [f"q {q}", f"n {n}", "# the drift", "A"], [], [], {}
    lines += block(n)
    rows += range(len(lines) - n + 1, len(lines) + 1)
    pairs = [(i, j) for i in range(1, q + 1) for j in range(1, q + 1) if i != j]
    for k in rng.permutation(len(pairs))[: int(rng.integers(1, len(pairs) + 1))]:
        i, j = pairs[k]
        if rng.random() < 0.2:
            lines.append("" if rng.random() < 0.5 else "   # between blocks")
        mirror = written.get((j, i))
        body = list(mirror) if mirror is not None and rng.random() < 0.6 else block(int(rng.integers(1, 4)))
        lines.append(f"edge {i} {j}")
        headers.append(len(lines))
        written[(i, j)] = body
        lines += body
        rows += range(len(lines) - len(body) + 1, len(lines) + 1)
    return lines, rows, headers


def spec_bits(spec):
    return (spec.q, spec.n, spec.time_domain, spec.A.tobytes(),
            {e: (C.shape, C.tobytes()) for e, C in spec.C.items()})


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_generated_documents_round_trip_and_faults_name_their_line(seed):
    rng = np.random.default_rng(seed)
    lines, rows, headers = generated_document(rng)
    text = "\n".join(lines) + "\n"
    spec = parse_spec_document(text).spec
    # every number reads as float() reads it
    for (i, j), C in spec.C.items():
        assert C.shape[1] == spec.n
    out = serialize_spec_document(SpecDocument(spec=spec))
    again = parse_spec_document(out).spec
    assert spec_bits(again) == spec_bits(spec)
    assert serialize_spec_document(SpecDocument(spec=again)) == out

    # one fault at a random row or edge header: it is the one reported
    kind = rng.choice(["nan", "word", "ragged", "header"])
    if kind == "header":
        line = int(rng.choice(headers))
        lines[line - 1] = f"edge 1 {spec.q + 1}"
        message = f"edge (1, {spec.q + 1}) invalid for q={spec.q}"
    else:
        # a ragged row needs a row above it in its block
        candidates = [r for r in rows if kind != "ragged" or r - 1 in rows]
        if not candidates:
            return
        line = int(rng.choice(candidates))
        tokens = lines[line - 1].split("#")[0].split()
        if kind == "nan":
            tokens[int(rng.integers(len(tokens)))] = "nan"
            message = "numbers in a matrix block must be finite"
        elif kind == "word":
            tokens[int(rng.integers(len(tokens)))] = "x"
            message = f"unrecognized line {' '.join(tokens)!r}"
        else:
            tokens = tokens + ["1.0"]
            message = "ragged matrix block"
        lines[line - 1] = " ".join(tokens)
    with pytest.raises(SpecParseError) as exc:
        parse_spec_document("\n".join(lines) + "\n")
    assert exc.value.line == line
    assert message in str(exc.value)
