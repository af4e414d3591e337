import contextlib
import io
import math
import re
import subprocess
import sys
import warnings
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from conftest import (
    CT_ILL_SPLIT_SPEC,
    DT_ILL_SPLIT_SPEC,
    SINGULAR_P_SPEC,
    assert_exit_contract,
    off_sync_eigenvalues,
    random_complete_cl_spec,
    random_neutrally_stable,
    random_symmetric_spec,
    spectrum_partition_gap,
    sweep_gains,
)
from matsync import (
    ArraySpec,
    Diverged,
    classify_stability,
    closed_loop,
    find_common_P,
    simulate_ct,
    simulate_dt,
)
from matsync import cli, tracecsv
from matsync.array_model import EdgeTable
from matsync import gains as gainsmod
from matsync import spectral as spectralmod
from matsync.cli import main
from matsync.spectral import AXIS_TOL
from matsync.specdoc import (
    SpecDocument,
    parse_gains_document,
    parse_spec_document,
    serialize_spec_document,
)


def run(*argv):
    return main(list(argv))


def read(path):
    return path.read_text()


@pytest.fixture
def chain5_spec(tmp_path):
    path = tmp_path / "chain5.spec"
    assert run("example", "chain5", "--out", str(path)) == 0
    return path


@pytest.fixture
def ms_spec(tmp_path):
    path = tmp_path / "ms.spec"
    assert run("example", "mass_spring_demo", "--out", str(path)) == 0
    return path


class TestExample:
    def test_all_builtins_parse(self, tmp_path):
        for name in ("counterexample_asym", "chain5", "mass_spring_demo", "lc_demo"):
            out = tmp_path / f"{name}.spec"
            assert run("example", name, "--out", str(out)) == 0
            doc = parse_spec_document(read(out))
            assert doc.spec.q >= 1

    def test_demo_document_is_declarative(self, ms_spec):
        text = read(ms_spec)
        assert "builder mass_spring" in text
        assert "edge" not in text


class TestCheck:
    def test_chain5_report(self, chain5_spec, tmp_path, capsys):
        out = tmp_path / "report.txt"
        code = run("check", "--spec", str(chain5_spec), "--out", str(out))
        report = read(out)
        assert code == 0
        assert "connected true" in report
        assert "complete false" in report
        assert "cl_feasible true" in report
        assert "condition14_holds false" in report
        assert "assumption_cl_detectability true" in report

    def test_counterexample_flagged(self, tmp_path):
        spec = tmp_path / "asym.spec"
        run("example", "counterexample_asym", "--out", str(spec))
        out = tmp_path / "report.txt"
        code = run("check", "--spec", str(spec), "--out", str(out))
        assert code == 2
        assert "symmetric false" in read(out)

    def test_empty_edge_spec_disconnected(self, tmp_path):
        spec = tmp_path / "empty.spec"
        spec.write_text("q 3\nn 1\nA\n0.0\n")
        out = tmp_path / "report.txt"
        code = run("check", "--spec", str(spec), "--out", str(out))
        assert code == 2
        assert "connected false" in read(out)

    def test_parse_failure_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.spec"
        bad.write_text("q 2\nwhat is this\n")
        assert run("check", "--spec", str(bad)) == 1
        assert "line 2" in capsys.readouterr().err

    def test_non_finite_matrix_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "nan.spec"
        bad.write_text(
            "q 3\nn 2\nA\n0.0 nan\n-1.0 0.0\n"
            "edge 1 2\n1.0 0.0\nedge 2 1\n1.0 0.0\n"
            "edge 2 3\n0.0 1.0\nedge 3 2\n0.0 1.0\n"
        )
        assert run("check", "--spec", str(bad)) == 1
        assert "line 4" in capsys.readouterr().err

    def test_missing_file_exits_1(self, tmp_path):
        assert run("check", "--spec", str(tmp_path / "nope.spec")) == 1


class TestGains:
    def test_alg1_document(self, ms_spec, tmp_path):
        out = tmp_path / "g.gains"
        assert run("gains", "--spec", str(ms_spec), "--recipe", "alg1", "--out", str(out)) == 0
        doc = parse_gains_document(read(out))
        assert doc.gain_set.recipe == "alg1_ct"
        assert doc.metadata["n1"] == 4
        assert len(doc.gain_set.gains) == 4

    def test_theorem1_infeasible_exits_2(self, tmp_path, capsys):
        spec = tmp_path / "bad.spec"
        spec.write_text(
            "q 2\nn 2\nA\n1.0 0.0\n0.0 1.0\nedge 1 2\n1.0 0.0\nedge 2 1\n1.0 0.0\n"
        )
        code = run("gains", "--spec", str(spec), "--recipe", "theorem1")
        assert code == 2
        assert "CL-detectability not established" in capsys.readouterr().err

    def test_alg2_includes_eps_bar(self, tmp_path):
        spec = tmp_path / "rot.spec"
        spec.write_text(rotation_spec_text())
        out = tmp_path / "g.gains"
        assert run("gains", "--spec", str(spec), "--recipe", "alg2", "--out", str(out)) == 0
        doc = parse_gains_document(read(out))
        # oracle: L has weights U'C'CU with U U' = I here, eigenvalues {0, 2}
        assert doc.gain_set.eps_bar == pytest.approx(0.5, abs=1e-12)
        assert doc.epsilon == pytest.approx(0.5, abs=1e-12)

    def test_recipe_domain_mismatch(self, ms_spec, capsys):
        assert run("gains", "--spec", str(ms_spec), "--recipe", "alg2") == 2

    def test_force_overrides_symmetry(self, tmp_path):
        spec = tmp_path / "asym.spec"
        run("example", "counterexample_asym", "--out", str(spec))
        assert run("gains", "--spec", str(spec), "--recipe", "alg1") == 2
        out = tmp_path / "g.gains"
        assert (
            run("gains", "--spec", str(spec), "--recipe", "alg1", "--force",
                "--out", str(out))
            == 0
        )


def rotation_spec_text(th=0.7):
    c, s = float(np.cos(th)), float(np.sin(th))
    return (
        "q 2\nn 2\ntime_domain discrete\nA\n"
        f"{c!r} {-s!r}\n{s!r} {c!r}\n"
        "edge 1 2\n1.0 0.0\n0.0 1.0\nedge 2 1\n1.0 0.0\n0.0 1.0\n"
    )


def reference_rows(block):
    return "".join(",".join("%.16e" % v for v in row) + "\n" for row in block.tolist())


def trace_block(trace):
    return np.column_stack((trace.times, trace.states, trace.sync_error, trace.disagreement))


class TestTraceFormat:
    @given(arrays(
        np.float64, array_shapes(min_dims=2, max_dims=2, max_side=12),
        elements=st.floats(allow_nan=False, allow_infinity=False),
    ))
    @settings(max_examples=300, deadline=None)
    def test_cells_are_percent_16e(self, block):
        text = tracecsv.format_rows(block)
        assert text == reference_rows(block).encode()
        cells = [float(c) for line in text.splitlines() for c in line.split(b",")]
        assert np.array_equal(np.array(cells).view(np.uint64), block.ravel().view(np.uint64))

    @pytest.mark.parametrize("x", [
        0.0, 5e-324, 1.7976931348623157e308, 1e16, 1e17, 9.999999999999999e16,
        1 + 2**-17, 3 * 2**-24,  # exact decimal ties at the 18th digit
        2.2250738585072014e-308, 1e-100, 9.999999999999999e-100, 1e22, 0.1,
    ])
    def test_edge_values(self, x):
        block = np.array([[x, -x], [-x, x]])
        assert tracecsv.format_rows(block) == reference_rows(block).encode()
        assert [float(c) for c in tracecsv.format_rows(block[:1, :1]).split(b",")] == [x]

    def test_near_ties(self):
        # x = M 2^-(k+s) with M 5^k = 2^(s-1) +- 1 (mod 2^s), so x 10^k lies 2^-s
        # from a half-integer: for s past ~48 closer than the double-double
        # resolves, so these cells must take the exact path
        values = []
        for s in range(41, 53):
            for k in range(10, 30):
                inverse = pow(5**k, -1, 2**s)
                for d in (-1, 1):
                    M = (2 ** (s - 1) + d) * inverse % 2**s
                    M += -(-(2**52 - M) // 2**s) * 2**s  # into [2^52, 2^52 + 2^s)
                    if M < 2**53:
                        values.append(M * 2.0 ** -(k + s))
        block = np.array([values, [-v for v in values]])
        assert tracecsv.format_rows(block) == reference_rows(block).encode()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_cell_raises(self, bad):
        with pytest.raises(ValueError, match="not finite"):
            tracecsv.format_rows(np.array([[1.0, bad]]))

    def test_decimal_exponent_table_is_exact(self):
        p0 = tracecsv._format_tables()[1]
        for e, p in zip(range(tracecsv.FREXP_MIN, tracecsv.FREXP_MAX + 1), p0.tolist()):
            # 10^p <= 2^(e-1) < 10^(p+1), in integers
            assert 10 ** max(p, 0) << max(1 - e, 0) <= 10 ** max(-p, 0) << max(e - 1, 0)
            assert 10 ** max(p + 1, 0) << max(1 - e, 0) > 10 ** max(-p - 1, 0) << max(e - 1, 0)

    def test_tables_are_not_built_at_import(self):
        # the per-column tables are among them
        code = "import matsync.cli, matsync.tracecsv as t; print(t._format_tables.cache_info().currsize)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.stdout.strip() == "0", proc.stderr

    def test_chunks_write_the_bytes_of_one_call(self, monkeypatch):
        spec = parse_spec_document(rotation_spec_text()).spec
        cl = closed_loop(spec, parse_gains_document(
            "recipe manual\nq 2\nn 2\nepsilon 0.25\ngain 1 2\n1.0 0.0\n0.0 1.0\n"
            "gain 2 1\n1.0 0.0\n0.0 1.0\n"
        ).gain_set, epsilon=0.25)
        trace = simulate_dt(cl, np.random.default_rng(1).standard_normal(4), K=100)
        monkeypatch.setattr(tracecsv, "CSV_CHUNK_CELLS", 50)  # 7 rows of 7 cells per chunk
        chunks = list(tracecsv.trace_csv(trace, "converged"))
        assert len(chunks) == 2 + 15
        assert b"".join(chunks[1:-1]) == tracecsv.format_rows(trace_block(trace))

    @given(arrays(
        np.float64, array_shapes(min_dims=2, max_dims=2, max_side=12),
        elements=st.floats(1e-99, 1e99) | st.floats(-1e99, -1e-99) | st.sampled_from([0.0, -0.0]),
    ))
    @settings(max_examples=200, deadline=None)
    def test_two_digit_exponents(self, block):
        # every |p| < 100: the 6-word records of format_rows
        text = tracecsv.format_rows(block)
        assert text == reference_rows(block).encode()
        cells = [c for line in text.splitlines() for c in line.split(b",")]
        assert all(len(c.split(b"e")[1]) == 3 for c in cells)

    @pytest.mark.parametrize("x", [1e-150, -2.5e200, 5e-324])
    def test_three_digit_exponent_only_in_the_last_column(self, x):
        block = np.random.default_rng(2).standard_normal((4, 5))
        block[2, -1] = x
        assert tracecsv.format_rows(block) == reference_rows(block).encode()

    @pytest.mark.parametrize("scale", [1.0, 1e-150])
    @pytest.mark.parametrize("sign", [-1.0, 1.0])
    def test_blocks_of_one_sign(self, sign, scale):
        block = sign * np.abs(np.random.default_rng(3).standard_normal((6, 5))) * scale
        block[1, 2] = sign * 0.0
        assert np.all(np.signbit(block) == (sign < 0))
        assert tracecsv.format_rows(block) == reference_rows(block).encode()

    def test_each_cell_is_rounded_once(self, monkeypatch):
        # the decimal exponent comes from |x| against the table of 10^(p0+1),
        # so a cell with p = p0 + 1 needs no second rounding
        block = np.random.default_rng(5).standard_normal((161, 19)) * 1e-150
        cells = []
        round_scaled = tracecsv._round_scaled
        monkeypatch.setattr(tracecsv, "_round_scaled", lambda f, *a: cells.append(f.size) or round_scaled(f, *a))
        assert tracecsv.format_rows(block) == reference_rows(block).encode()
        assert sum(cells) == block.size

    def test_tens_table_is_the_least_double_at_or_above_each_power(self):
        _, p0, _, tens, *_ = tracecsv._format_tables()
        for p, t in zip(p0.tolist(), tens.tolist()):
            # 10^(p+1) as num / den, against t and the double below it
            num, den = 10 ** max(p + 1, 0), 10 ** max(-p - 1, 0)
            a, b = t.as_integer_ratio()
            c, d = math.nextafter(t, 0.0).as_integer_ratio()
            assert a * den >= num * b and c * den < num * d

    def test_powers_of_ten_and_their_neighbours(self):
        # |x| at and next to 10^k, where the exponent table and a round up to
        # 10^17 decide p
        tens = 10.0 ** np.arange(-323, 309)
        block = np.stack([np.nextafter(tens, 0.0), tens, np.nextafter(tens, np.inf)])
        block = np.concatenate([block, -block, block * (1 - 2.0**-52)])
        assert tracecsv.format_rows(block) == reference_rows(block).encode()

    def test_chunks_of_both_record_widths_write_the_bytes_of_one_call(self, monkeypatch):
        rng = np.random.default_rng(4)
        states = rng.standard_normal((24, 4))
        tiny = np.arange(24) // 3 % 2 == 1  # the middle rows of every other chunk
        states[tiny] = 1e-150 * states[tiny]
        trace = SimpleNamespace(
            times=np.arange(24) * 0.5, states=states,
            sync_error=rng.random(24), disagreement=rng.random(24),
        )
        monkeypatch.setattr(tracecsv, "CSV_CHUNK_CELLS", 21)  # 3 rows of 7 cells per chunk
        chunks = list(tracecsv.trace_csv(trace, "converged"))[1:-1]
        assert len(chunks) == 8
        # the chunks with 1e-150 cells print three exponent digits, the others two
        assert [bool(re.search(rb"e-\d{3}", c)) for c in chunks] == [False, True] * 4
        block = trace_block(trace)
        assert b"".join(chunks) == tracecsv.format_rows(block) == reference_rows(block).encode()

    def test_column_exponent_words_are_exact(self):
        _, p0, _, _, _, _, exp2, exp3 = tracecsv._format_tables()
        assert len(exp2) == len(exp3) == 2 * tracecsv.NEXP
        for column in range(2 * tracecsv.NEXP):
            up, i = divmod(column, tracecsv.NEXP)
            e, p = i + tracecsv.FREXP_MIN, int(p0[i]) + up
            # 10^(p-up) <= 2^(e-1) < 10^(p-up+1), in integers
            q = p - up
            assert 10 ** max(q, 0) << max(1 - e, 0) <= 10 ** max(-q, 0) << max(e - 1, 0)
            assert 10 ** max(q + 1, 0) << max(1 - e, 0) > 10 ** max(-q - 1, 0) << max(e - 1, 0)
            assert exp3[column].tobytes().replace(b"\0", b"") == b"%+03d" % p
            if abs(p) < 100:
                assert exp2[column].tobytes() == b"%+03d," % p

    def test_narrow_exponents_are_those_of_two_digit_exponents(self):
        p0 = tracecsv._format_tables()[1]
        e = np.arange(tracecsv.FREXP_MIN, tracecsv.FREXP_MAX + 1)
        narrow = e[(p0 > -100) & (p0 + 1 < 100)]
        assert (narrow[0], narrow[-1]) == tracecsv.NARROW
        assert np.array_equal(narrow, np.arange(narrow[0], narrow[-1] + 1))

    @given(st.floats(0.5, 1.0, exclude_max=True))
    @example(0.5)
    @example(math.nextafter(1.0, 0.0))
    @example(0.5 + 2.0**-26 - 2.0**-53)
    def test_split_has_a_26_bit_high_part_and_is_exact(self, f):
        high, low = (float(v[0]) for v in tracecsv._split(np.array([f])))
        assert 0.5 <= high and (high * 2**26).is_integer()  # at most 26 significant bits
        assert 0.0 <= low < 2.0**-26 and (low * 2**53).is_integer()
        assert Fraction(high) + Fraction(low) == Fraction(f)


# name -> (bundled example or spec text, gains argv, simulate argv, exit code)
EXACT_CASES = {
    "ct": ("mass_spring_demo", ["--recipe", "alg1"],
           ["--seed", "3", "--horizon", "20", "--step", "0.01"], 0),
    "dt": (rotation_spec_text(), ["--recipe", "alg2"], ["--seed", "4", "--horizon", "300"], 0),
    "diverged": ("counterexample_asym", ["--recipe", "alg1", "--force"],
                 ["--seed", "0", "--horizon", "10", "--step", "1e-3"], 3),
}


@pytest.mark.parametrize("name", sorted(EXACT_CASES))
def test_csv_holds_the_trace_exactly(name, tmp_path):
    spec_src, gains_argv, sim_argv, want_rc = EXACT_CASES[name]
    spec_path, gains_path, out = (tmp_path / f for f in ("s.spec", "g.gains", "t.csv"))
    if "\n" in spec_src:
        spec_path.write_text(spec_src)
    else:
        assert run("example", spec_src, "--out", str(spec_path)) == 0
    assert run("gains", "--spec", str(spec_path), *gains_argv, "--out", str(gains_path)) == 0
    rc = run("simulate", "--spec", str(spec_path), "--gains", str(gains_path), *sim_argv,
             "--out", str(out))
    assert rc == want_rc
    table = np.array([[float(v) for v in line.split(",")] for line in read(out).splitlines()[1:-1]])

    # the same call in memory
    spec = parse_spec_document(read(spec_path)).spec
    gdoc = parse_gains_document(read(gains_path))
    cl = closed_loop(spec, gdoc.gain_set, epsilon=gdoc.epsilon)
    options = dict(zip(sim_argv[::2], sim_argv[1::2]))
    x0 = np.random.default_rng(int(options["--seed"])).standard_normal(spec.q * spec.n)
    try:
        if spec.time_domain == "continuous":
            trace = simulate_ct(cl, x0, T=float(options["--horizon"]), h=float(options["--step"]))
        else:
            trace = simulate_dt(cl, x0, K=int(options["--horizon"]))
    except Diverged as e:
        trace = e.trace
    assert np.array_equal(table, trace_block(trace))


class TestSimulate:
    def test_mass_spring_converges(self, ms_spec, tmp_path):
        gains = tmp_path / "g.gains"
        run("gains", "--spec", str(ms_spec), "--recipe", "alg1", "--out", str(gains))
        trace = tmp_path / "trace.csv"
        code = run(
            "simulate", "--spec", str(ms_spec), "--gains", str(gains),
            "--seed", "3", "--horizon", "150", "--step", "0.005",
            "--out", str(trace),
        )
        assert code == 0
        text = read(trace)
        assert text.splitlines()[0].startswith("t,x_1,")
        assert text.rstrip().endswith("# verdict converged")

    def test_counterexample_diverges(self, tmp_path):
        spec = tmp_path / "asym.spec"
        run("example", "counterexample_asym", "--out", str(spec))
        gains = tmp_path / "g.gains"
        run("gains", "--spec", str(spec), "--recipe", "alg1", "--force", "--out", str(gains))
        trace = tmp_path / "trace.csv"
        code = run(
            "simulate", "--spec", str(spec), "--gains", str(gains),
            "--horizon", "10", "--out", str(trace),
        )
        assert code == 3
        assert "# verdict diverged" in read(trace)

    def test_deterministic_output(self, ms_spec, tmp_path):
        gains = tmp_path / "g.gains"
        run("gains", "--spec", str(ms_spec), "--recipe", "alg1", "--out", str(gains))
        t1, t2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = (
            "simulate", "--spec", str(ms_spec), "--gains", str(gains),
            "--seed", "7", "--horizon", "5",
        )
        run(*args, "--out", str(t1))
        run(*args, "--out", str(t2))
        assert read(t1) == read(t2)

    def test_file_and_stdout_get_the_same_bytes(self, ms_spec, tmp_path):
        gains, out = tmp_path / "g.gains", tmp_path / "t.csv"
        assert run("gains", "--spec", str(ms_spec), "--recipe", "alg1", "--out", str(gains)) == 0
        # 1001 rows of 15 cells: several chunks
        argv = ["simulate", "--spec", str(ms_spec), "--gains", str(gains), "--horizon", "1"]
        assert run(*argv, "--out", str(out)) == 0
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert run(*argv) == 0
        proc = subprocess.run([sys.executable, "-m", "matsync.cli", *argv], capture_output=True)
        assert proc.returncode == 0, proc.stderr
        data = out.read_bytes()
        assert data.count(b"\n") == 1003
        assert data == buf.getvalue().encode() == proc.stdout

    def test_incompatible_gains_rejected(self, ms_spec, chain5_spec, tmp_path):
        gains = tmp_path / "g.gains"
        run("gains", "--spec", str(ms_spec), "--recipe", "alg1", "--out", str(gains))
        assert run("simulate", "--spec", str(chain5_spec), "--gains", str(gains)) == 1


class TestSweep:
    def test_chain5_minimum(self, chain5_spec, tmp_path):
        out = tmp_path / "sweep.txt"
        code = run(
            "sweep", "--spec", str(chain5_spec), "--points", "10", "--out", str(out)
        )
        assert code == 0
        lines = read(out).strip().splitlines()
        assert len(lines) == 11  # 10 rows + summary
        assert lines[-1].startswith("# min rho")
        rows = [tuple(map(float, ln.split())) for ln in lines[:-1]]
        assert min(r for _, r in rows) >= 0.0418 - 1e-3

    def test_single_point(self, chain5_spec, tmp_path):
        out = tmp_path / "sweep.txt"
        assert run(
            "sweep", "--spec", str(chain5_spec), "--points", "1",
            "--alpha-min", "2.0", "--out", str(out),
        ) == 0
        lines = read(out).strip().splitlines()
        assert len(lines) == 2
        assert lines[0].split()[0] == "2.0"

    def test_certificate_missing_exits_2(self, tmp_path, capsys):
        spec = tmp_path / "bad.spec"
        spec.write_text(
            "q 2\nn 2\nA\n1.0 0.0\n0.0 1.0\nedge 1 2\n1.0 0.0\nedge 2 1\n1.0 0.0\n"
        )
        assert run("sweep", "--spec", str(spec)) == 2

    def test_discrete_time_spec_exits_2_before_the_certificate(self, tmp_path, capsys):
        # a 3-agent ring of rotations: neutrally stable in discrete time, so the
        # continuous-time abscissa rows would say nothing true about it
        th = 0.9
        A = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        C = {}
        for (i, j) in [(0, 1), (1, 2), (2, 0)]:
            C[(i, j)] = C[(j, i)] = np.eye(2)
        spec = tmp_path / "ring_dt.spec"
        spec.write_text(
            serialize_spec_document(
                SpecDocument(spec=ArraySpec(q=3, n=2, A=A, C=C, time_domain="discrete"))
            )
        )
        assert run("sweep", "--spec", str(spec), "--points", "5") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "hypothesis failed: sweep applies to continuous time\n"

    @pytest.mark.parametrize("points", ["0", "-3"])
    def test_points_below_one_exit_1_before_the_certificate(self, points, tmp_path, capsys):
        # this document's P fails the certificate, which exits 2
        spec = tmp_path / "bad_P.spec"
        spec.write_text(
            "q 2\nn 2\nA\n0.0 1.0\n-1.0 0.0\nedge 1 2\n1.0 0.0\nedge 2 1\n1.0 0.0\n"
            "P\n1.0 0.1\n0.3 1.0\n"
        )
        assert run("sweep", "--spec", str(spec), "--points", points) == 1
        assert capsys.readouterr().err == f"error: --points must be >= 1, got {points}\n"

    def test_overflowing_alpha_exits_1_naming_it(self, chain5_spec, tmp_path, capsys):
        # alpha P^-1 C'C overflows a double: refused before the eigensolve
        out = tmp_path / "sweep.txt"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = run("sweep", "--spec", str(chain5_spec), "--points", "1",
                     "--alpha-min", "1e308", "--out", str(out))
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: the closed-loop quotient overflows at alpha = 1e+308\n"
        )
        assert not out.exists()

    def test_deterministic(self, chain5_spec, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        run("sweep", "--spec", str(chain5_spec), "--points", "5", "--out", str(a))
        run("sweep", "--spec", str(chain5_spec), "--points", "5", "--out", str(b))
        assert read(a) == read(b)

    @pytest.mark.parametrize("name", ["mass_spring_demo", "lc_demo"])
    def test_neutral_demo_rows_are_off_sync_abscissae(self, name, tmp_path):
        spec_path, out = tmp_path / f"{name}.spec", tmp_path / "sweep.txt"
        run("example", name, "--out", str(spec_path))
        assert run("sweep", "--spec", str(spec_path), "--points", "8", "--out", str(out)) == 0
        spec = parse_spec_document(read(spec_path)).spec
        P = find_common_P(spec).P
        lines = read(out).splitlines()
        rows = [tuple(map(float, ln.split())) for ln in lines[:-1]]
        assert len(rows) == 8
        for alpha, rho in rows:
            psi = closed_loop(spec, sweep_gains(spec, P, alpha)).system_matrix
            assert spectrum_partition_gap(psi, spec.A, spec.q) <= 1e-8
            want = off_sync_eigenvalues(psi, spec.q, spec.n).real.max()
            assert abs(rho - want) <= 1e-11 * max(1.0, np.linalg.norm(psi, 2))
        best = min(rows, key=lambda row: row[1])
        assert lines[-1] == f"# min rho {best[1]!r} at alpha {best[0]!r}"


# command, options after --spec (and --gains), the option the message names
BAD_NUMBERS = [
    ("simulate", ["--step", "nan"], "--step"),
    ("simulate", ["--step", "0"], "--step"),
    ("simulate", ["--step", "-1"], "--step"),
    ("simulate", ["--horizon", "inf"], "--horizon"),
    ("simulate", ["--horizon", "0"], "--horizon"),
    ("simulate", ["--horizon", "1e-4"], "--horizon"),
    ("simulate", ["--epsilon", "nan"], "--epsilon"),
    ("sweep", ["--alpha-min", "0"], "--alpha-min"),
    ("sweep", ["--alpha-min", "-1"], "--alpha-min"),
    ("sweep", ["--alpha-max", "nan"], "--alpha-max"),
    ("sweep", ["--alpha-min", "inf"], "--alpha-min"),
    ("gains", ["--recipe", "theorem1", "--force", "--alpha", "nan"], "--alpha"),
    ("simulate", ["--seed", "-1"], "--seed"),
    ("simulate", ["--horizon", "100", "--step", "1e-300"], "--horizon"),
    ("simulate", ["--horizon", "1e300", "--step", "1e-300"], "--horizon"),
]


@pytest.mark.parametrize("command,options,flag", BAD_NUMBERS)
def test_bad_number_option_exits_1(
    command, options, flag, ms_spec, chain5_spec, tmp_path, capsys
):
    out = tmp_path / "out.txt"
    if command == "simulate":
        gains = tmp_path / "g.gains"
        run("gains", "--spec", str(ms_spec), "--recipe", "alg1", "--out", str(gains))
        argv = ["simulate", "--spec", str(ms_spec), "--gains", str(gains)]
    else:
        argv = [command, "--spec", str(chain5_spec)]
    capsys.readouterr()
    assert run(*argv, *options, "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and flag in err
    assert not out.exists()


def test_dt_step_count_beyond_int64_exits_1(tmp_path, capsys):
    spec, gains, out = tmp_path / "rot.spec", tmp_path / "g.gains", tmp_path / "t.csv"
    spec.write_text(rotation_spec_text())
    assert run("gains", "--spec", str(spec), "--recipe", "alg2", "--out", str(gains)) == 0
    capsys.readouterr()
    argv = ["simulate", "--spec", str(spec), "--gains", str(gains), "--out", str(out)]
    assert run(*argv, "--horizon", "1e300") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "--horizon" in err
    assert not out.exists()


def test_console_entry_point(tmp_path):
    out = tmp_path / "c.spec"
    proc = subprocess.run(
        [sys.executable, "-m", "matsync.cli", "example", "chain5", "--out", str(out)],
        capture_output=True,
    )
    assert proc.returncode == 0
    assert out.exists()


def test_parser_is_built_once_and_commands_are_looked_up_per_call(chain5_spec, monkeypatch):
    builds = []
    make_parser = cli.make_parser
    monkeypatch.setattr(cli, "make_parser", lambda: builds.append(1) or make_parser())
    cli._parser.cache_clear()
    # a wrapper installed on cli.cmd_check after the parser is built still runs
    for code in (7, 8):
        monkeypatch.setattr(cli, "cmd_check", lambda args, code=code: code)
        assert run("check", "--spec", str(chain5_spec)) == code
    assert builds == [1]


def test_env_tolerance_override(tmp_path, monkeypatch):
    spec = tmp_path / "tiny.spec"
    # edge below the default 1e-12 Frobenius tolerance
    spec.write_text("q 2\nn 1\nA\n0.0\nedge 1 2\n1e-13\nedge 2 1\n1e-13\n")
    out = tmp_path / "r1.txt"
    run("check", "--spec", str(spec), "--out", str(out))
    assert "connected false" in read(out)
    monkeypatch.setenv("MATSYNC_TOL", "1e-14")
    out2 = tmp_path / "r2.txt"
    run("check", "--spec", str(spec), "--out", str(out2))
    assert "connected true" in read(out2)


def test_env_tolerance_decides_mirrors_too(tmp_path, monkeypatch, capsys):
    # the edge is nonzero only under MATSYNC_TOL, and it has no mirror
    spec = tmp_path / "one_way.spec"
    spec.write_text("q 2\nn 1\nA\n0.0\nedge 1 2\n1e-13\n")
    monkeypatch.setenv("MATSYNC_TOL", "1e-14")
    out = tmp_path / "report.txt"
    assert run("check", "--spec", str(spec), "--out", str(out)) == 2
    report = read(out).splitlines()
    assert "symmetric false" in report
    assert "assumption_neutral_ct false" in report
    assert run("gains", "--spec", str(spec), "--recipe", "alg1") == 2
    assert capsys.readouterr().err == (
        "hypothesis failed: edge outputs are not symmetric\n"
    )


def test_env_strict_margin_applies_to_searched_P(ms_spec, tmp_path, monkeypatch, capsys):
    # the demo document has no P; the searched one has eps = 0.00267...
    reports = {}
    for tol in (None, "0.002", "0.003"):
        if tol is not None:
            monkeypatch.setenv("MATSYNC_TOL", tol)
        out = tmp_path / f"report_{tol}.txt"
        assert run("check", "--spec", str(ms_spec), "--out", str(out)) == 0
        reports[tol] = read(out).splitlines()
    eps = {tol: [ln for ln in r if ln.startswith("eps ")] for tol, r in reports.items()}
    assert eps[None] == eps["0.002"] == eps["0.003"] == ["eps 0.0026736555832665857"]
    assert "cl_feasible true" in reports["0.002"]
    assert "cl_feasible false" in reports["0.003"]
    assert "assumption_cl_detectability false" in reports["0.003"]
    assert "assumption_neutral_ct true" in reports["0.003"]
    assert run("sweep", "--spec", str(ms_spec), "--points", "2") == 2
    assert run("gains", "--spec", str(ms_spec), "--recipe", "theorem1") == 2


@pytest.mark.parametrize("tol", ["-1", "nan", "inf", "-inf"])
def test_env_tolerance_must_be_finite_and_nonnegative(tol, ms_spec, monkeypatch, capsys):
    # a negative margin would pass the least-violating P of a failed search
    monkeypatch.setenv("MATSYNC_TOL", tol)
    for argv in (["check"], ["sweep", "--points", "2"], ["gains", "--recipe", "theorem1"]):
        assert run(argv[0], "--spec", str(ms_spec), *argv[1:]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: MATSYNC_TOL must be finite and >= 0")


# n = 2, skew drift, identity outputs; P = I is a common Lyapunov matrix
A_BLOCK = "A\n0.0 1.0\n-1.0 0.0\n"
EDGES = "edge 1 2\n1.0 0.0\n0.0 1.0\nedge 2 1\n1.0 0.0\n0.0 1.0\n"

# name -> (builder document, the error `check` prints)
BUILDER_FAULTS = {
    "builder_spring_count": (
        "q 2\nbuilder mass_spring\nmasses 1.0 2.0\nsprings 1.0 1.5\ncoupling 1 2 0.8 0.5\n",
        "line 2: need 3 spring constants, got 2",
    ),
    "builder_negative_conductance": (
        "q 2\nbuilder lc\ncapacitances 1.0 0.8 1.2\ninductances 0.9 1.1\n"
        "coupling 1 2 0.7 -0.4\n",
        "line 2: conductance entries must be >= 0",
    ),
    "builder_missing_inductances": (
        "q 2\nbuilder lc\ncapacitances 1.0 0.8 1.2\ncoupling 1 2 0.5 0.5\n",
        "line 2: builder lc is missing inductances",
    ),
    "builder_duplicate_coupling": (
        "q 2\nbuilder lc\ncapacitances 1.0 0.8 1.2\ninductances 0.9 1.1\n"
        "coupling 1 2 0.5 0.5\ncoupling 1 2 0.9 0.9\n",
        "line 6: duplicate coupling (1, 2)",
    ),
}

# name -> (document, line its error names)
MALFORMED_SPECS = {
    "empty_A": ("q 2\nn 2\nA\n" + EDGES, 3),
    "empty_P": ("q 2\nn 2\n" + A_BLOCK + "P\n" + EDGES, 6),
    "empty_edge": (
        "q 2\nn 2\n" + A_BLOCK + "edge 1 2\nedge 2 1\n1.0 0.0\n0.0 1.0\n", 6,
    ),
    "edge_3_columns": (
        "q 2\nn 2\n" + A_BLOCK
        + "edge 1 2\n1.0 0.0 0.0\n0.0 1.0 0.0\nedge 2 1\n1.0 0.0 0.0\n0.0 1.0 0.0\n",
        6,
    ),
    "q_0": ("q 0\nn 2\n" + A_BLOCK, 1),
    "q_negative": ("# agents\nq -3\nn 2\n" + A_BLOCK, 2),
    "P_1x2": ("q 2\nn 2\n" + A_BLOCK + EDGES + "P\n1.0 0.0\n", 12),
    # edges checked against q 5, then q 2: the graph must not see both
    "q_repeated": ("q 5\nn 1\nA\n0.0\nedge 4 5\n1.0\nedge 5 4\n1.0\nq 2\n", 9),
    "n_negative": ("q 2\nn -1\n" + A_BLOCK, 2),
    # a parameter the builder refuses names the builder line
    "builder_spring_count": (BUILDER_FAULTS["builder_spring_count"][0], 2),
    "builder_negative_conductance": (BUILDER_FAULTS["builder_negative_conductance"][0], 2),
    "builder_missing_inductances": (BUILDER_FAULTS["builder_missing_inductances"][0], 2),
    "builder_duplicate_coupling": (BUILDER_FAULTS["builder_duplicate_coupling"][0], 6),
}
COMMANDS = {
    "check": ["check"],
    "gains_alg1": ["gains", "--recipe", "alg1"],
    "gains_theorem1": ["gains", "--recipe", "theorem1"],
    "sweep": ["sweep", "--points", "2"],
}


def test_malformed_spec_base_is_valid(tmp_path, capsys):
    spec = tmp_path / "ok.spec"
    spec.write_text("q 2\nn 2\n" + A_BLOCK + EDGES + "P\n1.0 0.0\n0.0 1.0\n")
    for argv in COMMANDS.values():
        assert run(argv[0], "--spec", str(spec), *argv[1:]) == 0


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("name", sorted(MALFORMED_SPECS))
def test_malformed_spec_exits_1_at_its_line(name, command, tmp_path, capsys):
    text, line = MALFORMED_SPECS[name]
    spec = tmp_path / f"{name}.spec"
    spec.write_text(text)
    argv = COMMANDS[command]
    assert run(argv[0], "--spec", str(spec), *argv[1:]) == 1
    captured = capsys.readouterr()
    err = captured.err
    assert err.startswith(f"error: line {line}:")
    assert "Traceback" not in err
    assert_exit_contract(argv[0], 1, captured.out, err)


@pytest.mark.parametrize("name", sorted(BUILDER_FAULTS))
def test_builder_fault_message(name, tmp_path, capsys):
    text, message = BUILDER_FAULTS[name]
    spec = tmp_path / f"{name}.spec"
    spec.write_text(text)
    assert run("check", "--spec", str(spec)) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


# one gain block of the mass-spring demo (n = 4, C_ij is 2 x 4)
MS_GAIN = "0.0 0.0\n0.0 0.0\n1.0 0.0\n0.0 1.0\n"


@pytest.mark.parametrize("gains_text,message", [
    ("recipe manual\nq 3\nn 4\ngain 1 2\n" + MS_GAIN, "no gain for edge (2, 1)"),
    ("recipe manual\nq 3\nn 4\ngain 1 2\n1.0\n",
     "gain G_12 has shape (1, 1), expected (4, 2)"),
    # every edge's gain, plus one for the pair (1, 3), which has no edge block
    ("recipe manual\nq 3\nn 4\n"
     + "".join(f"gain {i} {j}\n" + MS_GAIN for i, j in ((1, 2), (2, 1), (2, 3), (3, 2)))
     + "gain 1 3\n9.0\n",
     "gain for (1, 3), which is not an edge of the spec"),
], ids=["missing_gain", "wrong_shape", "gain_off_the_edges"])
def test_gains_that_do_not_fit_the_spec_exit_1(gains_text, message, ms_spec, tmp_path, capsys):
    gains, out = tmp_path / "g.gains", tmp_path / "t.csv"
    gains.write_text(gains_text)
    argv = ["simulate", "--spec", str(ms_spec), "--gains", str(gains), "--out", str(out)]
    assert run(*argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_theorem1_singular_P_is_a_hypothesis_failure(tmp_path, capsys):
    # P passes the certificate of this stable drift, but the gains need P^-1
    spec = tmp_path / "singular_P.spec"
    spec.write_text(
        "q 2\nn 2\nA\n-1.0 0.0\n0.0 -1.0\n" + EDGES + "P\n1.0 0.0\n0.0 1e-15\n"
    )
    assert run("check", "--spec", str(spec)) == 0
    assert "cl_feasible true" in capsys.readouterr().out
    assert run("gains", "--spec", str(spec), "--recipe", "theorem1") == 2
    assert capsys.readouterr() == ("", "hypothesis failed: P is singular to working precision\n")


# builder -> its vectors, each with its length less the node count p
BUILDERS = {"mass_spring": (("masses", 0), ("springs", 1)),
            "lc": (("capacitances", 1), ("inductances", 0))}
POSITIVE = st.sampled_from([0.1, 0.5, 1.0, 2.0, 10.0])
NUMBERS = st.sampled_from([0.0, 0.1, 0.5, 1.0, 2.0, 10.0, -0.1, -0.5, -1.0, -2.0, -10.0])


def often(draw):
    """True on three of the four draws 0-3."""
    return draw(st.integers(0, 3)) < 3


@st.composite
def builder_documents(draw):
    """A q line and a builder line, then in random order: the builder's
    vectors of 0-4 entries (often of the length it needs and positive, each
    perhaps left out), coupling lines on random pairs (often of two agents,
    often each pair once) and perhaps a variant line."""
    q, builder = draw(st.integers(1, 4)), draw(st.sampled_from(sorted(BUILDERS)))
    p = draw(st.integers(1, 3))

    def vector(length):
        size = length if often(draw) else draw(st.integers(0, 4))
        values = POSITIVE if often(draw) else NUMBERS
        return " ".join(map(repr, draw(st.lists(values, min_size=size, max_size=size))))

    lines = [f"{key} {vector(p + extra)}" for key, extra in BUILDERS[builder] if often(draw)]
    agents = st.integers(1, q)
    pairs = [(i, j) for i in range(1, q + 1) for j in range(1, q + 1) if i != j]
    edge = st.sampled_from(pairs) if pairs and often(draw) else st.tuples(agents, agents)
    edges = draw(st.lists(edge, max_size=4, unique=often(draw)))
    lines += [f"coupling {i} {j} {vector(p)}" for i, j in edges]
    variant = draw(st.sampled_from([None, "raw", "transformed"]))
    if variant is not None:
        lines.append(f"variant {variant}")
    return "\n".join([f"q {q}", f"builder {builder}", *draw(st.permutations(lines))]) + "\n"


@given(builder_documents())
@settings(max_examples=100, deadline=None)
def test_check_on_builder_documents_keeps_the_exit_contract(tmp_path_factory, text):
    spec = tmp_path_factory.mktemp("builder") / "b.spec"
    spec.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = run("check", "--spec", str(spec))
    assert rc in (0, 1, 2)
    assert_exit_contract("check", rc, out.getvalue(), err.getvalue())
    if rc == 1:
        assert re.match(r"error: line \d+: ", err.getvalue()), err.getvalue()


def block(key, M):
    return [key, *(" ".join(map(repr, row)) for row in np.atleast_2d(M).tolist())]


@st.composite
def agreement_documents(draw):
    """Small spec documents on which each recipe's hypotheses fail in many
    ways: drifts near a Jordan block, A = [[l, s], [0, l - d]] with a large
    s and a gap d a few AXIS_TOL * ||A|| wide (cond([U W]) ~ 2e8 / k for
    d = k AXIS_TOL s), neutral and random drifts; edges missing, one-way or
    mirrored with another output, undetectable unit outputs; in continuous
    time a document P that is absent, near-singular or random."""
    domain = draw(st.sampled_from(["continuous", "discrete"]))
    ct = domain == "continuous"
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    family = draw(st.sampled_from(["near_defective", "near_defective", "neutral", "random"]))
    if family == "near_defective":
        n, s = 2, draw(st.sampled_from([10.0, 1e3, 1e5]))
        gap = draw(st.sampled_from([0.5, 1.2, 1.5, 1.9, 3.0, 100.0])) * AXIS_TOL * s
        lam = 0.0 if ct else draw(st.sampled_from([1.0, -1.0]))
        A = np.array([[lam, s], [0.0, -gap if ct else lam * (1.0 - gap)]])
    else:
        n = draw(st.integers(1, 3))
        A = random_neutrally_stable(rng, n, domain) if family == "neutral" else rng.standard_normal((n, n))
    q = draw(st.integers(2, 3))
    lines = [f"q {q}", f"n {n}", f"time_domain {domain}", *block("A", A)]

    def output():
        if draw(st.booleans()):
            return np.eye(n)[draw(st.integers(0, n - 1))]
        return rng.standard_normal((draw(st.integers(1, n)), n))

    for i in range(q):
        for j in range(i + 1, q):
            kind = draw(st.sampled_from(["mirror"] * 4 + ["one_way", "two", "none"]))
            if kind == "none":
                continue
            C = output()
            lines += block(f"edge {i + 1} {j + 1}", C)
            if kind != "one_way":
                lines += block(f"edge {j + 1} {i + 1}", C if kind == "mirror" else output())
    P = draw(st.sampled_from(["search", "near_singular", "random"])) if ct else "search"
    if P == "near_singular":
        lines += block("P", np.diag([1.0] + [1e-15] * (n - 1)) if n > 1 else [[1e-15]])
    elif P == "random":
        X = rng.standard_normal((n, n))
        lines += block("P", X @ X.T + 0.1 * np.eye(n))
    return "\n".join(lines) + "\n"


@given(agreement_documents())
@example(DT_ILL_SPLIT_SPEC)
@example(CT_ILL_SPLIT_SPEC)
@example(SINGULAR_P_SPEC)
@settings(max_examples=50, deadline=None)
def test_check_assumptions_are_the_recipes_exit_codes(tmp_path_factory, text):
    # each assumption_* line of `check` is true exactly when its recipe exits 0
    d = tmp_path_factory.mktemp("agreement")
    (d / "a.spec").write_text(text)
    spec, out = str(d / "a.spec"), str(d / "out")
    with contextlib.redirect_stderr(io.StringIO()):
        rc = run("check", "--spec", spec, "--out", out)
        report = dict(line.split(" ", 1) for line in read(d / "out").splitlines())
        recipes = {
            "assumption_cl_detectability": "theorem1",
            "assumption_neutral_ct": "alg1",
            "assumption_neutral_dt": "alg2",
        }
        exits = {key: run("gains", "--spec", spec, "--recipe", recipe, "--out", out)
                 for key, recipe in recipes.items() if key in report}
    assert sorted(exits) == sorted(k for k in report if k.startswith("assumption_"))
    assert set(exits.values()) <= {0, 2}
    assert {k: report[k] for k in exits} == {k: "true" if v == 0 else "false" for k, v in exits.items()}
    assert rc == (0 if 0 in exits.values() else 2)


def write_spec(path, spec):
    path.write_text(serialize_spec_document(SpecDocument(spec=spec)))
    return path


def test_check_on_neutral_drift_that_rounds_stable_warns_nothing(tmp_path):
    # every computed eigenvalue of this neutral A has a negative real part; a
    # P search started from a Lyapunov solve then makes scipy warn that an
    # eigenvalue pair sums to about zero
    spec = random_symmetric_spec(np.random.default_rng(23), q=4, n=3)
    assert np.all(np.linalg.eigvals(spec.A).real < 0.0)
    assert classify_stability(spec.A).kind == "neutrally_stable"
    path = write_spec(tmp_path / "neutral.spec", spec)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run("check", "--spec", str(path), "--out", str(tmp_path / "report")) == 0


def ring(q):
    """CT ring of q agents: a rotation plus two stable modes, invertible outputs."""
    A = sla.block_diag([[0.0, 1.0], [-1.0, 0.0]], [[-1.0, 0.5], [0.0, -2.0]])
    C = np.diag([1.0, 2.0, 1.5, 1.0])
    edges = {(i, (i + 1) % q): C for i in range(q)}
    edges.update({(j, i): C for (i, j) in list(edges)})
    return ArraySpec(q=q, n=4, A=A, C=edges)


def test_eigvals_calls_do_not_grow_with_the_edge_count(tmp_path):
    # one eig(A) per command: the classification, the PBH tests of all
    # edges, the neutral split and the P search's warm start share it
    counts = {}
    for q in (5, 50):
        path = write_spec(tmp_path / f"ring{q}.spec", ring(q))
        for argv in (["check"], ["gains", "--recipe", "alg1"]):
            calls = []
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(
                    np.linalg, "eigvals", lambda a, f=np.linalg.eigvals: calls.append(a) or f(a)
                )
                out = str(tmp_path / "out")
                assert run(argv[0], "--spec", str(path), *argv[1:], "--out", out) == 0
            counts[argv[0], q] = len(calls)
    assert counts == {("check", 5): 1, ("check", 50): 1, ("gains", 5): 1, ("gains", 50): 1}


def linalg_calls(mp, names):
    """{name: calls} of the np.linalg functions named, counted until mp is undone."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        fn = getattr(np.linalg, name)

        def counted(*a, _name=name, _fn=fn, **k):
            counts[_name] += 1
            return _fn(*a, **k)

        mp.setattr(np.linalg, name, counted)
    return counts


def test_svd_and_eigh_calls_do_not_grow_with_the_edge_count(tmp_path):
    # ring(q)'s drift has one conjugate pair +-i on the axis: one PBH test per
    # shape group and one semisimplicity test for the pair, one eigenspace
    # basis for the split, and (check) one projection and one violation in
    # the P search.  A later change may lower these counts, never raise them.
    counts = {}
    for q in (5, 50):
        path = write_spec(tmp_path / f"ring{q}.spec", ring(q))
        for argv in (["check"], ["gains", "--recipe", "alg1"]):
            with pytest.MonkeyPatch.context() as mp:
                calls = linalg_calls(mp, ("svd", "eigh"))
                out = str(tmp_path / "out")
                assert run(argv[0], "--spec", str(path), *argv[1:], "--out", out) == 0
            counts[argv[0], q] = calls
    assert counts == {
        ("check", 5): {"svd": 3, "eigh": 1}, ("check", 50): {"svd": 3, "eigh": 1},
        ("gains", 5): {"svd": 3, "eigh": 0}, ("gains", 50): {"svd": 3, "eigh": 0},
    }


def test_check_on_a_hurwitz_drift_runs_no_pbh_test(tmp_path):
    # no eigenvalue on or beyond the axis: every edge is detectable untested
    A = sla.block_diag([[-1.0, 2.0], [-2.0, -1.0]], [[-1.0, 0.5], [0.0, -2.0]])
    C = np.diag([1.0, 2.0, 1.5, 1.0])
    spec = ArraySpec(q=5, n=4, A=A, C={(i, j): C for i in range(5) for j in range(5) if i != j})
    path = write_spec(tmp_path / "hurwitz.spec", spec)
    out = tmp_path / "report"
    with pytest.MonkeyPatch.context() as mp:
        calls = linalg_calls(mp, ("svd",))
        mp.setattr(spectralmod, "_pbh", lambda *a: pytest.fail("PBH test on an empty boundary"))
        assert run("check", "--spec", str(path), "--out", str(out)) == 0
    assert calls == {"svd": 0}
    detectable = [ln for ln in read(out).splitlines() if ln.startswith("detectable")]
    assert len(detectable) == 10 and all(ln.endswith(" true") for ln in detectable)


def test_theorem1_gains_verify_their_P_once(tmp_path):
    # the CLI's certificate is the one the gains carry, whether P is searched
    # or read from the document
    spec = random_complete_cl_spec(np.random.default_rng(0), q=20, n=4)
    searched = write_spec(tmp_path / "searched.spec", spec)
    given = tmp_path / "given.spec"
    given.write_text(serialize_spec_document(SpecDocument(spec=spec, P=find_common_P(spec).P)))
    counts = []
    for path in (searched, given):
        calls = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(
                gainsmod, "verify_cl_detectability",
                lambda *a, f=gainsmod.verify_cl_detectability, **k: calls.append(a) or f(*a, **k),
            )
            out = str(tmp_path / "out.gains")
            assert run("gains", "--spec", str(path), "--recipe", "theorem1", "--out", out) == 0
        counts.append(len(calls))
    assert counts == [1, 1]


def test_env_tolerance_builds_the_edge_table_once(tmp_path, monkeypatch):
    # MATSYNC_TOL changes only the spec's edge_tol, so each command stacks
    # the edge outputs once, for the spec that carries it
    spec = random_complete_cl_spec(np.random.default_rng(0), q=6, n=3)
    path = write_spec(tmp_path / "cl6.spec", spec)
    monkeypatch.setenv("MATSYNC_TOL", "1e-12")
    of = EdgeTable.of.__func__
    counts = {}
    for argv in (["check"], ["gains", "--recipe", "theorem1"], ["sweep", "--points", "2"]):
        calls = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(EdgeTable, "of", classmethod(lambda cls, cmap: calls.append(1) or of(cls, cmap)))
            out = str(tmp_path / "out")
            assert run(argv[0], "--spec", str(path), *argv[1:], "--out", out) == 0
        counts[argv[0]] = len(calls)
    assert counts == {"check": 1, "gains": 1, "sweep": 1}


def test_theorem1_builds_the_graph_once(tmp_path):
    # the gate's graph is the one the condition (14) report reads
    spec = random_complete_cl_spec(np.random.default_rng(0), q=20, n=2)
    path = write_spec(tmp_path / "cl20.spec", spec)
    counts = {}
    for argv in (["check"], ["gains", "--recipe", "theorem1"], ["gains", "--recipe", "theorem1", "--force"]):
        calls = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(gainsmod, "build_graph", lambda s, f=gainsmod.build_graph: calls.append(1) or f(s))
            assert run(argv[0], "--spec", str(path), *argv[1:], "--out", str(tmp_path / "out")) == 0
        counts[" ".join(argv)] = len(calls)
    assert set(counts.values()) == {1}, counts


@pytest.mark.parametrize("argv", [["sweep", "--points", "2"], ["gains", "--recipe", "alg1", "--force"]])
def test_commands_without_the_gate_validate_no_spec(argv, ms_spec, tmp_path, monkeypatch):
    # sweep reads only the certificate, and --force skips the gate: neither
    # needs the symmetry report, the graph or its connectivity
    for name in ("validate_spec", "build_graph", "is_connected"):
        monkeypatch.setattr(gainsmod, name, lambda *a, name=name: pytest.fail(f"called {name}"))
    assert run(argv[0], "--spec", str(ms_spec), *argv[1:], "--out", str(tmp_path / "out")) == 0
