import subprocess
import sys

import numpy as np
import pytest

from conftest import off_sync_eigenvalues, spectrum_partition_gap, sweep_gains
from matsync import closed_loop, find_common_P
from matsync.cli import main
from matsync.specdoc import parse_gains_document, parse_spec_document


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
        th = 0.7
        c, s = float(np.cos(th)), float(np.sin(th))
        spec.write_text(
            "q 2\nn 2\ntime_domain discrete\nA\n"
            f"{c!r} {-s!r}\n{s!r} {c!r}\n"
            "edge 1 2\n1.0 0.0\n0.0 1.0\nedge 2 1\n1.0 0.0\n0.0 1.0\n"
        )
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
        P = find_common_P(spec.A, spec).P
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


def test_console_entry_point(tmp_path):
    out = tmp_path / "c.spec"
    proc = subprocess.run(
        [sys.executable, "-m", "matsync.cli", "example", "chain5", "--out", str(out)],
        capture_output=True,
    )
    assert proc.returncode == 0
    assert out.exists()


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
