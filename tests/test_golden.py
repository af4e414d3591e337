"""Regression gate on CLI outputs.

``tests/golden/commands.json`` holds the exit code, byte count, sha256
digest and stderr text of each `example`, `check`, `gains` and refused
`sweep` case below; these outputs must stay byte-identical.

``tests/golden/simulate.json`` holds each `simulate` case as a parsed trace,
and ``tests/golden/sweep.json`` the parsed ``alpha rho`` rows of each `sweep`
case.  Both are compared with a tolerance, because their numbers come from
floating-point work whose last bits move with any change to its order.

A trace must keep its exit code, row count, header and verdict line exactly,
and its time column and initial state as bit-equal floats: their cell text
may change, their parsed values may not.  Its other values are compared on
TRACE_SAMPLES + 1 evenly spread rows, the first and the last among them: states and
sync_error within ``TRACE_RTOL * ||x_row||``, disagreement within
``TRACE_RTOL * ||x_row||^2``.  A sweep must keep its alphas, each rho within
``SWEEP_RTOL * max(1, ||Psi(alpha)||_2)``, and a summary line naming the
smallest printed row.

Regenerate a gate only for a change that alters its output on purpose, and
say so in CHANGES.md.  Name the gates to rewrite, from simulate, commands
and sweep; the others' files are left as they are:

    PYTHONPATH=src python tests/test_golden.py simulate
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

import numpy as np
import pytest

from conftest import (
    CT_ILL_SPLIT_SPEC,
    DT_ILL_SPLIT_SPEC,
    SINGULAR_P_SPEC,
    TRACE_RTOL,
    assert_exit_contract,
    sweep_gains,
)
from matsync import closed_loop, find_common_P, verify_cl_detectability
from matsync.cli import main
from matsync.specdoc import parse_spec_document

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
SWEEP_RTOL = 1e-11
TRACE_SAMPLES = 64  # intervals between the sampled rows of a trace

# x+ = 1.00015 x on the sync subspace: passes the divergence cap after ~1.2e5
# steps, past the row cap, where the kept-row stride of the truncated run (2)
# differs from that of the full horizon (3).
SLOW_RAMP_SPEC = "q 2\nn 1\ntime_domain discrete\nA\n1.00015\nedge 1 2\n1.0\nedge 2 1\n1.0\n"
SLOW_RAMP_GAINS = "recipe manual\nq 2\nn 1\nepsilon 0.5\ngain 1 2\n1.0\ngain 2 1\n1.0\n"

ROTATION_SPEC = (
    "q 3\nn 2\ntime_domain discrete\nA\n"
    "0.7648421872844885 -0.644217687237691\n0.644217687237691 0.7648421872844885\n"
    "edge 1 2\n1.0 0.0\nedge 2 1\n1.0 0.0\nedge 2 3\n0.0 1.0\nedge 3 2\n0.0 1.0\n"
)

# harmonic oscillator whose P fails the CL-detectability check; P is not
# symmetric, so a gains document that keeps it as written shows it
BAD_P_SPEC = (
    "q 2\nn 2\nA\n0.0 1.0\n-1.0 0.0\nedge 1 2\n1.0 0.0\nedge 2 1\n1.0 0.0\n"
    "P\n1.0 0.1\n0.3 1.0\n"
)

# unstable drift with undetectable outputs: no common P exists
NO_P_SPEC = "q 2\nn 2\nA\n1.0 0.0\n0.0 1.0\nedge 1 2\n1.0 0.0\nedge 2 1\n1.0 0.0\n"


def mass_spring_chain(q):
    """A builder document: a chain of q two-mass agents, n = 4."""
    return (
        f"builder mass_spring\nq {q}\nmasses 1.0 2.0\nsprings 1.0 1.5 0.5\n"
        + "".join(f"coupling {i} {i + 1}  0.8 0.5\n" for i in range(1, q))
    )


# at qn = 200 the stepper's power table holds R alone (B = 1)
WIDE_CHAIN_SPEC = mass_spring_chain(50)
# the shortest chain whose RK4 step matrix simulate_ct forms in CSR; recorded
# from the dense products, so the trace gate compares the two
SPARSE_STEP_CHAIN_SPEC = mass_spring_chain(54)

# name -> (bundled example or spec text, gains argv or gains text, simulate argv, to stdout)
CASES = {
    "mass_spring_past_row_cap": (
        "mass_spring_demo", ["--recipe", "alg1"],
        ["--seed", "3", "--horizon", "120", "--step", "1e-3"], False,
    ),
    "counterexample_diverges_early": (
        "counterexample_asym", ["--recipe", "alg1", "--force"],
        ["--seed", "0", "--horizon", "10"], False,
    ),
    "mass_spring_rk4_step_too_large": (
        "mass_spring_demo", ["--recipe", "alg1"],
        ["--seed", "1", "--horizon", "100", "--step", "2.0"], False,
    ),
    "dt_diverges_past_row_cap": (
        SLOW_RAMP_SPEC, SLOW_RAMP_GAINS, ["--seed", "2", "--horizon", "200000"], False,
    ),
    "lc_demo_short_stdout": (
        "lc_demo", ["--recipe", "alg1"],
        ["--seed", "5", "--horizon", "3", "--step", "0.01"], True,
    ),
    "dt_rotation_ring_stdout": (
        ROTATION_SPEC, ["--recipe", "alg2"], ["--seed", "4", "--horizon", "300"], True,
    ),
    "mass_spring_chain50_one_power": (
        WIDE_CHAIN_SPEC, ["--recipe", "alg1"],
        ["--seed", "7", "--horizon", "2", "--step", "0.01"], False,
    ),
    "mass_spring_chain54_sparse_step": (
        SPARSE_STEP_CHAIN_SPEC, ["--recipe", "alg1"],
        ["--seed", "8", "--horizon", "2", "--step", "0.01"], False,
    ),
}


# name -> (bundled example or spec text, command argv after --spec, MATSYNC_TOL or
# None); a case whose spec is None runs its argv without --spec
COMMAND_CASES = {
    **{
        f"example_{ex}": (None, ["example", ex], None)
        for ex in ("chain5", "counterexample_asym", "mass_spring_demo", "lc_demo")
    },
    **{
        f"check_{ex}": (ex, ["check"], None)
        for ex in ("chain5", "counterexample_asym", "mass_spring_demo", "lc_demo")
    },
    "check_chain5_env_tol": ("chain5", ["check"], "1e-3"),
    "check_bad_P": (BAD_P_SPEC, ["check"], None),
    "check_no_P": (NO_P_SPEC, ["check"], None),
    "gains_chain5_theorem1": ("chain5", ["gains", "--recipe", "theorem1"], None),
    "gains_chain5_theorem1_bad_env": ("chain5", ["gains", "--recipe", "theorem1"], "x"),
    "gains_mass_spring_alg1": ("mass_spring_demo", ["gains", "--recipe", "alg1"], None),
    "gains_lc_alg1": ("lc_demo", ["gains", "--recipe", "alg1"], None),
    "gains_counterexample_alg1_force": (
        "counterexample_asym", ["gains", "--recipe", "alg1", "--force"], None,
    ),
    "gains_counterexample_theorem1": (
        "counterexample_asym", ["gains", "--recipe", "theorem1"], None,
    ),
    "gains_counterexample_theorem1_force": (
        "counterexample_asym", ["gains", "--recipe", "theorem1", "--force"], None,
    ),
    "gains_rotation_ring_alg2": (ROTATION_SPEC, ["gains", "--recipe", "alg2"], None),
    "gains_bad_P_theorem1": (BAD_P_SPEC, ["gains", "--recipe", "theorem1"], None),
    "gains_bad_P_theorem1_force": (
        BAD_P_SPEC, ["gains", "--recipe", "theorem1", "--force", "--alpha", "2"], None,
    ),
    "gains_no_P_theorem1": (NO_P_SPEC, ["gains", "--recipe", "theorem1"], None),
    "gains_no_P_theorem1_force": (NO_P_SPEC, ["gains", "--recipe", "theorem1", "--force"], None),
    "check_dt_ill_split": (DT_ILL_SPLIT_SPEC, ["check"], None),
    "gains_dt_ill_split_alg2": (DT_ILL_SPLIT_SPEC, ["gains", "--recipe", "alg2"], None),
    "check_ct_ill_split": (CT_ILL_SPLIT_SPEC, ["check"], None),
    "gains_ct_ill_split_alg1": (CT_ILL_SPLIT_SPEC, ["gains", "--recipe", "alg1"], None),
    "check_singular_P": (SINGULAR_P_SPEC, ["check"], None),
    "gains_singular_P_theorem1": (SINGULAR_P_SPEC, ["gains", "--recipe", "theorem1"], None),
    "sweep_bad_P": (BAD_P_SPEC, ["sweep"], None),
    "sweep_no_P": (NO_P_SPEC, ["sweep"], None),
    # alpha P^-1 C'C overflows a double: exit 1 naming alpha, no rows
    "sweep_chain5_alpha_overflow": (
        "chain5", ["sweep", "--points", "1", "--alpha-min", "1e308"], None,
    ),
}

# name -> (bundled example, sweep points)
SWEEP_CASES = {
    "chain5": ("chain5", 50),
    "counterexample_asym": ("counterexample_asym", 5),
}


def write_spec(spec_src, path):
    """Write spec text, or the bundled example of that name, to path."""
    if "\n" in spec_src:
        with open(path, "w") as fh:
            fh.write(spec_src)
    else:
        assert main(["example", spec_src, "--out", path]) == 0


def produce(name, directory):
    """(exit code, output bytes) of the case's `simulate` command."""
    spec_src, gains_src, sim_args, to_stdout = CASES[name]
    spec = os.path.join(directory, f"{name}.spec")
    gains = os.path.join(directory, f"{name}.gains")
    write_spec(spec_src, spec)
    if isinstance(gains_src, str):
        with open(gains, "w") as fh:
            fh.write(gains_src)
    else:
        assert main(["gains", "--spec", spec, *gains_src, "--out", gains]) == 0
    argv = ["simulate", "--spec", spec, "--gains", gains, *sim_args]
    if to_stdout:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = main(argv)
        return rc, buf.getvalue().encode()
    out = os.path.join(directory, f"{name}.csv")
    rc = main(argv + ["--out", out])
    with open(out, "rb") as fh:
        return rc, fh.read()


@contextlib.contextmanager
def env_tol(value):
    saved = os.environ.pop("MATSYNC_TOL", None)
    if value is not None:
        os.environ["MATSYNC_TOL"] = value
    try:
        yield
    finally:
        os.environ.pop("MATSYNC_TOL", None)
        if saved is not None:
            os.environ["MATSYNC_TOL"] = saved


def run_captured(argv, tol=None):
    """(exit code, stdout bytes, stderr text) of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with env_tol(tol), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue().encode(), err.getvalue()


def produce_command(name, directory):
    spec_src, argv, tol = COMMAND_CASES[name]
    if spec_src is not None:
        spec = os.path.join(directory, f"{name}.spec")
        write_spec(spec_src, spec)
        argv = [argv[0], "--spec", spec, *argv[1:]]
    rc, data, err = run_captured(argv, tol)
    return {**record(rc, data), "stderr": err}


def produce_sweep(name, directory):
    """{"exit", "rows", "summary"} of the case's `sweep` command."""
    example, points = SWEEP_CASES[name]
    spec = os.path.join(directory, f"{name}.spec")
    write_spec(example, spec)
    rc, data, _ = run_captured(["sweep", "--spec", spec, "--points", str(points)])
    lines = data.decode().splitlines()
    rows = [[float(t) for t in ln.split()] for ln in lines if not ln.startswith("#")]
    return {"exit": rc, "rows": rows, "summary": [ln for ln in lines if ln.startswith("#")]}


def sweep_system_norms(spec_path, alphas):
    """||Psi(alpha)||_2 for the P the sweep uses: the document's, else a searched one."""
    with open(spec_path) as fh:
        doc = parse_spec_document(fh.read())
    spec = doc.spec
    if doc.P is not None:
        P = verify_cl_detectability(spec, doc.P).P
    else:
        P = find_common_P(spec).P
    return [
        np.linalg.norm(closed_loop(spec, sweep_gains(spec, P, alpha)).system_matrix, 2)
        for alpha in alphas
    ]


def record(rc, data):
    return {"exit": rc, "bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}


def sampled_rows(rows):
    """TRACE_SAMPLES + 1 row indices spread evenly from the first row to the last."""
    return sorted({round(i * (rows - 1) / TRACE_SAMPLES) for i in range(TRACE_SAMPLES + 1)})


def trace_record(rc, data):
    """The parts of a `simulate` output that the trace gate compares.

    The first row's time and state are kept as floats, and the time column as
    the sha256 of its float64 bytes, so both are compared as values.
    """
    header, *body, verdict = data.decode().splitlines()
    times = np.array([float(line.split(",", 1)[0]) for line in body], dtype="<f8")
    return {
        "exit": rc, "rows": len(body), "header": header,
        "x0": [float(v) for v in body[0].split(",")[:-2]],
        "verdict": verdict,
        "times_sha256": hashlib.sha256(times.tobytes()).hexdigest(),
        "sample": [body[i] for i in sampled_rows(len(body))],
    }


def assert_rows_close(got, want):
    """Compare CSV rows t, x..., sync_error, disagreement within TRACE_RTOL."""
    got = np.array([[float(v) for v in line.split(",")] for line in got])
    want = np.array([[float(v) for v in line.split(",")] for line in want])
    assert np.array_equal(got[:, 0], want[:, 0])
    norm = np.linalg.norm(want[:, 1:-2], axis=1)
    dev = np.abs(got - want)
    assert (dev[:, 1:-1].max(axis=1) <= TRACE_RTOL * norm).all()
    assert (dev[:, -1] <= TRACE_RTOL * norm**2).all()


def golden_path(gate):
    return os.path.join(GOLDEN_DIR, f"{gate}.json")


def load(gate, name):
    with open(golden_path(gate)) as fh:
        return json.load(fh)[name]


def assert_trace_matches(name, got, want, directory):
    exact = ("exit", "rows", "header", "x0", "verdict", "times_sha256")
    assert {k: got[k] for k in exact} == {k: want[k] for k in exact}
    assert_rows_close(got["sample"], want["sample"])


def assert_command_matches(name, got, want, directory):
    assert got == want


def assert_sweep_matches(name, got, want, directory):
    """got within the sweep gate of want; the case's spec is in directory."""
    assert got["exit"] == want["exit"] == 0
    alphas = [a for a, _ in got["rows"]]
    assert alphas == [a for a, _ in want["rows"]]
    norms = sweep_system_norms(os.path.join(directory, f"{name}.spec"), alphas)
    for (alpha, rho), (_, rho_want), norm in zip(got["rows"], want["rows"], norms):
        assert abs(rho - rho_want) <= SWEEP_RTOL * max(1.0, norm), alpha
    best_alpha, best_rho = min(got["rows"], key=lambda row: row[1])
    assert got["summary"] == [f"# min rho {best_rho!r} at alpha {best_alpha!r}"]


@pytest.mark.parametrize("name", sorted(CASES))
def test_simulate_output_matches_golden(name, tmp_path):
    got = trace_record(*produce(name, str(tmp_path)))
    assert_trace_matches(name, got, load("simulate", name), str(tmp_path))


@pytest.mark.parametrize("name", sorted(COMMAND_CASES))
def test_command_output_matches_golden(name, tmp_path):
    got = produce_command(name, str(tmp_path))
    assert_command_matches(name, got, load("commands", name), str(tmp_path))


@pytest.mark.parametrize("name", sorted(COMMAND_CASES))
def test_command_cases_keep_the_exit_contract(name, tmp_path):
    spec_src, argv, tol = COMMAND_CASES[name]
    if spec_src is not None:
        spec = str(tmp_path / f"{name}.spec")
        write_spec(spec_src, spec)
        argv = [argv[0], "--spec", spec, *argv[1:]]
    rc, data, err = run_captured(argv, tol)
    assert_exit_contract(argv[0], rc, data.decode(), err)


@pytest.mark.parametrize("name", sorted(SWEEP_CASES))
def test_sweep_within_tolerance_of_golden(name, tmp_path):
    got = produce_sweep(name, str(tmp_path))
    assert_sweep_matches(name, got, load("sweep", name), str(tmp_path))


# gate -> (the case's golden record, cases, the gate's comparison); a gate's
# file is golden_path(gate)
GATES = {
    "simulate": (lambda name, d: trace_record(*produce(name, d)), CASES, assert_trace_matches),
    "commands": (produce_command, COMMAND_CASES, assert_command_matches),
    "sweep": (produce_sweep, SWEEP_CASES, assert_sweep_matches),
}


def regenerate(gates):
    """Rewrite the golden file of each named gate; 2 on a missing or unknown name.

    A case whose new record passes the gate against its stored one keeps the
    stored one, so only the cases that moved, new ones and removed ones
    change the file.
    """
    unknown = [g for g in gates if g not in GATES]
    if not gates or unknown:
        if unknown:
            print(f"unknown gate: {', '.join(unknown)}", file=sys.stderr)
        print(f"usage: python tests/test_golden.py GATE... (gates: {', '.join(GATES)})",
              file=sys.stderr)
        return 2
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for gate in gates:
        produce_one, names, assert_matches = GATES[gate]
        try:
            with open(golden_path(gate)) as fh:
                stored = json.load(fh)
        except FileNotFoundError:
            stored = {}
        golden = {}
        with tempfile.TemporaryDirectory() as d:
            for name in sorted(names):
                golden[name] = produce_one(name, d)
                try:
                    assert_matches(name, golden[name], stored[name], d)
                    golden[name] = stored[name]
                except (KeyError, AssertionError):
                    pass
        with open(golden_path(gate), "w") as fh:
            json.dump(golden, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {golden_path(gate)}")
    return 0


def test_regenerate_writes_only_the_named_gate(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(sys.modules[__name__], "GOLDEN_DIR", str(tmp_path))
    assert regenerate([]) == 2
    assert "gates: simulate, commands, sweep" in capsys.readouterr().err
    assert regenerate(["sweep", "golden"]) == 2
    assert "unknown gate: golden" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []
    assert regenerate(["sweep"]) == 0
    assert os.listdir(tmp_path) == ["sweep.json"]
    with open(tmp_path / "sweep.json") as fh:
        assert sorted(json.load(fh)) == sorted(SWEEP_CASES)


def test_regenerate_keeps_the_records_that_still_match(tmp_path, monkeypatch):
    monkeypatch.setattr(sys.modules[__name__], "GOLDEN_DIR", str(tmp_path))
    assert regenerate(["sweep"]) == 0
    with open(golden_path("sweep")) as fh:
        fresh = json.load(fh)
    stored = json.loads(json.dumps(fresh))
    stored["chain5"]["rows"][0][1] += 1e-13  # inside the gate: kept
    stored["counterexample_asym"]["rows"][0][1] += 1e-3  # past it: rewritten
    stored["gone"] = stored["chain5"]  # no such case: dropped
    with open(golden_path("sweep"), "w") as fh:
        json.dump(stored, fh)
    assert regenerate(["sweep"]) == 0
    with open(golden_path("sweep")) as fh:
        kept = json.load(fh)
    assert kept == {"chain5": stored["chain5"], "counterexample_asym": fresh["counterexample_asym"]}
    with open(golden_path("sweep"), "rb") as fh:
        before = fh.read()
    assert regenerate(["sweep"]) == 0
    with open(golden_path("sweep"), "rb") as fh:
        assert fh.read() == before


if __name__ == "__main__":
    sys.exit(regenerate(sys.argv[1:]))
