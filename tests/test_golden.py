"""Byte-for-byte regression gate on `simulate` outputs.

``tests/golden/simulate.json`` holds the exit code, byte count and sha256
digest of each case below.  Regenerate it only for a change that alters the
output on purpose, and say so in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

import pytest

from matsync.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "simulate.json")

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
}


def produce(name, directory):
    """(exit code, output bytes) of the case's `simulate` command."""
    spec_src, gains_src, sim_args, to_stdout = CASES[name]
    spec = os.path.join(directory, f"{name}.spec")
    gains = os.path.join(directory, f"{name}.gains")
    if "\n" in spec_src:
        with open(spec, "w") as fh:
            fh.write(spec_src)
    else:
        assert main(["example", spec_src, "--out", spec]) == 0
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


def record(rc, data):
    return {"exit": rc, "bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}


@pytest.mark.parametrize("name", sorted(CASES))
def test_simulate_output_matches_golden(name, tmp_path):
    with open(GOLDEN) as fh:
        want = json.load(fh)[name]
    assert record(*produce(name, str(tmp_path))) == want


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as d:
        golden = {name: record(*produce(name, d)) for name in sorted(CASES)}
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    json.dump(golden, sys.stdout, indent=1, sort_keys=True)
