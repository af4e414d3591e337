"""Regression gate on the example scripts' output.

Each script under ``scripts/`` runs in its own interpreter, with numpy
RuntimeWarnings and DeprecationWarnings as errors and single-thread BLAS,
and its standard output must match ``tests/golden/scripts/<name>.txt`` byte
for byte.  Regenerate a file only for a change that alters a script's output
on purpose, and say so in CHANGES.md.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "golden", "scripts")


@pytest.mark.parametrize("name", ["reproduce_examples", "demo_neutral_sync"])
def test_script_prints_its_golden_bytes(name):
    env = dict(
        os.environ,
        PYTHONPATH=os.path.join(ROOT, "src"),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
    )
    script = os.path.join(ROOT, "scripts", f"{name}.py")
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-W", "error::DeprecationWarning", script],
        capture_output=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    with open(os.path.join(GOLDEN, f"{name}.txt"), "rb") as fh:
        assert proc.stdout == fh.read()
