"""The repository's pytest settings, run on a small test file of their own."""

import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

TWO_TESTS = textwrap.dedent(
    """
    from hypothesis import given, strategies as st


    @given(st.integers())
    def test_property_fails(x):
        assert x < 5


    def test_runs_after_the_failed_property():
        pass
    """
)


def test_failing_property_reports_its_example_and_the_session_goes_on(tmp_path):
    # hypothesis imports libcst to print a patch for the failing example;
    # libcst's DeprecationWarning must not become an INTERNALERROR under the
    # error::DeprecationWarning filter, which would end the session there
    pytest.importorskip("libcst")
    (tmp_path / "test_two.py").write_text(TWO_TESTS)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-q", "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "INTERNALERROR" not in out
    assert "Falsifying example: test_property_fails(" in out
    assert "1 failed, 1 passed" in out
