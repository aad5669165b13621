"""A failing hypothesis example is reported as a failure, and the run goes on."""

import os
import subprocess
import sys
from pathlib import Path

from conftest import SRC

TESTS = Path(__file__).resolve().parent
PYPROJECT = TESTS.parent / "pyproject.toml"

FAILING_SUITE = """
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_a_fails(value):
    assert value < 10


def test_b_runs_after_it():
    pass
"""


def test_failing_example_does_not_end_the_session(tmp_path):
    suite = tmp_path / "test_suite.py"
    suite.write_text(FAILING_SUITE)
    # the suite's own settings ("error" warning filter) and conftest
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-v", "-p", "no:cacheprovider", "-p", "conftest",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), str(suite)],
        env={**os.environ, "PYTHONPATH": os.pathsep.join([SRC, str(TESTS)])},
        capture_output=True, text=True, cwd=tmp_path)
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out
    assert "Falsifying example" in out
    assert "test_b_runs_after_it PASSED" in out
    assert "1 failed, 1 passed" in out
