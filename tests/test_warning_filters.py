"""The pytest settings in `pyproject.toml` let a failing Hypothesis test fail alone.

Every warning is an error there.  When Hypothesis reports a failing example
it imports libcst, which warns that `mypy_extensions.TypedDict` is
deprecated; as an error, that warning ends the session in an INTERNALERROR
and the tests after it are never reported.  The settings ignore that one
warning, so a run of one failing `@given` test and one passing test reports
both.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

TWO_TESTS = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 0


def test_passes():
    assert True
"""


def test_failing_given_test_does_not_end_the_run(tmp_path):
    (tmp_path / "test_two.py").write_text(TWO_TESTS)
    env = {**os.environ, "HYPOTHESIS_STORAGE_DIRECTORY": str(tmp_path / "hypothesis")}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"), "-q",
         "-p", "no:cacheprovider", str(tmp_path / "test_two.py")],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert proc.returncode == 1
    assert "1 failed, 1 passed" in proc.stdout
