"""The suite's own pytest settings: a failing property test fails alone.

``filterwarnings = ["error"]`` turns every warning into an error, and
Hypothesis meets a third-party ``DeprecationWarning`` when it imports
``libcst`` to write a failing example's patch.  Unfiltered, that warning
aborts the whole run with ``INTERNALERROR`` after the first failing
``@given`` test, so the tests after it never run.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PAIR = """
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(n):
    assert n < 0


def test_passes():
    pass
"""


def test_a_failing_property_test_leaves_the_rest_of_the_run(tmp_path):
    (tmp_path / "test_pair.py").write_text(PAIR, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "test_pair.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1].startswith("1 failed, 1 passed in "), proc.stdout
