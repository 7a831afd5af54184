"""The repository's pytest configuration turns warnings into errors, yet a
failing Hypothesis test is reported as one failure and the run goes on."""

import subprocess
import sys
from pathlib import Path

CONFIG = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_GIVEN_THEN_PASSING = """
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(x):
    assert x != x


def test_passes():
    pass
"""

WARNING_IN_A_TEST = """
import warnings


def test_warns():
    warnings.warn("a deprecated call", DeprecationWarning)
"""


def run_probe(tmp_path, source):
    probe = tmp_path / "test_probe.py"
    probe.write_text(source)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(CONFIG), "-p", "no:cacheprovider", "-q", str(probe)],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    return done.stdout + done.stderr


def test_a_failing_hypothesis_test_does_not_abort_the_run(tmp_path):
    out = run_probe(tmp_path, FAILING_GIVEN_THEN_PASSING)
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out


def test_a_warning_still_fails_its_test(tmp_path):
    out = run_probe(tmp_path, WARNING_IN_A_TEST)
    assert "DeprecationWarning: a deprecated call" in out
    assert "1 failed" in out
