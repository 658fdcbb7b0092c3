"""The repository's pytest configuration, run on throwaway test files in a
subprocess: every warning fails a test, a failing hypothesis property
still reports its falsifying example, every xfail is strict, an
unregistered marker is an error and so are two equal parametrization
ids."""
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_always_fails(k):
    assert k != k
"""

WARNING_TEST = """
import warnings


def test_warns():
    warnings.warn("some other deprecation", DeprecationWarning)
"""

PASSING_XFAIL = """
import pytest


@pytest.mark.xfail(reason="expected to fail")
def test_passes():
    pass
"""

UNKNOWN_MARKER = """
import pytest


@pytest.mark.not_a_registered_marker
def test_marked():
    pass
"""

DUPLICATE_IDS = """
import pytest


@pytest.mark.parametrize("x", [1, 2], ids=["same", "same"])
def test_cases(x):
    pass
"""


def run_pytest(tmp_path, source, *options):
    (tmp_path / "test_throwaway.py").write_text(source)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider",
         "--hypothesis-seed=0", *options, "test_throwaway.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    return run.returncode, run.stdout + run.stderr


def test_failing_property_reports_its_example(tmp_path):
    # hypothesis's failure report imports modules that warn on import; under
    # filterwarnings = error that warning must not end the session
    code, out = run_pytest(tmp_path, FAILING_PROPERTY)
    assert code == 1, out
    assert "Falsifying example" in out
    assert "INTERNALERROR" not in out


def test_other_warnings_still_fail(tmp_path):
    code, out = run_pytest(tmp_path, WARNING_TEST)
    assert code == 1, out
    assert "1 failed" in out


def test_passing_xfail_fails_the_session(tmp_path):
    # no strict=True on the marker: xfail_strict makes the unexpected pass a failure
    code, out = run_pytest(tmp_path, PASSING_XFAIL)
    assert code == 1, out
    assert "XPASS(strict)" in out


def test_unknown_marker_is_an_error(tmp_path):
    # strict_markers fails the collection; the unknown-mark warning is
    # ignored here, so that filterwarnings = error cannot fail it instead
    code, out = run_pytest(tmp_path, UNKNOWN_MARKER, "-W", "ignore::pytest.PytestUnknownMarkWarning")
    assert code == 2, out
    assert "not_a_registered_marker" in out and "1 error" in out


def test_duplicate_parametrization_ids_are_an_error(tmp_path):
    # strict_parametrization_ids fails the collection instead of
    # renaming the cases same0 and same1
    code, out = run_pytest(tmp_path, DUPLICATE_IDS)
    assert code == 2, out
    assert "Duplicate parametrization IDs" in out and "1 error" in out
