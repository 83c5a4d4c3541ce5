"""The session's warning filters, as pyproject.toml declares them: a
deprecation attributed to repsq code is an error, and a third-party
one is only shown, so one failing hypothesis test (whose report imports
libcst, which raises a DeprecationWarning on import) fails alone
instead of aborting the session with INTERNALERROR."""

from pathlib import Path

pytest_plugins = ["pytester"]

ROOT = Path(__file__).resolve().parents[1]

PROBE = """
import warnings

from hypothesis import given, strategies as st


@given(st.integers())
def test_hypothesis_failure(x):
    assert x < 10


def test_runs_after_the_failure():
    pass


def test_deprecation_in_repsq_code():
    warnings.warn_explicit("old API", {category}, "harness.py", 1, module="repsq.harness")


def test_deprecation_in_a_third_party_module():
    warnings.warn_explicit("old API", {category}, "base.py", 1, module="libcst.metadata")
"""


def run_probe(pytester, monkeypatch, category: str):
    """The probe in a fresh session under a copy of pyproject.toml."""
    monkeypatch.setenv("PYTHONPATH", str(ROOT / "src"))  # the filters name repsq.errors
    pytester.makefile(".toml", pyproject=(ROOT / "pyproject.toml").read_text())
    pytester.makepyfile(test_probe=PROBE.format(category=category))
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider", "test_probe.py")
    assert "INTERNALERROR" not in result.stdout.str() + result.stderr.str()
    result.assert_outcomes(failed=2, passed=2)
    result.stdout.fnmatch_lines([
        "*_ test_hypothesis_failure _*",
        "*_ test_deprecation_in_repsq_code _*",
        f"E*{category}: old API",
        "FAILED test_probe.py::test_hypothesis_failure - *",
        "FAILED test_probe.py::test_deprecation_in_repsq_code - *",
    ])


def test_a_failing_hypothesis_test_does_not_abort_the_session(pytester, monkeypatch):
    run_probe(pytester, monkeypatch, "DeprecationWarning")


def test_a_future_warning_is_scoped_the_same_way(pytester, monkeypatch):
    run_probe(pytester, monkeypatch, "FutureWarning")
