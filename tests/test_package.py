import subprocess
import sys
import types
from pathlib import Path

import meshsim

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = """
from hypothesis import given, settings, strategies as st


@settings(derandomize=True)
@given(st.integers())
def test_fails(n):
    assert n < 5
"""


def test_all_lists_every_public_name():
    public = [name for name, value in vars(meshsim).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)]
    assert sorted(meshsim.__all__) == sorted(public)


def test_a_failing_property_fails_without_aborting_the_run(tmp_path):
    # under the repository's warning filters, reporting the falsifying example
    # must not turn into an internal error that stops the whole test run
    (tmp_path / "test_fails.py").write_text(FAILING_PROPERTY)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert result.returncode == 1, result.stdout + result.stderr
    assert "INTERNALERROR" not in result.stdout + result.stderr
    assert "1 failed" in result.stdout
