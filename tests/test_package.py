import os
import subprocess
import sys
import types
import typing
from pathlib import Path

import pytest

import meshsim

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"

# modules that only some calls need, imported by those calls rather than by ``import meshsim``
LAZY_MODULES = ("statistics", "importlib.resources", "socketserver")

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


def public_callables():
    """Each public function and class in ``meshsim.__all__``, and each method a class defines."""
    for name in meshsim.__all__:
        value = getattr(meshsim, name)
        if not callable(value):
            continue
        yield name, value
        if isinstance(value, type):
            for attr, member in vars(value).items():
                member = getattr(member, "__func__", getattr(member, "fget", member))
                if isinstance(member, types.FunctionType):
                    yield f"{name}.{attr}", member


def test_every_public_annotation_resolves():
    # an annotation naming a module that only the function body imports fails here
    unresolved = []
    for name, value in public_callables():
        try:
            typing.get_type_hints(value)
        except NameError as error:
            unresolved.append(f"{name}: {error}")
    assert not unresolved


def test_readme_library_tour_runs():
    # the tour reads attributes such as ``world.nodes[2].relay``, so a rename fails here
    tour = (ROOT / "README.md").read_text().split("## Library tour", 1)[1]
    block = tour.split("```python\n", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["world"].now == 5_000


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


PROFILE_PROBE = """
from hypothesis import settings


def test_profile():
    print("profile:", settings.get_current_profile_name(), settings.default.derandomize)
"""


@pytest.mark.parametrize("option, loaded", [
    ([], "meshsim True"),
    (["--hypothesis-profile", "meshsim-random"], "meshsim-random False"),
])
def test_a_hypothesis_profile_named_on_the_command_line_is_the_one_loaded(tmp_path, option,
                                                                          loaded):
    # the test suite's conftest loads its default profile when it is imported, and the
    # plugin must load the one named on the command line after it
    (tmp_path / "conftest.py").write_text((ROOT / "tests" / "conftest.py").read_text())
    (tmp_path / "test_profile.py").write_text(PROFILE_PROBE)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-s", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_profile.py", *option],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stdout + result.stderr
    assert f"profile: {loaded}" in result.stdout


def test_import_loads_no_module_that_only_some_calls_need():
    # ``-S`` skips ``site``, so only what ``import meshsim`` pulls in is loaded
    probe = ("import sys, meshsim\n"
             f"print(sorted(m for m in {LAZY_MODULES!r} if m in sys.modules))\n"
             "print(meshsim.load_scenario('line3').topology[-1].node)")
    result = subprocess.run(
        [sys.executable, "-S", "-c", probe], env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split("\n") == ["[]", "2", ""]
