"""Every demo script runs to completion and prints its pinned output.

``tests/data/demo_outputs/<stem>.txt`` holds each demo's standard output as an
earlier build printed it; every demo is deterministic. Rewrite the files only
in a change that alters a demo's output on purpose, and say so in that change::

    PYTHONPATH=src python tests/test_demos.py
"""

import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
DEMO_OUTPUTS = Path(__file__).parent / "data" / "demo_outputs"


def run_demo(demo: Path, cwd: Path) -> subprocess.CompletedProcess:
    # demos that write files write them under the working directory
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(demo)], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.stem for demo in DEMOS])
def test_demo_runs(demo, tmp_path):
    result = run_demo(demo, tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stdout == (DEMO_OUTPUTS / f"{demo.stem}.txt").read_text()


if __name__ == "__main__":
    DEMO_OUTPUTS.mkdir(parents=True, exist_ok=True)
    for demo in DEMOS:
        with tempfile.TemporaryDirectory() as cwd:
            result = run_demo(demo, Path(cwd))
        result.check_returncode()
        (DEMO_OUTPUTS / f"{demo.stem}.txt").write_text(result.stdout)
        print(f"wrote {demo.stem}.txt")
