"""The scripts in demos/ run to completion against the current package."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import wpsc

DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(Path(wpsc.__file__).parents[1])}
    out = subprocess.run([sys.executable, str(demo)], env=env, cwd=tmp_path,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
