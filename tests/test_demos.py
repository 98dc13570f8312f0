"""The walkthroughs in demos/ run to completion and print the same bytes
on every run."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_demo(demo: Path) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, str(demo)], env=env, capture_output=True, text=True, timeout=120
    )


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs_and_is_deterministic(demo):
    first = run_demo(demo)
    assert first.returncode == 0, first.stderr
    assert first.stdout
    assert run_demo(demo).stdout == first.stdout
