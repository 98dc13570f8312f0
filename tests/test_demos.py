"""The walkthroughs in demos/ run to completion and print the bytes pinned
in golden/demos.sha256, under any hash seed."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
PINNED = dict(line.split()[::-1] for line in (Path(__file__).parent / "golden" / "demos.sha256").read_text().splitlines())


def run_demo(demo: Path, hash_seed: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": hash_seed}
    return subprocess.run(
        [sys.executable, str(demo)], env=env, capture_output=True, timeout=120
    )


def test_every_demo_is_pinned():
    assert sorted(PINNED) == [d.name for d in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs_and_is_deterministic(demo):
    for hash_seed in ("0", "7"):
        done = run_demo(demo, hash_seed)
        assert done.returncode == 0, done.stderr.decode()
        assert hashlib.sha256(done.stdout).hexdigest() == PINNED[demo.name], hash_seed
