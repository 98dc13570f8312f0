"""The package runs on the standard library alone: numpy and the other
test dependencies stay out of `src/bionode` and out of a CLI process."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
SOURCES = sorted((ROOT / "src" / "bionode").glob("*.py"))


def imported_modules(path: Path) -> set[str]:
    """Top-level names of every module the file imports; relative imports are bionode."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add("bionode" if node.level else node.module.split(".")[0])
    return names


@pytest.mark.parametrize("path", SOURCES, ids=[p.stem for p in SOURCES])
def test_imports_only_the_standard_library(path):
    outside = imported_modules(path) - set(sys.stdlib_module_names) - {"bionode"}
    assert not outside, f"{path.name} imports {sorted(outside)}"


@pytest.mark.parametrize("argv", [
    ["-c", "import bionode"],
    ["-m", "bionode.cli", "fath-demo"],
], ids=["import", "fath-demo"])
def test_numpy_is_never_loaded(argv):
    """-X importtime logs every module the process imports, one per stderr line."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-X", "importtime", *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    loaded = {line.rsplit("|", 1)[-1].strip().split(".")[0]
              for line in done.stderr.splitlines() if line.startswith("import time:")}
    assert "bionode" in loaded
    assert "numpy" not in loaded
