"""The package runs on the standard library alone: numpy and the other
test dependencies stay out of `src/bionode` and out of a CLI process. And
every name it defines is reached from outside its own tests."""

import ast
import os
import re
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


SCANNED = [ROOT / "src", ROOT / "demos", ROOT / "bench"]


def definitions(path: Path) -> list[str]:
    """Each top-level def or class and each method of a top-level class, dunders excluded."""
    found = []
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        members = node.body if isinstance(node, ast.ClassDef) else []
        for d in [node, *members]:
            if isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (d.name.startswith("__") and d.name.endswith("__")):
                    found.append(d.name)
    return found


def references(path: Path) -> set[str]:
    """Every name the file's code uses: names, attributes, imported names, and
    each string that is a name or a dotted path ending in one (its last part).
    A string that only mentions a name, such as an error message, does not
    count, and docstrings and comments are prose, not code."""
    tree = ast.parse(path.read_text(), filename=str(path))
    prose = {
        id(node.body[0].value) for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and node.body and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant) and isinstance(node.body[0].value.value, str)
    }
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.update(node.name.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in prose:
            if re.fullmatch(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*", node.value):
                found.add(node.value.rsplit(".", 1)[-1])
    return found


# Definitions a framework calls by its own name, which no code of ours spells out.
FRAMEWORK_HOOKS = {
    ("cli", "error"),  # cli._Parser.error: argparse calls it on a usage error
}


@pytest.fixture(scope="module")
def reached() -> set[str]:
    return set().union(*(references(f) for top in SCANNED for f in sorted(top.rglob("*.py"))))


@pytest.mark.parametrize("path", SOURCES, ids=[p.stem for p in SOURCES])
def test_every_definition_is_reached(path, reached):
    """Reach it or remove it: the code of src/, demos/ or bench/ uses each
    name the module defines. A string that is the name or a dotted path to it
    counts, since bench/tracing.py patches entry points by name; a word in a
    message, a docstring or a comment does not."""
    unreached = [name for name in definitions(path)
                 if name not in reached and (path.stem, name) not in FRAMEWORK_HOOKS]
    assert not unreached, f"{path.name} defines names no code uses: {unreached}"


def test_a_name_only_in_a_message_is_unreached(tmp_path):
    """A function named only inside an error message is not a use; a string
    naming it whole, or a dotted path ending in it, is."""
    module = tmp_path / "mod.py"
    module.write_text(
        'def helper():\n    """helper is documented here."""\n\n\n'
        'def main():\n    raise ValueError("helper failed")  # helper\n'
    )
    assert "helper" not in references(module)
    for target in ('"helper"', '"mod.helper"'):
        module.write_text(f"def helper():\n    pass\n\n\nTARGET = {target}\n")
        assert "helper" in references(module)
