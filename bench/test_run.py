"""Self-test of the benchmark in its quick mode. It asserts nothing about timings.

    python3 -m pytest bench/test_run.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload, trace, root=ROOT):
    return subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0.1", "--trace", str(trace), "--quick"],
        capture_output=True, text=True, cwd=root, timeout=600,
    )


def copy_checkout(dest: Path, parts) -> Path:
    for part in parts:
        src = ROOT / part
        if src.is_dir():
            shutil.copytree(src, dest / part, ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy(src, dest / part)
    return dest


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_prints_every_metric_with_its_unit(workload, trace):
    out = bench(workload, trace)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    table = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in table}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    gate = json.loads(next(line for line in lines if line.startswith("gate "))[len("gate "):])
    assert gate == {name: True for name in run.SCENARIOS}


def test_spec_matches_the_metric_tables():
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]] == [
        row[:3] for row in run.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        row[:3] for row in run.LAYER_METRICS
    ]


def test_gate_reports_a_changed_golden_hash(tmp_path):
    root = copy_checkout(tmp_path, ["BENCHMARK.json", "bench", "src", "scenarios", "tests"])
    (root / "tests" / "golden" / "honest_events.sha256").write_text("0" * 64 + "\n")
    out = bench("epoch-close", 0, root)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert json.loads(lines[-1])["correct"] is False
    gate = json.loads(next(line for line in lines if line.startswith("gate "))[len("gate "):])
    assert gate["honest"] is False and gate["governed"] is True


def test_exits_without_a_result_when_only_the_benchmark_is_present(tmp_path):
    root = copy_checkout(tmp_path, ["BENCHMARK.json", "bench"])
    out = bench("sim-churn", 0, root)
    assert out.returncode != 0
    assert out.stdout == ""
