"""Smoke self-test of the benchmark harness.

Runs every workload at its smallest level, traced and untraced, and checks
that the result line names exactly the metrics BENCHMARK.json declares and
that no output check failed.  Run from the root of a checkout:

    python3 -m pytest -q bench/test_smoke.py
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted(workload, trace):
    result = run(workload, trace)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"] is True
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared)
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0


def test_refuses_a_tree_without_the_package():
    """Without src/ next to it, the benchmark exits nonzero and prints no
    result."""
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_work") as tmp:
        bench = Path(tmp) / "bench"
        bench.mkdir()
        for path in (ROOT / "bench").glob("*.py"):
            (bench / path.name).write_bytes(path.read_bytes())
        (Path(tmp) / "BENCHMARK.json").write_text(json.dumps(SPEC))
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "tower", "--seed",
             "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=180)
    try:
        (ROOT / ".bench_work").rmdir()
    except OSError:
        pass
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
