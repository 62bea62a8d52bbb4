"""Tests of the benchmark itself.

    python -m pytest perfbench -q

The deterministic counts of a traced run (statuses, Newton steps, LP
calls, pivots) must repeat exactly between two processes at the same
seed and BLAS thread count; and the benchmark must refuse to run where
there are no sources to measure.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import tail  # noqa: E402

COUNTS = ("barrier.newton_steps", "barrier.outer_iters", "simplex.lp_calls", "simplex.pivots")


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _traced(workload: str, items: int, *extra: str) -> tuple[str, dict]:
    out = _run(ROOT, "--workload", workload, "--seed", "7", "--seconds", "0",
               "--trace", "1", "--items", str(items), *extra)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    statuses = next(line for line in lines if line.startswith("statuses "))
    return statuses, json.loads(lines[-1])


@pytest.mark.parametrize("workload,items", [("acceptance", 16), ("highdeg", 9), ("bnb", 1)])
def test_counts_repeat_exactly(workload, items, tmp_path):
    first_statuses, first = _traced(workload, items, "--spans", str(tmp_path / "spans"))
    second_statuses, second = _traced(workload, items)
    assert first["correct"] and second["correct"]
    assert first_statuses == second_statuses
    for name in COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    assert first["metrics"]["barrier.newton_steps"]["value"] > 0

    spans = [json.loads(line) for line in (tmp_path / "spans").read_text().splitlines()]
    by_id = {span["span_id"]: span for span in spans}
    for span in spans:
        if span["parent"] >= 0:
            parent = by_id[span["parent"]]
            assert parent["request"] == span["request"]
            assert parent["start"] <= span["start"] <= span["end"] <= parent["end"]
    names = {span["name"] for span in spans}
    assert {"solve_relaxation", "repair_and_certify", "build_model", "lp_solve"} <= names
    if workload == "bnb":
        # Every node's barrier call is seen, inside its node span.
        nodes = {span["span_id"] for span in spans if span["name"] == "solve_on_box"}
        barrier = [s for s in spans if s["name"] == "solve_relaxation"]
        assert len(nodes) == 40 and len(barrier) == 40
        assert all(s["parent"] in nodes for s in barrier)


def test_refuses_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = _run(tmp_path, "--workload", "bnb", "--seed", "0", "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert out.stdout == ""


def test_tail_keeps_ten_samples_above():
    samples = list(range(100))
    assert tail(samples) == (89, 90.0)
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
