"""Small-size smoke test of the benchmark itself.

Run from the root of the repository:

    python3 -m pytest -q perfbench/test_smoke.py

Each workload runs at a small size.  The test checks that every metric named
in BENCHMARK.json is printed with its unit, that no operation fails, that
the counters of two traced runs repeat exactly, and that the benchmark
refuses to run without the program's sources.
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

SMOKE_SIZES = {
    "cover-large": {"ladder": (2,)},
    "cli-corpus": {"pieces": 3, "classify_folds": 3, "classify_trees": 5,
                   "importance_runs": 2, "importance_trees": 5},
    "pp-train": {"pieces": 3, "grid": lambda: workloads.pp_grid()[:6]},
}


def _run(workload: str, trace: int) -> tuple[dict, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(
            ["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace)],
            sizes=SMOKE_SIZES[workload],
        )
    assert code == 0
    *_, report_line, result_line = out.getvalue().splitlines()
    return json.loads(report_line)["report"], json.loads(result_line)


def _check(report: dict, result: dict, expected: list[dict]):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert report["fail_frac"] == 0, report["problems"]
    assert report["seed"] == 3
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in expected}
    for m in expected:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert isinstance(metrics[m["name"]]["value"], (int, float))


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_small(workload):
    report, result = _run(workload, 0)
    _check(report, result, SPEC["end_to_end"])
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["value"] > 0

    first_report, first = _run(workload, 1)
    second_report, second = _run(workload, 1)
    _check(first_report, first, SPEC["per_layer"])
    _check(second_report, second, SPEC["per_layer"])
    assert first_report["counters"] == second_report["counters"]
    assert first_report["digest"] == second_report["digest"] == report["digest"]
    for name, value in first["metrics"].items():
        if value["unit"] != "s" and not name.startswith("trace."):
            assert second["metrics"][name]["value"] == value["value"], name


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", SPEC["workloads"][0]["name"],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
