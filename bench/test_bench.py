"""Smoke test of the benchmark: ``python -m pytest bench/test_bench.py``.

Runs ``bench/run.py --smoke`` (two trials per efficiency or state) on every
workload named in BENCHMARK.json and checks the reported metrics.
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _smoke(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr[-3000:]
    *_, report_line, result_line = proc.stdout.strip().splitlines()
    return json.loads(report_line)["report"], json.loads(result_line)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_end_to_end_metric_is_reported(workload):
    report, result = _smoke(workload, 0)
    assert result["correct"] and result["attempted"] > 0
    assert report["failed_ratio"] == 0
    names = [m["name"] for m in SPEC["end_to_end"]]
    assert list(result["metrics"]) == names
    for metric in SPEC["end_to_end"]:
        measured = report["metrics"][metric["name"]]
        assert measured["unit"] == result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert measured["samples"] >= 1 and measured["value"] > 0
    if workload != "nongauss":
        assert set(report["csv_sha256"]) == {f"{workload}.csv", f"{workload}_trials.csv"}


def test_trace_reports_every_layer_metric_and_restores_wrappers():
    report, result = _smoke("fig1", 1)
    assert result["correct"] and report["wrappers_restored"]
    assert report["hooks_missing"] == []
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    for metric in SPEC["per_layer"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert result["metrics"]["oscillator.table_builds"]["value"] >= 1
