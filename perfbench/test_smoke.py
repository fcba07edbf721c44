"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that every metric named in BENCHMARK.json is emitted with its
unit on each workload, that a planted wrong answer raises
``failed_share``, and that the benchmark refuses to run without the
program's source.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import drive

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = ["--seed", "3", "--seconds", "1", "--scale", "0.02"]


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    done = _run(ROOT, "--workload", workload, "--trace", str(trace), *TINY)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], float)


@pytest.mark.parametrize("workload", ["olap-vector", "mixed-server"])
def test_planted_wrong_answer_is_counted(workload, monkeypatch):
    drive.prepare_environment(ROOT)
    from repro.session import Session

    baseline, _ = drive.run_workload(workload, 3, 1.0, False, scale=0.02)
    original = Session.report

    def drop_one_row(self, sql, params=None):
        report = original(self, sql, params)
        if len(report.result.rows) > 1:
            report.result.rows = report.result.rows[:-1]
        return report

    monkeypatch.setattr(Session, "report", drop_one_row)
    result, details = drive.run_workload(workload, 3, 1.0, False, scale=0.02)
    share = result["metrics"]["failed_share"]["value"]
    assert share > 0
    assert share > baseline["metrics"]["failed_share"]["value"]
    assert details["failures_by_kind"].get("mismatch", 0) > 0
    assert result["correct"] is False


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run(tmp_path, "--workload", "olap-vector", "--trace", "0", *TINY)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
