"""tools/bench_point.py: every subprocess runs under a fixed time limit."""

from __future__ import annotations

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_point.py"


@pytest.fixture()
def bench_point():
    spec = importlib.util.spec_from_file_location("bench_point", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def hang(limits):
    def run(cmd, **kwargs):
        limits.append(kwargs["timeout"])
        raise subprocess.TimeoutExpired(cmd, kwargs["timeout"])

    return run


def test_benchmark_run_that_hangs_is_recorded_as_timed_out(bench_point, monkeypatch, tmp_path):
    limits: list[float] = []
    monkeypatch.setattr(bench_point.subprocess, "run", hang(limits))
    assert bench_point.bench(tmp_path, "case1-exact", 0) is None
    assert limits == [bench_point.BENCH_TIMEOUT_S]


def test_tier1_run_that_hangs_is_recorded_as_timed_out(bench_point, monkeypatch, tmp_path):
    limits: list[float] = []
    monkeypatch.setattr(bench_point.subprocess, "run", hang(limits))
    result = bench_point.tier1(tmp_path)
    assert limits == [bench_point.TIER1_TIMEOUT_S]
    assert result["timed_out"] is True
    assert result["exit_code"] is None
    assert result["summary"].startswith("timed out")


def test_point_records_timed_out_workloads(bench_point, monkeypatch, tmp_path):
    (tmp_path / "BENCHMARK.json").write_text('{"workloads": [{"name": "w"}]}')
    monkeypatch.setattr(bench_point.subprocess, "run", hang([]))
    out = tmp_path / "point.json"
    assert bench_point.main(["--number", "1", "--root", str(tmp_path), "--out", str(out)]) == 0
    point = json.loads(out.read_text())
    w = point["workloads"]["w"]
    assert w["correct"] is False
    assert w["timed_out"] == {"untraced": True, "traced": True}
    assert w["end_to_end"] is None and w["per_layer"] is None
    assert point["tier1"]["timed_out"] is True
