"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Runs every workload untraced and traced, checks that each emits exactly the
metrics BENCHMARK.json names, that a deliberately wrong library output is
counted as a failure, and that the benchmark refuses to run without the
library sources.
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(capsys, workload: str, trace: int) -> dict:
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0.2", "--trace", str(trace),
            "--sizes", "tiny"]
    assert run.main(argv) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_every_metric_is_emitted(capsys, workload, trace):
    result = _run(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    section = BENCH["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in section
    }
    for m in result["metrics"].values():
        assert isinstance(m["value"], float) and math.isfinite(m["value"])
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def _shift_estimate(lib, monkeypatch):
    real = lib.cli.run_estimate

    def wrong(*args, **kwargs):
        est = real(*args, **kwargs)
        return dataclasses.replace(est, value=est.value + 1.0)

    monkeypatch.setattr(lib.cli, "run_estimate", wrong)


def _shift_release(lib, monkeypatch):
    real = lib.mechanisms.PreparedMechanism.run_value
    monkeypatch.setattr(
        lib.mechanisms.PreparedMechanism, "run_value",
        lambda self, eps, source: real(self, eps, source) + 0.5,
    )


def _double_bernstein(lib, monkeypatch):
    real = lib.audit.bernstein_map

    def wrong(k, d=1):
        fn = real(k, d)
        return lambda data: 2.0 * fn(data)

    monkeypatch.setattr(lib.audit, "bernstein_map", wrong)


@pytest.mark.parametrize(
    "workload, corrupt",
    [
        ("estimate_csv", _shift_estimate),
        ("mc_grid", _shift_release),
        ("audit_pairs", _double_bernstein),
    ],
)
def test_wrong_output_is_counted_as_failed(capsys, monkeypatch, workload, corrupt):
    corrupt(run.import_library(), monkeypatch)
    result = _run(capsys, workload, 0)
    assert not result["correct"]
    assert 1 <= result["failed"] <= result["attempted"]


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc_grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
