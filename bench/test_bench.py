"""Tests of the benchmark itself.

    python3 -m pytest bench -q

They run every workload at tiny size (N and k capped at 2, one round), so
they check the plumbing and the oracle, not the timings.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _tiny(capsys, workload: str, trace: bool) -> tuple[dict, dict]:
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.2",
                     "--trace", str(int(trace)), "--tiny"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["detail"]


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_named_metric(capsys, workload, trace):
    result, detail = _tiny(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    assert detail["failed_ratio"] == 0.0
    assert detail["env"]["blas_threads_pinned"] <= detail["env"]["nproc"]
    assert 0.0 <= detail["repeat_share"] < 1.0
    if trace:
        assert detail["absent"] == []
        # every traced function is wrapped at its home module and its package re-export
        assert all(count >= 1 for count in detail["bindings"].values())
        assert detail["bindings"]["su2.lift_symmetric"] >= 3
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())
        assert detail["host_speed"] > 0 and detail["host_probe_ms"]["samples"] >= 1


def test_corrupted_recorded_value_shows_as_failed_ops(capsys, monkeypatch):
    monkeypatch.setitem(oracle.CATALAN, 2, 3.0)
    result, detail = _tiny(capsys, "design-ladder", False)
    assert not result["correct"] and result["failed"] > 0
    assert detail["failed_ratio"] > 0
    assert any("haar_frame_potential" in f for f in detail["failures"])


def test_corrupted_cli_reference_shows_as_failed_ops(capsys, monkeypatch):
    monkeypatch.setattr(oracle, "APPENDIX_A", oracle.APPENDIX_A * 1.01)
    result, detail = _tiny(capsys, "cli-mix", True)
    assert not result["correct"] and result["failed"] > 0
    assert detail["failed_ratio"] > 0


def test_oracle_does_not_import_the_program():
    code = "import sys; sys.path.insert(0, 'bench'); import oracle, run; print('photonpad' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], cwd=BENCH.parent, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "False"


def test_oracle_haar_projector_has_catalan_trace():
    for k, catalan in oracle.CATALAN.items():
        p = oracle.haar_projector(k)
        assert abs(p.trace() - catalan) < 1e-9
        assert abs(p @ p - p).max() < 1e-12


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "analyze-sweep", "--seed", "1",
                          "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                         timeout=120)
    assert out.returncode != 0
    assert out.stdout == ""


def test_latencies_are_scaled_to_the_reference_host_speed():
    lat = np.array([10.0, 20.0, 40.0])
    # the probe ran at half the reference speed for most of the run
    probe = np.array([1.0, 2.0, 2.0, 2.0, 0.9]) * run.PROBE_REF_MS
    scaled, host_speed = run.at_reference_speed(lat, probe)
    assert host_speed == pytest.approx(0.5)
    assert np.allclose(scaled, [5.0, 10.0, 20.0])
