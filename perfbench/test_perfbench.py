"""The benchmark's own tests (tiny sizes; about a minute on two cores).

    python3 -m pytest perfbench/test_perfbench.py -q

Run from the repository root.  They check the output contract -- every
metric ``BENCHMARK.json`` names is printed with its unit -- and that the
output checks can fail: a corrupted membership or a job forced to fail must
make ``failed`` non-zero and the exit code 1.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("rmat-sim", "lfr-proc", "service-rw")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def bench(workload, *extra, trace=0, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace), "--size", "tiny", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc, result


def test_spec_names_the_issue_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc, result = bench(workload, trace=trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for entry in wanted:
        got = result["metrics"][entry["name"]]
        assert got["unit"] == entry["unit"]
        assert isinstance(got["value"], float)
        if not trace:
            assert got["value"] > 0, entry["name"]
        assert any(
            line.startswith(entry["name"] + " ") and line.endswith(" " + entry["unit"])
            for line in proc.stdout.splitlines()
        ), entry["name"]


def test_traced_run_reports_the_named_layers():
    _, result = bench("lfr-proc", trace=1)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    for name in ("parallel.move_ratio", "parallel.refine.state_propagation_s",
                 "runtime.shm.bus_s", "kernels.calls", "sequential.modularity"):
        assert m[name] > 0, name
    _, result = bench("service-rw", trace=1)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["service.jobs.run_s"] > 0
    assert m["hashing.probes_per_insert"] > 0
    assert m["kernels.calls"] == 0  # the service's hash backend never calls kernels


@pytest.mark.parametrize("workload", ["rmat-sim", "service-rw"])
def test_sabotage_is_caught(workload):
    proc, result = bench(workload, "--sabotage")
    assert proc.returncode == 1
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert result["metrics"]["success_rate"]["value"] < 1.0


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc, result = bench("rmat-sim", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert result is None
