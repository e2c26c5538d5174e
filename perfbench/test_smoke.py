"""Smoke test of the benchmark at a tiny size (one ring, a few UEs and slots).

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def scratch():
    (ROOT / ".perfbench_tmp").mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=ROOT / ".perfbench_tmp"))
    yield path
    shutil.rmtree(path, ignore_errors=True)


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def tiny_run(workload: str, trace: int, seed: int = 3):
    proc = bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                 "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    digest = next(ln.split()[1] for ln in lines if ln.startswith("digest"))
    return json.loads(lines[-1]), digest


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_printed_with_its_unit(workload, trace, section):
    res, _ = tiny_run(workload, trace)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    units = {name: m["unit"] for name, m in res["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in SPEC[section]}
    assert all(math.isfinite(m["value"]) for m in res["metrics"].values())


def test_digest_repeats_for_a_seed():
    _, first = tiny_run("desk_cnb", 0, seed=5)
    _, again = tiny_run("desk_cnb", 1, seed=5)
    _, other = tiny_run("desk_cnb", 0, seed=6)
    assert first == again != other


def test_planted_inf_efficiency_counts_as_failure(monkeypatch, scratch):
    import ulsim.report
    real = ulsim.report.run_config
    monkeypatch.setattr(ulsim.report, "run_config", lambda cfg: dataclasses.replace(
        real(cfg), power_efficiency_mbits_per_j=math.inf))
    rep = worker.run_ops(workloads.WORKLOADS["desk_cnb"], 1, 0.0, False, True, scratch)
    assert rep["attempted"] == 1 and rep["failed"] == 1
    assert "mbits_per_joule is inf" in rep["failures"][0]


def test_absent_target_reads_zero_calls(scratch):
    targets = tuple(t for t in tracing.TARGETS if t[2] != "allocate")
    tracer = tracing.Tracer(targets + (("scheduler", "ulsim.engine", "allocate_batched"),))
    workload = workloads.WORKLOADS["desk_cnb"]
    tracer.install()
    try:
        workloads.execute(workload, workloads.config_for(workload, 1, True), scratch)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics([1.0], [1.0])
    assert tracer.absent == ["ulsim.engine.allocate_batched"]
    assert metrics["scheduler.calls"][0] == 0 and metrics["trace.absent"][0] == 1
    assert metrics["engine.slot.self_s"][0] > 0


def test_exits_nonzero_without_the_program(scratch):
    (scratch / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        shutil.copy(path, scratch / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", scratch)
    proc = bench("--workload", "desk_cnb", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=scratch)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
