"""Smoke test of the benchmark itself: one short run per workload, untraced
and traced.  Every metric named in BENCHMARK.json is emitted with its unit
and every output check passes.

Run from the repository root (about a minute on two cores):

    python -m pytest bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = [sys.executable, "bench/run.py", "--workload", workload]
    argv += ["--seed", "0", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_short_run_emits_every_metric(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    named = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in named}
    if not trace:
        return
    value = {name: m["value"] for name, m in result["metrics"].items()}
    if workload == "construct":
        assert value["verifier.build_beamformers.calls"] == 0
        assert value["numpy.linalg.svd.calls"] == 0  # speed samples are not spans
        assert value["symmetric.build_base_partition.calls"] > 0
    else:
        assert value["symmetric.build_base_partition.calls"] == 0
    if workload == "oracle":
        assert value["verifier.nullspace_reuse_ratio"] > 0.5
    if workload == "sweep":
        assert value["verifier.nullspace_reuse_ratio"] < 0.05


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "construct", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
