"""Self-test of the benchmark at tiny size.

Run from the repository root:

    python3 -m pytest bench/test_bench.py

Every workload runs once in each mode.  A run must pass every output check,
including the recorded reference digests of the trace workloads, and print
exactly the metrics ``BENCHMARK.json`` names, with their units.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run(workload: str, trace: int) -> None:
    proc = bench("--workload", workload, "--seed", "0", "--seconds", "1",
                 "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stdout
    group = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in group
    }
    detail = json.loads(
        (ROOT / ".bench_work" / f"{workload}-tiny-seed0-trace{trace}" / "result.json").read_text()
    )
    assert detail["reference_checked"] == (workload != "lemma")
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if trace:
        self_times = sum(v for k, v in values.items() if k.endswith(".self_s"))
        assert self_times + values["trace.unattributed_s"] == pytest.approx(
            values["trace.wall_s"], rel=1e-9
        )
    else:
        assert all(v > 0 for v in values.values())


def test_refuses_to_run_without_the_program(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", WORKLOADS[0], "--seed", "0", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
