"""Smoke test of the benchmark: every workload at a tiny size.

    python3 -m pytest perfbench/test_smoke.py

Each workload runs untraced and traced with `--seconds 1`, which shrinks
the corpus and the training to their floors. The result must be correct and
must carry exactly the metrics BENCHMARK.json names, each with its unit. A
copy of the benchmark without the sources must refuse to run.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def expected_units(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_workloads_match_spec():
    assert sorted(run.WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_with_its_unit(workload, trace):
    proc = bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == expected_units("per_layer" if trace else "end_to_end")
    if trace:
        assert "self-time check: ok" in proc.stdout
    else:
        # At this size the models train for one step and may score no ROUGE.
        assert all(m["value"] > 0 for m in result["metrics"].values() if m["unit"] != "F1")


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, "ext_en", 0)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
