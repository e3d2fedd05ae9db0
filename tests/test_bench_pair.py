"""tools/bench_pair.py on two tiny synthetic report directories."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pair.py"
_spec = importlib.util.spec_from_file_location("bench_pair", _PATH)
bench_pair = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pair)

_BENCHMARK = {
    "end_to_end": [
        {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.2},
        {"name": "train_tokens_per_s", "unit": "tokens/s", "better": "higher", "bound": 0.25},
        {"name": "rouge1_f1", "unit": "F1", "better": "higher", "bound": 0.25},
    ]
}


def _report(directory: Path, seed: int, rss: float, tps: float | None, *, trace: int = 0,
            faults=(), matmul: float = 0.03) -> None:
    directory.mkdir(exist_ok=True)
    metrics = {"peak_rss_mb": rss, "train_tokens_per_s": tps, "rouge1_f1": 0.3}
    report = {
        "workload": "ext_en", "seed": seed, "seconds": 30.0, "trace": trace,
        "host_before": {"matmul512_x20_s": matmul, "pyloop_1e6_s": 0.04},
        "host_after": {"matmul512_x20_s": matmul + 0.01, "pyloop_1e6_s": 0.06},
        "attempted": 10, "faults": list(faults),
        "metrics": {k: v for k, v in metrics.items() if v is not None},
    }
    (directory / f"ext_en-seed{seed}-trace{trace}.json").write_text(json.dumps(report))


@pytest.fixture
def dirs(tmp_path, monkeypatch):
    bench = tmp_path / "BENCHMARK.json"
    bench.write_text(json.dumps(_BENCHMARK))
    monkeypatch.setattr(bench_pair, "BENCHMARK", bench)
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed, rss, tps in ((1, 1000.0, 100.0), (2, 1100.0, 110.0), (3, 1200.0, 120.0), (4, 1300.0, 130.0)):
        _report(parent, seed, rss, tps)
    for seed, rss, tps in ((1, 500.0, 100.0), (2, 510.0, 105.0), (3, 520.0, 121.0), (4, 530.0, 140.0)):
        _report(change, seed, rss, tps)
    _report(parent, 9, 1.0, 1.0)  # no change run with this seed: left out
    _report(change, 1, 0.0, 0.0, trace=1)  # traced: left out
    return parent, change


def _run(parent, change, tmp_path) -> dict:
    out = tmp_path / "BENCH_test.json"
    assert bench_pair.main([str(parent), str(change), "--out", str(out)]) == 0
    return json.loads(out.read_text())["workloads"]["ext_en"]


def test_pairs_by_seed_and_summarizes(dirs, tmp_path, capsys):
    result = _run(*dirs, tmp_path)
    assert result["seeds"] == [1, 2, 3, 4]
    assert result["seconds"] == [30.0]

    rss = result["metrics"]["peak_rss_mb"]
    assert rss["better"] == "lower" and rss["unit"] == "MB"
    assert rss["parent"] == {"median": 1150.0, "q1": 1075.0, "q3": 1225.0, "iqr": 150.0}
    assert rss["change"]["median"] == 515.0
    assert (rss["wins"], rss["losses"], rss["ties"]) == (4, 0, 0)
    assert rss["change_over_parent"] == pytest.approx(515.0 / 1150.0)
    assert rss["gain_rule_met"]

    tps = result["metrics"]["train_tokens_per_s"]
    assert (tps["wins"], tps["losses"], tps["ties"]) == (2, 1, 1)
    assert not tps["gain_rule_met"]
    rouge = result["metrics"]["rouge1_f1"]
    assert (rouge["wins"], rouge["ties"]) == (0, 4) and not rouge["gain_rule_met"]

    assert result["host_kernels_s"]["parent"] == {"matmul512_x20_s": pytest.approx(0.035),
                                                  "pyloop_1e6_s": pytest.approx(0.05)}
    assert result["operations"]["parent"] == {"runs": 4, "attempted": 40, "failed": 0, "runs_with_faults": 0}
    assert result["operations"]["change"] == result["operations"]["parent"]
    assert "missing_seeds" not in rss
    assert {m["regression"] for m in result["metrics"].values()} == {"none"}
    out = capsys.readouterr().out
    assert "ext_en: 4 pairs" in out and "regression none" in out


def test_more_failed_operations_void_every_gain(dirs, tmp_path):
    parent, change = dirs
    _report(change, 4, 530.0, 140.0, faults=["x: stage failed"])
    result = _run(parent, change, tmp_path)
    assert result["operations"]["change"] == {"runs": 4, "attempted": 40, "failed": 1, "runs_with_faults": 1}
    rss = result["metrics"]["peak_rss_mb"]
    assert rss["wins"] == 4
    assert not rss["gain_rule_met"]


def test_metric_missing_from_a_run_is_reported(dirs, tmp_path, capsys):
    parent, change = dirs
    _report(change, 3, 520.0, None, faults=["train: stage failed"])
    _report(parent, 3, 1200.0, None, faults=["train: stage failed"])
    result = _run(parent, change, tmp_path)
    tps = result["metrics"]["train_tokens_per_s"]
    assert tps["missing_seeds"] == {"parent": [3], "change": [3]}
    assert tps["parent"]["median"] == 110.0  # over the three complete pairs
    assert not tps["gain_rule_met"]
    assert tps["regression"] == "unresolved"
    # Equal fault counts leave the other metrics' gains standing.
    assert result["metrics"]["peak_rss_mb"]["gain_rule_met"]
    assert "train_tokens_per_s" in capsys.readouterr().out


def test_gain_needs_more_than_the_parent_spread(tmp_path):
    # The change wins every pair, but by less than the parent's own IQR.
    out = bench_pair.compare_metric([100.0, 200.0, 300.0, 400.0], [99.0, 199.0, 299.0, 399.0], "lower")
    assert out["wins"] == 4
    assert not out["gain_rule_met"]


def test_worse_by_more_than_the_bound_regresses(dirs, tmp_path, capsys):
    parent, change = dirs
    # Change median 1.22x the parent's 1150 MB, over the 0.2 bound.
    for seed, rss in ((1, 1380.0), (2, 1390.0), (3, 1410.0), (4, 1420.0)):
        _report(change, seed, rss, 120.0)
    result = _run(parent, change, tmp_path)
    assert result["metrics"]["peak_rss_mb"]["regression"] == "regressed"
    assert "regression regressed" in capsys.readouterr().out
    # 1.18x stays within the bound.
    assert bench_pair.regression([1000.0, 1100.0, 1200.0, 1300.0], [1357.0] * 4, "lower", 0.2) == "none"


def test_parent_spread_wider_than_the_bound_is_unresolved():
    parent = [50.0, 100.0, 150.0, 200.0]  # median 125, IQR 75 > 0.25 * 125
    assert bench_pair.regression(parent, [120.0, 130.0, 125.0, 128.0], "higher", 0.25) == "unresolved"
    # Unless every change run beats every parent run.
    assert bench_pair.regression(parent, [210.0, 220.0, 230.0, 240.0], "higher", 0.25) == "none"
    assert bench_pair.regression(parent, [40.0, 45.0, 30.0, 20.0], "lower", 0.25) == "none"


def test_no_common_runs_exits_2(dirs, tmp_path, capsys):
    parent, _ = dirs
    empty = tmp_path / "empty"
    empty.mkdir()
    code = bench_pair.main([str(parent), str(empty), "--out", str(tmp_path / "o.json")])
    assert code == 2
    assert not (tmp_path / "o.json").exists()
    assert "no workload" in capsys.readouterr().err
