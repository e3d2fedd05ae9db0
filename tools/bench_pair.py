#!/usr/bin/env python3
"""Compare paired parent/change benchmark reports and write BENCH_<n>.json.

    python3 tools/bench_pair.py PARENT_REPORTS CHANGE_REPORTS --out BENCH_7.json

Each directory holds the untraced reports that `perfbench/run.py` leaves in
`.perfbench/reports/` (`<workload>-seed<seed>-trace0.json`), one per seed,
from a checkout of the parent commit and one of the change. Runs pair by
workload and seed. For every workload and end-to-end metric of
`BENCHMARK.json` the output gives each side's median and quartiles over the
paired seeds, the change's wins, losses and ties by seed (by the metric's
`better` direction), and whether the gain rule holds: wins in at least nine
tenths of the pairs, a median difference larger than the parent's
interquartile range, and no more failed operations on the change's side
than on the parent's. Each metric also gets a no-regression verdict,
`regression`: "regressed" when the change's median is worse than the
parent's by more than the metric's `bound` (relative to the parent's
median); otherwise "unresolved" when the parent's interquartile range
exceeds `bound` times its median, unless every change run beats every
parent run; otherwise "none". A metric that some run lacks (a failed stage
reports none) is listed with the seeds that lack it on each side, never
counts as a gain and is "unresolved" at best. It also gives each side's
host-drift kernel medians (timed before and after every run) and its
attempted operations and faults. Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
WIN_SHARE = 0.9


def load_reports(directory: Path) -> dict[tuple[str, int], dict]:
    """Untraced reports keyed by (workload, seed)."""
    reports = {}
    for path in sorted(directory.glob("*-trace0.json")):
        report = json.loads(path.read_text(encoding="utf-8"))
        reports[(report["workload"], int(report["seed"]))] = report
    return reports


def summary(values: list[float]) -> dict[str, float]:
    """Median and quartiles (inclusive method; one value is its own quartiles)."""
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "iqr": q3 - q1}


def compare_metric(parent: list[float], change: list[float], better: str) -> dict:
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    p, c = summary(parent), summary(change)
    gain = sign * (c["median"] - p["median"])
    return {
        "parent": p,
        "change": c,
        "wins": wins,
        "losses": losses,
        "ties": len(parent) - wins - losses,
        "change_over_parent": c["median"] / p["median"] if p["median"] else None,
        "gain_rule_met": wins >= WIN_SHARE * len(parent) and gain > p["iqr"],
    }


def regression(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """No-regression verdict: "regressed", "unresolved" or "none"."""
    sign = 1.0 if better == "higher" else -1.0
    p_median = statistics.median(parent)
    if sign * (statistics.median(change) - p_median) < -bound * abs(p_median):
        return "regressed"
    separated = min(sign * c for c in change) > max(sign * p for p in parent)
    if summary(parent)["iqr"] > bound * abs(p_median) and not separated:
        return "unresolved"
    return "none"


def host_medians(runs: list[dict]) -> dict[str, float]:
    kernels = sorted({k for r in runs for when in ("host_before", "host_after") for k in r[when]})
    return {
        k: statistics.median(r[when][k] for r in runs for when in ("host_before", "host_after"))
        for k in kernels
    }


def fault_counts(runs: list[dict]) -> dict[str, int]:
    return {
        "runs": len(runs),
        "attempted": sum(int(r["attempted"]) for r in runs),
        "failed": sum(len(r["faults"]) for r in runs),
        "runs_with_faults": sum(bool(r["faults"]) for r in runs),
    }


def compare(parent: dict, change: dict, end_to_end: list[dict]) -> dict:
    """Per workload: every end-to-end metric over the seeds both sides ran."""
    workloads = {}
    for workload in sorted({w for w, _ in parent} | {w for w, _ in change}):
        seeds = sorted(s for w, s in parent if w == workload and (w, s) in change)
        if not seeds:
            continue
        p_runs = [parent[(workload, s)] for s in seeds]
        c_runs = [change[(workload, s)] for s in seeds]
        operations = {"parent": fault_counts(p_runs), "change": fault_counts(c_runs)}
        more_faults = operations["change"]["failed"] > operations["parent"]["failed"]
        metrics = {}
        for spec in end_to_end:
            name = spec["name"]
            pairs = [(float(p["metrics"][name]), float(c["metrics"][name]))
                     for p, c in zip(p_runs, c_runs) if name in p["metrics"] and name in c["metrics"]]
            metric = {"unit": spec["unit"], "better": spec["better"]}
            if pairs:
                p_vals, c_vals = [p for p, _ in pairs], [c for _, c in pairs]
                metric.update(compare_metric(p_vals, c_vals, spec["better"]))
                metric["regression"] = regression(p_vals, c_vals, spec["better"], spec["bound"])
            if len(pairs) < len(seeds):
                metric["missing_seeds"] = {
                    side: [s for s, r in zip(seeds, runs) if name not in r["metrics"]]
                    for side, runs in (("parent", p_runs), ("change", c_runs))
                }
            metric["gain_rule_met"] = (
                metric.get("gain_rule_met", False) and len(pairs) == len(seeds) and not more_faults
            )
            if len(pairs) < len(seeds) and metric.get("regression") != "regressed":
                metric["regression"] = "unresolved"
            metrics[name] = metric
        workloads[workload] = {
            "seeds": seeds,
            "seconds": sorted({r["seconds"] for r in p_runs + c_runs}),
            "metrics": metrics,
            "host_kernels_s": {"parent": host_medians(p_runs), "change": host_medians(c_runs)},
            "operations": operations,
        }
    return workloads


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent_reports", type=Path)
    parser.add_argument("change_reports", type=Path)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    end_to_end = json.loads(BENCHMARK.read_text(encoding="utf-8"))["end_to_end"]
    workloads = compare(load_reports(args.parent_reports), load_reports(args.change_reports), end_to_end)
    if not workloads:
        print("error: no workload and seed has a report on both sides", file=sys.stderr)
        return 2
    args.out.write_text(json.dumps({"workloads": workloads}, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    for workload, result in workloads.items():
        print(f"{workload}: {len(result['seeds'])} pairs, seeds {result['seeds']}")
        for name, m in result["metrics"].items():
            if "missing_seeds" in m:
                print(f"  {name:<22} missing on seeds {m['missing_seeds']}")
            if "parent" not in m:
                continue
            print(f"  {name:<22} {m['parent']['median']:>12.6g} -> {m['change']['median']:>12.6g} "
                  f"(parent IQR {m['parent']['iqr']:.3g}; wins {m['wins']}/{len(result['seeds'])}"
                  f"{'; gain' if m['gain_rule_met'] else ''}; regression {m['regression']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
