"""Compare two sets of benchmark runs, parent and change.

    python3 perfbench/compare.py PARENT_RESULTS.jsonl CHANGE_RESULTS.jsonl

Each file holds the records ``run.py`` appends to
``.perfbench_out/results.jsonl``; only ``--trace 0`` runs are used.  One row
per workload and end-to-end metric gives each side's median and quartiles
and a verdict:

* better: the change wins at least 9 of 10 pairs (ties count for neither)
  and the medians differ by more than the parent's interquartile range;
* unresolved: either side's interquartile range, as a share of its median,
  is wider than the metric's bound, unless every change run beats every
  parent run;
* worse: the change's median is worse than the parent's by more than the
  bound;
* unchanged: otherwise.

Runs are paired by seed when both sides ran the same seeds, else in order.
The exit code is 1 when any row is worse.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values: list[float]) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """Verdict for one metric; runs are paired by position."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    p_q1, p_med, p_q3 = quartiles(parent)
    gap = sign * (statistics.median(change) - p_med)
    if pairs and wins >= 0.9 * len(pairs) and gap > p_q3 - p_q1:
        return "better"
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if max(relative_spread(parent), relative_spread(change)) > bound and not all_better:
        return "unresolved"
    if -gap > bound * abs(p_med):
        return "worse"
    return "unchanged"


def load_runs(path: Path) -> dict[str, list[dict]]:
    runs: dict[str, list[dict]] = defaultdict(list)
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.strip():
            record = json.loads(line)
            if record["trace"] == 0:
                runs[record["workload"]].append(record)
    return runs


def paired(parent: list[dict], change: list[dict]) -> tuple[list[dict], list[dict]]:
    by_seed_p = {r["seed"]: r for r in parent}
    by_seed_c = {r["seed"]: r for r in change}
    if len(by_seed_p) == len(parent) and set(by_seed_p) == set(by_seed_c):
        seeds = sorted(by_seed_p)
        return [by_seed_p[s] for s in seeds], [by_seed_c[s] for s in seeds]
    n = min(len(parent), len(change))
    return parent[:n], change[:n]


def compare(parent: dict[str, list[dict]], change: dict[str, list[dict]], spec: dict) -> list[dict]:
    rows = []
    for workload in sorted(set(parent) & set(change)):
        p_runs, c_runs = paired(parent[workload], change[workload])
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p = [r["metrics"][name] for r in p_runs]
            c = [r["metrics"][name] for r in c_runs]
            rows.append(
                {
                    "workload": workload,
                    "metric": name,
                    "unit": metric["unit"],
                    "parent": quartiles(p),
                    "change": quartiles(c),
                    "pairs": len(p),
                    "verdict": verdict(p, c, metric["better"], metric["bound"]),
                }
            )
        differ = sorted(
            pr["seed"] for pr, cr in zip(p_runs, c_runs) if pr["digest"] != cr["digest"]
        )
        rows.append({"workload": workload, "metric": "outputs", "differ_on_seeds": differ})
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Compare parent and change benchmark runs.")
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--benchmark", type=Path, default=BENCHMARK)
    args = parser.parse_args(argv)
    spec = json.loads(args.benchmark.read_text(encoding="utf-8"))
    rows = compare(load_runs(args.parent), load_runs(args.change), spec)
    print(f"{'workload':16} {'metric':12} {'parent median [q1, q3]':>32} "
          f"{'change median [q1, q3]':>32} {'delta':>8} {'pairs':>5}  verdict")
    for row in rows:
        if row["metric"] == "outputs":
            seeds = row["differ_on_seeds"]
            state = f"differ on seeds {seeds}" if seeds else "identical"
            print(f"{row['workload']:16} {'outputs':12} {state}")
            continue
        (p1, p2, p3), (c1, c2, c3) = row["parent"], row["change"]
        unit = row["unit"]
        delta = (c2 - p2) / abs(p2) * 100 if p2 else float("nan")
        parent_text = f"{p2:.4g} [{p1:.4g}, {p3:.4g}] {unit}"
        change_text = f"{c2:.4g} [{c1:.4g}, {c3:.4g}] {unit}"
        print(
            f"{row['workload']:16} {row['metric']:12} {parent_text:>32} {change_text:>32} "
            f"{delta:+7.1f}% {row['pairs']:>5}  {row['verdict']}"
        )
    return 1 if any(row.get("verdict") == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
