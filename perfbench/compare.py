"""Compare result files of two checkouts, metric by metric.

    python3 perfbench/compare.py PARENT/perfbench/results CHANGE/perfbench/results

For every workload and metric it prints each side's median and quartiles,
the change of the medians, and how many run pairs the change wins.  The
k-th run of one side is paired with the k-th run of the other, in the order
the runs were made.  Direction and bound come from BENCHMARK.json.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def load(directory: str) -> dict:
    runs: dict = {}
    files = sorted(Path(directory).glob("*.json"), key=lambda p: int(p.stem.rsplit("-", 1)[1]))
    for path in files:
        r = json.loads(path.read_text())
        runs.setdefault((r["workload"], r["trace"]), []).append(r)
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(parent_dir: str, change_dir: str) -> None:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    rules = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    parent, change = load(parent_dir), load(change_dir)
    for key in sorted(set(parent) & set(change)):
        p_runs, c_runs = parent[key], change[key]
        print(f"== {key[0]} trace={key[1]}: {len(p_runs)} parent runs, {len(c_runs)} change runs")
        for name in p_runs[0]["metrics"]:
            pv = [r["metrics"][name]["value"] for r in p_runs]
            cv = [r["metrics"][name]["value"] for r in c_runs]
            pq, cq = quartiles(pv), quartiles(cv)
            rule = rules.get(name, {})
            lower = rule.get("better", "lower") == "lower"
            wins = sum((c < p) if lower else (c > p) for p, c in zip(pv, cv))
            delta = (cq[1] - pq[1]) / pq[1] if pq[1] else float("nan")
            bound = f" bound {rule['bound']}" if "bound" in rule else ""
            print(f"{name:38s} parent {pq[1]:.5g} [{pq[0]:.5g}, {pq[2]:.5g}]"
                  f"  change {cq[1]:.5g} [{cq[0]:.5g}, {cq[2]:.5g}]"
                  f"  {delta:+.3f}  wins {wins}/{min(len(pv), len(cv))}{bound}")


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    main(sys.argv[1], sys.argv[2])
