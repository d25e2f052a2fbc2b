#!/usr/bin/env python3
"""Compare saved --trace 0 results of a parent and a change, pair by pair.

    python3 perfbench/compare.py PARENT/.perfbench/results CHANGE/.perfbench/results

Runs pair up by workload and seed (the last run of each side is used).  For
every workload and end-to-end metric it prints each side's median and
quartiles, the pairs the change won, and a verdict: `gain` when the change
wins at least 9 in 10 pairs and the medians differ by more than the parent's
quartile gap; `unresolved` when the parent's own quartile gap is wider than
the metric's bound from BENCHMARK.json and not every change run beats every
parent run; `ok` when the change's median is within the bound; else `worse`.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(results: Path) -> dict:
    runs = {}
    for path in sorted(results.glob("*-trace0-*.json"), key=lambda p: p.stat().st_mtime):
        data = json.loads(path.read_text())
        rec = data["record"]
        if rec["size"] == "full":
            runs[(rec["workload"], rec["machine"]["seed"])] = data["result"]
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv: list[str]) -> int:
    parent, change = load(Path(argv[0])), load(Path(argv[1]))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in [w["name"] for w in spec["workloads"]]:
        seeds = sorted(s for (w, s) in parent if w == workload and (w, s) in change)
        if not seeds:
            continue
        print(f"{workload}: {len(seeds)} pairs")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sign = 1 if metric["better"] == "lower" else -1
            a = [parent[(workload, s)]["metrics"][name]["value"] for s in seeds]
            b = [change[(workload, s)]["metrics"][name]["value"] for s in seeds]
            wins = sum(sign * (y - x) < 0 for x, y in zip(a, b))
            (pa1, pa2, pa3), (pb1, pb2, pb3) = quartiles(a), quartiles(b)
            if wins >= 0.9 * len(seeds) and abs(pb2 - pa2) > pa3 - pa1:
                verdict = "gain"
            elif pa3 - pa1 > bound * pa2 and not all(sign * (y - x) < 0 for x in a for y in b):
                verdict = "unresolved"
            elif sign * (pb2 - pa2) <= bound * pa2:
                verdict = "ok"
            else:
                verdict = "worse"
            print(f"  {name:12s} parent {pa2:.4g} [{pa1:.4g}, {pa3:.4g}]  "
                  f"change {pb2:.4g} [{pb1:.4g}, {pb3:.4g}]  "
                  f"wins {wins}/{len(seeds)}  {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
