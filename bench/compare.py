"""Compare two benchmark results against the bounds in ``BENCHMARK.json``.

    python3 bench/compare.py base.json new.json

Both files come from ``run.py --out`` with the same ``--seed`` and
``--repeat`` (at least 10 for a claimed gain; run the two sides
alternately).  Run ``i`` of one side is paired with run ``i`` of the
other.  For every workload and end-to-end metric it prints the base and
new medians, the change (positive = better), the metric's bound, the
base runs' spread (quartile distance over median), the pairs the new
side won, and a verdict:

* ``better`` — the new side won at least nine tenths of the pairs (ties
  count for neither) and its median is better by more than the base
  runs' quartile distance;
* ``unresolved`` — the base spread exceeds the bound, unless every new
  run is better (or every one worse) than every base run;
* ``worse`` — the median moved the bad way by more than the bound;
* ``unchanged`` — otherwise.

It then prints per-layer ``self_s`` from the traced runs, so a claimed
saving can be located, and exits 1 if any verdict is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from layer_tracer import LAYERS

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def quartile_distance(values: list[float]) -> float:
    """Distance between the quartiles (0 for a single run)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def spread(values: list[float]) -> float:
    """Quartile distance as a share of the median."""
    return quartile_distance(values) / abs(statistics.median(values))


def pair_wins(base: list[float], new: list[float],
              lower_is_better: bool) -> tuple[int, int]:
    """``(pairs the new side won, pairs)``; run ``i`` meets run ``i``."""
    sign = -1.0 if lower_is_better else 1.0
    pairs = list(zip(base, new))
    return sum(sign * (n - b) > 0 for b, n in pairs), len(pairs)


def verdict(base: list[float], new: list[float], bound: float,
            lower_is_better: bool) -> tuple[float, str]:
    """``(change, verdict)``; change is the median's gain as a share."""
    sign = -1.0 if lower_is_better else 1.0
    b, n = statistics.median(base), statistics.median(new)
    change = sign * (n - b) / abs(b)
    wins, pairs = pair_wins(base, new, lower_is_better)
    if wins >= 0.9 * pairs and sign * (n - b) > quartile_distance(base):
        return change, "better"
    if spread(base) > bound:
        if min(sign * v for v in new) > max(sign * v for v in base):
            return change, "better"
        if max(sign * v for v in new) < min(sign * v for v in base):
            return change, "worse"
        return change, "unresolved"
    if change < -bound:
        return change, "worse"
    return change, "unchanged"


def values(runs: list[dict], name: str) -> list[float]:
    return [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args()
    spec = json.loads(BENCHMARK.read_text())
    base = json.loads(args.base.read_text())["workloads"]
    new = json.loads(args.new.read_text())["workloads"]

    worse = False
    print(f"{'workload':8s} {'metric':15s} {'base':>12s} {'new':>12s} "
          f"{'change':>8s} {'bound':>6s} {'spread':>7s} {'wins':>7s}  verdict")
    for workload in base:
        if workload not in new:
            print(f"{workload:8s} missing from {args.new}")
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b, n = values(base[workload], name), values(new[workload], name)
            if not b or not n:
                continue
            lower = metric["better"] == "lower"
            change, word = verdict(b, n, metric["bound"], lower)
            wins, pairs = pair_wins(b, n, lower)
            worse |= word == "worse"
            print(f"{workload:8s} {name:15s} {statistics.median(b):12.6g} "
                  f"{statistics.median(n):12.6g} {change:+8.1%} "
                  f"{metric['bound']:6.0%} {spread(b):7.1%} "
                  f"{f'{wins}/{pairs}':>7s}  {word}")
        failed = [sum(r["failed"] for r in side[workload])
                  for side in (base, new)]
        print(f"{workload:8s} {'failed':15s} {failed[0]:12d} {failed[1]:12d}")

    print(f"\n{'workload':8s} {'layer self_s':15s} {'base s':>12s} "
          f"{'new s':>12s} {'delta s':>10s}")
    for workload in base:
        if workload not in new:
            continue
        for layer in (*LAYERS, "driver"):
            name = f"{layer}.self_s"
            b, n = values(base[workload], name), values(new[workload], name)
            if not b or not n or max(b + n) == 0:
                continue
            mb, mn = statistics.median(b), statistics.median(n)
            print(f"{workload:8s} {layer:15s} {mb:12.6f} {mn:12.6f} "
                  f"{mn - mb:+10.6f}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
