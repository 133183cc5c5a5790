"""Compare two directories of pipeline runs: a parent and a change.

Usage::

    python3 benchmarks/pipeline/compare.py PARENT_DIR/ CHANGE_DIR/

Each directory holds ``run.py --out`` files of untraced runs.  Files
are paired in sorted name order, so run the two commits alternately
(parent, change, parent, ...) and number the files.  One row per
workload and end-to-end metric, with each side's median and quartiles
and a verdict by the rule the benchmark is judged with:

* ``improved`` -- at least 10 pairs, the change wins at least 9 in 10
  of them (ties count for neither side), and the medians differ by more
  than the parent's interquartile range;
* ``regressed`` -- the change's median is worse than the parent's by
  more than the metric's bound in ``BENCHMARK.json``;
* ``unresolved`` -- the parent's own spread is wider than the bound,
  so "no worse by more than the bound" cannot be shown (unless every
  change run reads better than every parent run);
* ``unchanged`` -- otherwise.

A workload whose failed fraction (shed + expired + lost over released)
rose is reported as ``failed_frac rose``, whatever its speed.  The exit
status is 1 when any row regressed or any failed fraction rose.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parents[2]
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_runs(directory: Path) -> List[dict]:
    files = sorted(directory.glob("*.json"))
    if not files:
        raise SystemExit(f"compare.py: no run files in {directory}")
    return [json.loads(p.read_text(encoding="utf-8")) for p in files]


def quartiles(values: List[float]):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent: List[float], change: List[float], better: str,
            bound: float) -> Dict:
    """The decision rule for one (workload, metric) pair."""
    sign = 1.0 if better == "higher" else -1.0
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    worse = -sign * (cm - pm) / pm if pm else 0.0
    spread = (p3 - p1) / pm if pm else 0.0
    if (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
            and sign * (cm - pm) > p3 - p1):
        label = "improved"
    elif worse > bound:
        label = "regressed"
    elif spread > bound and not (
            min(sign * c for c in change) > max(sign * p for p in parent)):
        label = "unresolved"
    else:
        label = "unchanged"
    return {"parent": (p1, pm, p3), "change": (c1, cm, c3), "wins": wins,
            "pairs": len(pairs), "worse": worse, "label": label}


def failed_frac(run: dict, workload: str) -> float:
    stats = run["results"][workload]["detail"]["pass"]
    return float(stats["service.failed_frac"])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parent, change = load_runs(args.parent), load_runs(args.change)
    bad = False
    print(f"{'workload':16s} {'metric':18s} {'unit':6s} "
          f"{'parent q1/med/q3':>32s} {'change q1/med/q3':>32s} "
          f"{'worse':>7s} {'wins':>6s}  verdict")
    for w in spec["workloads"]:
        name = w["name"]
        have = [r for r in parent if name in r["results"]]
        got = [r for r in change if name in r["results"]]
        if not have or not got:
            print(f"{name:16s} missing from one side")
            bad = True
            continue
        for m in spec["end_to_end"]:
            pv = [r["results"][name]["metrics"][m["name"]]["value"]
                  for r in have]
            cv = [r["results"][name]["metrics"][m["name"]]["value"]
                  for r in got]
            v = verdict(pv, cv, m["better"], m["bound"])
            bad = bad or v["label"] == "regressed"
            fmt = "{:10.4g} {:10.4g} {:10.4g}"
            print(f"{name:16s} {m['name']:18s} {m['unit']:6s} "
                  f"{fmt.format(*v['parent']):>32s} "
                  f"{fmt.format(*v['change']):>32s} "
                  f"{v['worse']:+7.1%} {v['wins']:>3d}/{v['pairs']:<2d}  "
                  f"{v['label']}")
        if max(failed_frac(r, name) for r in got) > max(
                failed_frac(r, name) for r in have):
            print(f"{name:16s} failed_frac rose")
            bad = True
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
