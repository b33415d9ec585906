"""Compare two result sets of the benchmark, one row per workload and metric.

    python3 perfbench/compare.py PARENT CHANGE

PARENT and CHANGE are JSON-lines files written by `run.py --out` (or
directories of them), one record per run.  Records pair up per workload
in the order they started, so run the two sides alternately: parent,
change, change, parent, ... (see README.md).

Each end-to-end metric gets one of these verdicts, by the pairing rule:

  better      at least 10 pairs, the change wins at least 9 in 10 of them
              (ties count for neither side), and the gap between medians
              exceeds the interquartile spread of the parent's runs
  worse       the change's median is worse than the parent's by more than
              the metric's bound (a share of the parent's median)
  unresolved  the parent's spread exceeds the bound, unless every change
              run beats every parent run
  same        none of the above
  few-pairs   fewer than 10 pairs: medians are shown, nothing is claimed
  not-alternating  would be `better`, but the two sides did not take turns
              running first

Per-layer metrics carry no bound and no direction; they are listed with
their medians as `info`.  Exit code: 1 when any metric is `worse`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import sys

MIN_PAIRS = 10
WIN_SHARE = 0.9
BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "BENCHMARK.json")


def load_records(path: str) -> list:
    files = [path]
    if os.path.isdir(path):
        files = sorted(os.path.join(path, n) for n in os.listdir(path) if n.endswith(".jsonl"))
    out = []
    for name in files:
        with open(name, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line.startswith("{"):
                    continue
                rec = json.loads(line)
                if "workload" in rec and "metrics" in rec:
                    out.append(rec)
    return sorted(out, key=lambda r: r.get("started", 0.0))


def quartiles(values: list):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def judge(parent: list, change: list, better: str, bound: float) -> tuple:
    """Verdict and win count for one metric; values are paired by index."""
    n = min(len(parent), len(change))
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0)
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    spread = q3 - q1
    worse_by = sign * (c_med - p_med) / abs(p_med) if p_med else math.inf
    all_better = all(sign * (p - c) > 0 for p in parent for c in change)
    if n < MIN_PAIRS:
        return "few-pairs", wins
    if p_med and spread / abs(p_med) > bound:
        return ("better" if all_better else "unresolved"), wins
    if wins >= math.ceil(WIN_SHARE * n) and abs(c_med - p_med) > spread:
        return "better", wins
    if worse_by > bound:
        return "worse", wins
    return "same", wins


def alternation_breaks(parent: list, change: list) -> int:
    """Pairs whose first-run side repeats the previous pair's."""
    firsts = [p.get("started", 0.0) <= c.get("started", 0.0) for p, c in zip(parent, change)]
    return sum(1 for a, b in zip(firsts, firsts[1:]) if a == b)


def compare(parent_recs: list, change_recs: list, spec: dict) -> list:
    gated = {m["name"]: m for m in spec.get("end_to_end", [])}
    rows = []
    for workload in sorted({r["workload"] for r in parent_recs + change_recs}):
        for traced in (0, 1):
            ps = [r for r in parent_recs if r["workload"] == workload and r["trace"] == traced]
            cs = [r for r in change_recs if r["workload"] == workload and r["trace"] == traced]
            if not ps or not cs:
                continue
            n = min(len(ps), len(cs))
            breaks = alternation_breaks(ps[:n], cs[:n])
            names = [k for k in ps[0]["metrics"] if all(k in r["metrics"] for r in ps + cs)]
            for name in names:
                pv = [r["metrics"][name]["value"] for r in ps[:n]]
                cv = [r["metrics"][name]["value"] for r in cs[:n]]
                row = {"workload": workload, "metric": name,
                       "unit": ps[0]["metrics"][name]["unit"], "pairs": n, "parent": pv,
                       "change": cv, "alternation_breaks": breaks}
                if name in gated:
                    row["verdict"], row["wins"] = judge(pv, cv, gated[name]["better"],
                                                        gated[name]["bound"])
                    if row["verdict"] == "better" and breaks:
                        row["verdict"] = "not-alternating"
                else:
                    row["verdict"], row["wins"] = "info", None
                rows.append(row)
    return rows


def _fmt(values: list) -> str:
    q1, q3 = quartiles(values)
    return f"{statistics.median(values):.4g} [{q1:.4g}, {q3:.4g}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Compare two benchmark result sets.")
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    with open(BENCHMARK, encoding="utf-8") as fh:
        spec = json.load(fh)
    rows = compare(load_records(args.parent), load_records(args.change), spec)
    if not rows:
        print("no workload has records on both sides", file=sys.stderr)
        return 2
    print(f"{'workload':8} {'metric':40} {'parent median [q1, q3]':>32} "
          f"{'change median [q1, q3]':>32} {'wins':>7} verdict")
    for row in rows:
        wins = "" if row["wins"] is None else f"{row['wins']}/{row['pairs']}"
        print(f"{row['workload']:8} {row['metric'] + ' (' + row['unit'] + ')':40} "
              f"{_fmt(row['parent']):>32} {_fmt(row['change']):>32} {wins:>7} {row['verdict']}")
    breaks = {r["workload"]: r["alternation_breaks"] for r in rows if r["alternation_breaks"]}
    for workload, count in sorted(breaks.items()):
        print(f"note: {workload}: {count} pair(s) did not alternate which side ran first")
    return 1 if any(r["verdict"] == "worse" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
