#!/usr/bin/env python3
"""Compare the benchmark runs of a parent commit with those of a change.

    python3 bench/compare.py PARENT.jsonl CHANGE.jsonl

Both files are written by `bench/run.py --result FILE`; only untraced
runs are read.  One row per workload and end-to-end metric gives each
side's median and quartiles, the share of pairs the change won (runs are
paired by seed, or in file order when no seed is shared; ties count for
neither side) and a verdict:

- improved: the change won at least 9/10 of the pairs and the medians
  differ by more than the parent's interquartile range;
- unresolved: the run-to-run spread of either side exceeds the metric's
  bound, and not every run of the change beats every run of the parent;
- worse: the change's median is worse than the parent's by more than the
  bound that BENCHMARK.json fixes;
- unchanged: otherwise.

failed_frac has no bound: any rise is worse.  Exit status 1 if any row
is worse, 2 on unusable input.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

# run-record fields that must agree for two result files to be comparable
COMPARABLE = ("nproc", "cpu_model", "python", "numpy", "blas", "seconds")


def load(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh if line.strip()]
    return [row for row in rows if not row["record"]["trace"]]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list[float], change: list[float],
            pairs: list[tuple[float, float]], better: str,
            bound: float | None) -> tuple[str, float]:
    """The verdict on one metric and the share of pairs the change won."""
    sign = 1.0 if better == "lower" else -1.0
    won = sum(1 for p, c in pairs if sign * (p - c) > 0)
    share = won / len(pairs) if pairs else 0.0
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    gain = sign * (pm - cm)
    if bound is None:       # a failure rate: any rise counts
        if gain < 0:
            return "worse", share
        return ("improved" if gain > 0 else "unchanged"), share
    if pairs and share >= 0.9 and gain > p3 - p1:
        return "improved", share
    spread = max((p3 - p1) / abs(pm) if pm else 0.0,
                 (c3 - c1) / abs(cm) if cm else 0.0)
    if spread > bound:
        change_worst = max(change) if better == "lower" else min(change)
        parent_best = min(parent) if better == "lower" else max(parent)
        beats_all = sign * (parent_best - change_worst) > 0
        return ("unchanged" if beats_all else "unresolved"), share
    if -gain > bound * abs(pm):
        return "worse", share
    return "unchanged", share


def compare(parent_rows: list[dict], change_rows: list[dict],
            spec: dict) -> tuple[list[dict], list[str]]:
    notes = []
    for key in COMPARABLE:
        seen_p = {json.dumps(r["record"].get(key)) for r in parent_rows}
        seen_c = {json.dumps(r["record"].get(key)) for r in change_rows}
        if seen_p != seen_c:
            notes.append(f"run records differ in {key}: parent "
                         f"{sorted(seen_p)} vs change {sorted(seen_c)}")
    metrics = [(m["name"], m["unit"], m["better"], m["bound"])
               for m in spec["end_to_end"]]
    metrics.append(("failed_frac", "1", "lower", None))
    out = []
    for workload in [w["name"] for w in spec["workloads"]]:
        p_runs = {r["record"]["seed"]: r for r in parent_rows
                  if r["record"]["workload"] == workload}
        c_runs = {r["record"]["seed"]: r for r in change_rows
                  if r["record"]["workload"] == workload}
        if not p_runs or not c_runs:
            continue
        shared = sorted(set(p_runs) & set(c_runs))
        for name, unit, better, bound in metrics:
            def value(run):
                if name == "failed_frac":
                    return run["failed_frac"]
                return run["metrics"][name]["value"]
            parent = [value(r) for r in p_runs.values()]
            change = [value(r) for r in c_runs.values()]
            if shared:
                pairs = [(value(p_runs[s]), value(c_runs[s])) for s in shared]
            else:   # no seed in common: pair the runs in file order
                pairs = list(zip(parent, change))
            word, share = verdict(parent, change, pairs, better, bound)
            out.append({"workload": workload, "metric": name, "unit": unit,
                        "parent": quartiles(parent),
                        "change": quartiles(change), "pairs": len(pairs), "won": share, "verdict": word})
    return out, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Compare parent and change benchmark result files.")
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--spec", default=os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "BENCHMARK.json"))
    args = parser.parse_args(argv)
    try:
        with open(args.spec, encoding="utf-8") as fh:
            spec = json.load(fh)
        rows, notes = compare(load(args.parent), load(args.change), spec)
    except (OSError, ValueError, KeyError) as exc:
        print(f"bench/compare.py: {exc}", file=sys.stderr)
        return 2
    for note in notes:
        print(f"note: {note}")
    print(f"{'workload':<18} {'metric':<12} {'parent median [q1, q3]':<32} "
          f"{'change median [q1, q3]':<32} {'won':>9}  verdict")
    for row in rows:
        def cell(q):
            return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}] {row['unit']}"
        won = f"{row['won']:.0%} of {row['pairs']}"
        print(f"{row['workload']:<18} {row['metric']:<12} "
              f"{cell(row['parent']):<32} {cell(row['change']):<32} "
              f"{won:>9}  {row['verdict']}")
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
