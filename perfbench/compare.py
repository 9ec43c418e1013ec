#!/usr/bin/env python3
"""Compare two sets of benchmark runs, metric by metric and workload by workload.

    python3 perfbench/compare.py BASE CHANGE

BASE and CHANGE are directories (or single files) holding the saved stdout of
perfbench/run.py runs, one run per file. Each file's first line names the
workload (``bench_gpurel workload=<name> ...``) and its last line is the JSON
result. Runs are paired in file-name order within each workload.

For every workload x metric the script prints each side's median and
quartiles, the spread (interquartile range / median) and a verdict:

  improved    CHANGE wins at least 9 of 10 pairs and its median beats BASE's
              by more than BASE's interquartile range;
  unresolved  a side's spread is wider than the metric's bound, and not every
              CHANGE run beats every BASE run;
  regressed   CHANGE's median is worse than BASE's by more than the bound;
  no worse    otherwise.

Bounds and directions come from BENCHMARK.json. Per-layer metrics have no
bound; they are only reported as improved, worse (the mirror of the improved
rule) or unchanged.
"""
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_runs(path):
    files = ([os.path.join(path, f) for f in sorted(os.listdir(path))]
             if os.path.isdir(path) else [path])
    runs = {}
    for f in files:
        with open(f) as fh:
            lines = [l.strip() for l in fh if l.strip()]
        head = next((l for l in lines if l.startswith("bench_gpurel ")), None)
        if head is None or not lines[-1].startswith("{"):
            print(f"skipping {f}: not a benchmark run", file=sys.stderr)
            continue
        fields = dict(kv.split("=", 1) for kv in head.split()[1:] if "=" in kv)
        result = json.loads(lines[-1])
        runs.setdefault(fields["workload"], []).append(result)
    return runs


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base, change, better, bound):
    sign = 1 if better == "higher" else -1
    bq1, bmed, bq3 = quartiles(base)
    cq1, cmed, cq3 = quartiles(change)
    pairs = list(zip(base, change))
    wins = sum(1 for b, c in pairs if sign * (c - b) > 0)
    losses = sum(1 for b, c in pairs if sign * (c - b) < 0)
    gap = abs(cmed - bmed)
    iqr = bq3 - bq1
    if pairs and wins >= 0.9 * len(pairs) and gap > iqr and sign * (cmed - bmed) > 0:
        return "improved"
    if bound is None:
        if pairs and losses >= 0.9 * len(pairs) and gap > iqr and sign * (cmed - bmed) < 0:
            return "worse"
        return "unchanged"
    spread = max(iqr / abs(bmed) if bmed else 0.0,
                 (cq3 - cq1) / abs(cmed) if cmed else 0.0)
    all_better = all(sign * (c - b) > 0 for b in base for c in change)
    if spread > bound and not all_better:
        return "unresolved"
    if bmed and sign * (cmed - bmed) / abs(bmed) < -bound:
        return "regressed"
    return "no worse"


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bench = json.load(f)
    specs = {m["name"]: (m, m.get("bound")) for m in bench["end_to_end"]}
    specs.update({m["name"]: (m, None) for m in bench["per_layer"]})
    base, change = load_runs(sys.argv[1]), load_runs(sys.argv[2])
    row = "{:<12} {:<30} {:>5} {:>13} {:>13} {:>13} {:>7} {:>13} {:>13} {:>13} {:>7}  {}"
    print(row.format("workload", "metric", "runs", "base_q1", "base_med", "base_q3",
                     "spread", "chg_q1", "chg_med", "chg_q3", "spread", "verdict"))
    for w in bench["workloads"]:
        name = w["name"]
        for metric, (spec, bound) in specs.items():
            b = [r["metrics"][metric]["value"] for r in base.get(name, [])
                 if metric in r["metrics"]]
            c = [r["metrics"][metric]["value"] for r in change.get(name, [])
                 if metric in r["metrics"]]
            if not b or not c:
                continue
            bq, cq = quartiles(b), quartiles(c)
            bs = (bq[2] - bq[0]) / abs(bq[1]) if bq[1] else 0.0
            cs = (cq[2] - cq[0]) / abs(cq[1]) if cq[1] else 0.0
            v = verdict(b, c, spec["better"], bound)
            print(row.format(name, metric, f"{len(b)}/{len(c)}",
                             f"{bq[0]:.6g}", f"{bq[1]:.6g}", f"{bq[2]:.6g}", f"{bs:.2%}",
                             f"{cq[0]:.6g}", f"{cq[1]:.6g}", f"{cq[2]:.6g}", f"{cs:.2%}", v))
        for side, runs in (("base", base), ("change", change)):
            failed = sum(r["failed"] for r in runs.get(name, []))
            wrong = sum(1 for r in runs.get(name, []) if not r["correct"])
            if failed or wrong:
                print(f"{name}: {side} has {wrong} incorrect runs, {failed} failed ops")
    return 0


if __name__ == "__main__":
    sys.exit(main())
