"""Compare two result sets of the benchmark.

    python3 perfbench/compare.py OLD.jsonl NEW.jsonl

A result set is the concatenated standard output of `run.py` runs (each run
prints a {"meta": ...} line and then its result line), for example
`perfbench/baseline/*.jsonl`.  For every workload and metric this prints
each side's median and quartiles, the ratio new/old of the medians, and a
verdict:

* better      the new side wins at least 9 of 10 runs paired by seed (ties
              count for neither) and the medians differ by more than the
              old side's quartile spread;
* worse       the new median is worse than the old one by more than the
              metric's bound in BENCHMARK.json;
* no-worse    neither, and the old side's spread is within the bound;
* unresolved  the old side's spread is wider than the bound, and not every
              new run beats every old run; also every per-layer time, which
              has no bound, unless it is better.

Per-layer counts are compared as counts: "same" when every run on both
sides reads the same value, "fewer"/"more" when each side repeats exactly
but the sides differ, else unresolved.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def load(path):
    """{workload: [(seed, {metric: (value, unit)}), ...]}"""
    runs = {}
    meta = None
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line.startswith("{"):
                continue
            doc = json.loads(line)
            if "meta" in doc:
                meta = doc["meta"]
            elif "metrics" in doc and meta is not None:
                metrics = {k: (v["value"], v["unit"]) for k, v in doc["metrics"].items()}
                runs.setdefault(meta["workload"], []).append((meta["seed"], metrics))
                meta = None
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def specs():
    with open(BENCHMARK) as fh:
        bench = json.load(fh)
    out = {m["name"]: (m["better"], m["bound"]) for m in bench["end_to_end"]}
    for m in bench["per_layer"]:
        out[m["name"]] = (m["better"], None)
    return out


def verdict(old, new, pairs, better, bound, unit):
    if unit == "count":
        if len(set(old)) == 1 and len(set(new)) == 1:
            if old[0] == new[0]:
                return "same"
            return "fewer" if new[0] < old[0] else "more"
        return "unresolved"
    sign = -1.0 if better == "lower" else 1.0
    med_old, med_new = statistics.median(old), statistics.median(new)
    q1, q3 = quartiles(old)
    wins = sum(1 for o, n in pairs if sign * (n - o) > 0)
    if (len(pairs) >= 10 and wins >= 0.9 * len(pairs)
            and sign * (med_new - med_old) > q3 - q1):
        return "better"
    if bound is None or med_old == 0:
        return "unresolved"
    if -sign * (med_new - med_old) / abs(med_old) > bound:
        return "worse"
    every_new_better = all(sign * (n - o) > 0 for n in new for o in old)
    if (q3 - q1) / abs(med_old) > bound and not every_new_better:
        return "unresolved"
    return "no-worse"


def compare(old_runs, new_runs, spec):
    rows = []
    for workload in sorted(set(old_runs) & set(new_runs)):
        old, new = old_runs[workload], new_runs[workload]
        new_by_seed = dict(new)
        for name in sorted(set(old[0][1]) & set(new[0][1])):
            unit = old[0][1][name][1]
            ov = [m[name][0] for _, m in old]
            nv = [m[name][0] for _, m in new]
            pairs = [(m[name][0], new_by_seed[s][name][0])
                     for s, m in old if s in new_by_seed]
            if not pairs:
                pairs = list(zip(ov, nv))
            better, bound = spec.get(name, ("lower", None))
            mo, mn = statistics.median(ov), statistics.median(nv)
            rows.append((workload, name, unit, mo, quartiles(ov), mn,
                         quartiles(nv), mn / mo if mo else float("nan"),
                         len(pairs), verdict(ov, nv, pairs, better, bound, unit)))
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    rows = compare(load(args.old), load(args.new), specs())
    if not rows:
        sys.exit("no workload appears in both result sets")
    print("%-12s %-34s %12s %25s %12s %25s %7s %5s  %s" % (
        "workload", "metric", "old median", "old [q1, q3]", "new median",
        "new [q1, q3]", "ratio", "pairs", "verdict"))
    for w, name, unit, mo, qo, mn, qn, ratio, n, v in rows:
        print("%-12s %-34s %12.5g %25s %12.5g %25s %7.3f %5d  %s" % (
            w, name, mo, "[%.5g, %.5g]" % qo, mn, "[%.5g, %.5g]" % qn,
            ratio, n, v))
    return 0


if __name__ == "__main__":
    sys.exit(main())
