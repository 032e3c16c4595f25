#!/usr/bin/env python3
"""A/B comparison of two sets of perfbench runs.

    python3 perfbench/compare.py parent.jsonl change.jsonl

Each file holds the JSON lines `run.py --out FILE` appends (one per run).
For every (workload, metric) present in both sets it prints each side's
median and quartiles, the share of pairs the change won, and a verdict:

  better      the change won at least 9/10 of the pairs (ties count for
              neither side) and the medians differ by more than the
              parent's own interquartile range;
  worse       the change's median is worse than the parent's by more than
              the metric's bound in BENCHMARK.json;
  unresolved  the parent's own spread (IQR / median) is wider than the
              bound, so "no worse" cannot be shown;
  unchanged   otherwise.

Runs are paired by seed when both sets ran the same seeds, else in file
order.  Metrics without a bound (the per-layer ones) get a verdict only
when BENCHMARK.json gives their direction; otherwise "-".
"""
import json
import os
import statistics
import sys
from collections import defaultdict


def load_runs(path):
    runs = defaultdict(list)  # workload -> [(seed, {metric: value})]
    with open(path, encoding="utf-8") as lines:
        for line in lines:
            line = line.strip()
            if not line:
                continue
            entry = json.loads(line)
            metrics = {name: m["value"]
                       for name, m in entry["result"]["metrics"].items()}
            runs[entry["record"]["workload"]].append(
                (entry["record"]["seed"], metrics))
    return runs


def load_specs():
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                        "BENCHMARK.json")
    specs = {}
    try:
        with open(path, encoding="utf-8") as spec_file:
            benchmark = json.load(spec_file)
    except OSError:
        return specs
    for group in ("end_to_end", "per_layer"):
        for metric in benchmark.get(group, []):
            specs[metric["name"]] = metric
    return specs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def pairs(parent, change):
    parent_by_seed = {seed: m for seed, m in parent}
    change_by_seed = {seed: m for seed, m in change}
    if set(parent_by_seed) == set(change_by_seed):
        return [(parent_by_seed[s], change_by_seed[s])
                for s in sorted(parent_by_seed)]
    return [(p, c) for (_, p), (_, c) in zip(parent, change)]


def verdict(spec, a_values, b_values, won, lost):
    if spec is None:
        return "-"
    lower = spec["better"] == "lower"
    a_q1, a_med, a_q3 = quartiles(a_values)
    b_med = statistics.median(b_values)
    total = len(a_values) if len(a_values) == len(b_values) else min(
        len(a_values), len(b_values))
    if total and won >= 0.9 * total and abs(b_med - a_med) > a_q3 - a_q1:
        return "better"
    bound = spec.get("bound")
    if bound is None:
        return "unchanged"
    worse_by = (b_med - a_med) if lower else (a_med - b_med)
    if a_med != 0 and worse_by / abs(a_med) > bound:
        return "worse"
    if a_med != 0 and (a_q3 - a_q1) / abs(a_med) > bound:
        if (max(b_values) < min(a_values)) if lower else (
                min(b_values) > max(a_values)):
            return "better"
        return "unresolved"
    return "unchanged"


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    parent_runs = load_runs(sys.argv[1])
    change_runs = load_runs(sys.argv[2])
    specs = load_specs()
    header = (f"{'workload':<14} {'metric':<32} {'parent q1/med/q3':>32} "
              f"{'change q1/med/q3':>32} {'won':>6} verdict")
    print(header)
    print("-" * len(header))
    for workload in sorted(set(parent_runs) & set(change_runs)):
        matched = pairs(parent_runs[workload], change_runs[workload])
        names = sorted(set.intersection(
            *[set(m) for _, m in parent_runs[workload] + change_runs[workload]]))
        for name in names:
            a_values = [m[name] for _, m in parent_runs[workload]]
            b_values = [m[name] for _, m in change_runs[workload]]
            spec = specs.get(name)
            lower = spec is None or spec["better"] == "lower"
            won = lost = 0
            for a_metrics, b_metrics in matched:
                a, b = a_metrics[name], b_metrics[name]
                if a != b:
                    if (b < a) == lower:
                        won += 1
                    else:
                        lost += 1
            a_q = "/".join(f"{v:.4g}" for v in quartiles(a_values))
            b_q = "/".join(f"{v:.4g}" for v in quartiles(b_values))
            share = f"{won}/{len(matched)}"
            print(f"{workload:<14} {name:<32} {a_q:>32} {b_q:>32} "
                  f"{share:>6} {verdict(spec, a_values, b_values, won, lost)}")


if __name__ == "__main__":
    main()
