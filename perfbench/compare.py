#!/usr/bin/env python3
"""Compares benchmark result sets (stdlib only).

A result set is a directory of run outputs: each file holds the stdout of
one `perfbench/run.py` run (sweep.py writes them). Runs are grouped by
workload and trace mode; each metric is summarised by its median and
quartiles over the set's runs.

    compare.py BASE CHANGE   per workload and metric: both sides' median
                             and quartiles, and a verdict:
        better      the change's median beats the base's by more than the
                    base's own spread, and >= 9/10 of all (base, change)
                    run pairs favour the change;
        worse       the change's median is worse by more than the
                    metric's bound (per-layer metrics, which have no
                    bound: worse by more than the spread, in >= 9/10 of
                    pairs);
        same        neither, and the spread is within the bound (per-layer
                    metrics: the medians differ by no more than the
                    spread, so identical exact counts read the same);
        unresolved  the spread of either side exceeds the bound, so
                    "no worse than the bound" cannot be shown.
    compare.py --aa SET [SET2]
                             steadiness check on runs of identical code:
                             each end-to-end metric's spread (IQR as a
                             share of the median) must stay within its
                             bound, and with a second set the second median may not be
                             worse than the first by more than the bound.
                             Exits 1 when a check fails.

Bounds and directions come from BENCHMARK.json at the repository root.
"""
import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import benchlib  # noqa: E402

ROOT = os.path.dirname(HERE)


def load_set(path):
    """{(workload, trace): {metric: [values]}} from a directory of runs."""
    out = {}
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name)) as f:
            text = f.read()
        result = benchlib.last_json_line(text)
        run = None
        for line in text.splitlines():
            if line.startswith('{"run"'):
                run = json.loads(line)["run"]
        if not result or not run or "metrics" not in result:
            print("skipping %s: no result" % name, file=sys.stderr)
            continue
        key = (run["workload"], run["trace"])
        for metric, m in result["metrics"].items():
            out.setdefault(key, {}).setdefault(metric, []).append(m["value"])
    return out


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    spec = {m["name"]: m for m in bench["end_to_end"]}
    for m in bench["per_layer"]:
        spec.setdefault(m["name"], m)
    return spec


def worsening(base, change, better):
    """How much worse `change` is than `base`, as a share of `base`."""
    if base == 0:
        return 0.0 if change == base else float("inf")
    d = (change - base) / abs(base)
    return d if better == "lower" else -d


def pair_share(a, b, better):
    """Share of (a, b) run pairs where b reads better than a (ties count
    for neither side)."""
    wins = sum(1 for x in a for y in b
               if (y < x if better == "lower" else y > x))
    return wins / float(len(a) * len(b))


def verdict(a, b, m):
    better = m.get("better", "lower")
    bound = m.get("bound")
    _, med_a, _ = benchlib.quartiles(a)
    _, med_b, _ = benchlib.quartiles(b)
    worse_by = worsening(med_a, med_b, better)
    noise = max(benchlib.spread(a), benchlib.spread(b))
    if -worse_by > benchlib.spread(a) and pair_share(a, b, better) >= 0.9:
        return "better"
    if bound is None:
        if worse_by > noise and pair_share(b, a, better) >= 0.9:
            return "worse"
        return "same" if abs(worse_by) <= noise else "unresolved"
    if noise > bound:
        return "unresolved"
    return "worse" if worse_by > bound else "same"


def fmt(values):
    q1, med, q3 = benchlib.quartiles(values)
    return "%.4g [%.4g, %.4g]" % (med, q1, q3)


def compare(base, change, spec):
    print("%-18s %-5s %-36s %-30s %-30s %s" % (
        "workload", "trace", "metric", "base median [Q1, Q3]",
        "change median [Q1, Q3]", "verdict"))
    for key in sorted(set(base) & set(change)):
        for metric in sorted(set(base[key]) & set(change[key])):
            m = spec.get(metric, {})
            a, b = base[key][metric], change[key][metric]
            print("%-18s %-5d %-36s %-30s %-30s %s" % (
                key[0], key[1], metric, fmt(a), fmt(b), verdict(a, b, m)))
    return 0


def aa(first, second, spec):
    ok = True
    print("%-18s %-16s %6s %8s %8s %8s  %s" % (
        "workload", "metric", "runs", "spread", "spread2", "shift",
        "bound / verdict"))
    for key in sorted(first):
        workload, trace = key
        if trace:
            continue
        for metric in sorted(first[key]):
            m = spec.get(metric)
            if not m or "bound" not in m:
                continue
            bound = m["bound"]
            a = first[key][metric]
            s1 = benchlib.spread(a)
            checks = [s1 <= bound]
            s2 = shift = None
            b = second.get(key, {}).get(metric) if second else None
            if b:
                s2 = benchlib.spread(b)
                checks.append(s2 <= bound)
                shift = worsening(benchlib.quartiles(a)[1],
                                  benchlib.quartiles(b)[1], m["better"])
                checks.append(shift <= bound)
            passed = all(checks)
            ok &= passed
            steady = max(s1, s2 or 0) < bound / 3
            print("%-18s %-16s %6d %7.1f%% %8s %8s  %.2f %s%s" % (
                workload, metric, len(a), 100 * s1,
                "-" if s2 is None else "%.1f%%" % (100 * s2),
                "-" if shift is None else "%+.1f%%" % (100 * shift),
                bound, "pass" if passed else "FAIL",
                "" if steady else " (spread above a third of the bound)"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(
        description="Compare benchmark result sets.",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=__doc__)
    ap.add_argument("--aa", action="store_true",
                    help="A/A steadiness check of one or two sets")
    ap.add_argument("sets", nargs="+")
    args = ap.parse_args()
    spec = load_spec()
    sets = [load_set(p) for p in args.sets]
    if args.aa:
        if len(sets) > 2:
            ap.error("--aa takes one or two sets")
        return aa(sets[0], sets[1] if len(sets) == 2 else None, spec)
    if len(sets) != 2:
        ap.error("compare takes exactly two sets (or --aa)")
    return compare(sets[0], sets[1], spec)


if __name__ == "__main__":
    sys.exit(main())
