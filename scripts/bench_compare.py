#!/usr/bin/env python3
"""Compare two Google Benchmark BENCH files row by row.

Usage:
    bench_compare.py OLD NEW

OLD and NEW are gbench JSON files (e.g. BENCH_core_ops.json). For every
row present in both, prints NEW/OLD for real_time (below 1 is faster) and
for items_per_second (above 1 is more throughput, "-" when a row counts
no items), with real_time normalized to ns across time units. A row run
with --benchmark_repetitions is compared by its median (the _median
aggregate), and then each side's min-max real_time over its repetitions
is printed beside the ratios; the _mean, _stddev and _cv aggregates are not
rows of their own. Then lists the rows present on one side only. The
ratios inform; they are not a verdict: compare them with the spreads.

Exit status: 0 when the files compare, 1 when NEW's context stamps a
dirty tree (fpisa_git_describe ends in "-dirty", i.e. numbers from code
that no commit holds), 2 when a file cannot be read.

Stdlib only.
"""

import json
import sys

_NS_PER_UNIT = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def load(path):
    """Context and rows: name -> real_ns, items and reps, the real_ns of
    each repetition (empty for a row run once). A row with repetitions
    stands as its _median aggregate."""
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    runs = {}
    medians = {}
    for b in doc.get("benchmarks", []):
        scale = _NS_PER_UNIT.get(b.get("time_unit", "ns"), 1.0)
        point = {"real_ns": float(b.get("real_time", 0.0)) * scale,
                 "items": b.get("items_per_second")}
        name = b.get("run_name") or b["name"]
        if b.get("run_type") == "aggregate":
            if b.get("aggregate_name") == "median":
                medians[name] = point
            continue
        runs.setdefault(name, []).append(point)
    rows = {}
    for name in {**runs, **medians}:
        reps = [r["real_ns"] for r in runs.get(name, [])]
        rows[name] = dict(medians.get(name) or runs[name][-1])
        rows[name]["reps"] = reps if len(reps) > 1 else []
    return doc.get("context", {}), rows


def ratio(new, old):
    if new is None or old is None or old == 0:
        return None
    return float(new) / float(old)


def fmt(r):
    return "-" if r is None else f"{r:.3f}"


def fmt_ns(ns):
    for unit in ("s", "ms", "us"):
        if ns >= _NS_PER_UNIT[unit]:
            return f"{ns / _NS_PER_UNIT[unit]:.4g}{unit}"
    return f"{ns:.4g}ns"


def spread(reps):
    """min-max real_time of a row's repetitions; "-" without any."""
    return f"{fmt_ns(min(reps))}-{fmt_ns(max(reps))}" if reps else "-"


def compare(old_path, new_path, out=sys.stdout):
    try:
        old_ctx, old = load(old_path)
        new_ctx, new = load(new_path)
    except (OSError, ValueError, KeyError) as e:
        print(f"bench_compare: cannot read input: {e}", file=out)
        return 2
    describe = {p: c.get("fpisa_git_describe", "unstamped")
                for p, c in ((old_path, old_ctx), (new_path, new_ctx))}
    print(f"old: {old_path} ({describe[old_path]})", file=out)
    print(f"new: {new_path} ({describe[new_path]})", file=out)
    both = [n for n in new if n in old]
    width = max([len(n) for n in both] + [len("row")])
    # The spread columns appear when either file has repetitions.
    reps = any(r["reps"] for side in (old, new) for r in side.values())
    print(f"{'row':<{width}}  {'real_time':>9}  {'items/s':>9}"
          + (f"  {'old min-max':>19}  {'new min-max':>19}" if reps else ""),
          file=out)
    for name in both:
        o, n = old[name], new[name]
        print(f"{name:<{width}}  {fmt(ratio(n['real_ns'], o['real_ns'])):>9}"
              f"  {fmt(ratio(n['items'], o['items'])):>9}"
              + (f"  {spread(o['reps']):>19}  {spread(n['reps']):>19}"
                 if reps else ""), file=out)
    for label, side, other in (("old", old, new), ("new", new, old)):
        only = [n for n in side if n not in other]
        if only:
            print(f"only in {label}: {', '.join(only)}", file=out)
    if str(describe[new_path]).endswith("-dirty"):
        print(f"FAIL: {new_path} was measured on a dirty tree "
              f"({describe[new_path]})", file=out)
        return 1
    return 0


def main(argv):
    if len(argv) != 3:
        print(__doc__)
        return 2
    return compare(argv[1], argv[2])


if __name__ == "__main__":
    sys.exit(main(sys.argv))
