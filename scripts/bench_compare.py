#!/usr/bin/env python3
"""Compare two Google Benchmark BENCH files row by row.

Usage:
    bench_compare.py OLD NEW

OLD and NEW are gbench JSON files (e.g. BENCH_core_ops.json). For every
row present in both, prints NEW/OLD for real_time (below 1 is faster) and
for items_per_second (above 1 is more throughput, "-" when a row counts
no items), with real_time normalized to ns across time units. Then lists
the rows present on one side only. The ratios inform; they are not a
verdict, since one run of each side carries the host's noise.

Exit status: 0 when the files compare, 1 when NEW's context stamps a
dirty tree (fpisa_git_describe ends in "-dirty", i.e. numbers from code
that no commit holds), 2 when a file cannot be read.

Stdlib only.
"""

import json
import sys

_NS_PER_UNIT = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def load(path):
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    rows = {}
    for b in doc.get("benchmarks", []):
        scale = _NS_PER_UNIT.get(b.get("time_unit", "ns"), 1.0)
        rows[b["name"]] = {
            "real_ns": float(b.get("real_time", 0.0)) * scale,
            "items": b.get("items_per_second"),
        }
    return doc.get("context", {}), rows


def ratio(new, old):
    if new is None or old is None or old == 0:
        return None
    return float(new) / float(old)


def fmt(r):
    return "-" if r is None else f"{r:.3f}"


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
    print(f"{'row':<{width}}  {'real_time':>9}  {'items/s':>9}", file=out)
    for name in both:
        o, n = old[name], new[name]
        print(f"{name:<{width}}  {fmt(ratio(n['real_ns'], o['real_ns'])):>9}"
              f"  {fmt(ratio(n['items'], o['items'])):>9}", file=out)
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
