#!/usr/bin/env python3
"""Runs the benchmark over several seeds and workloads, one run at a time,
saving each run's stdout as <out>/<workload>-s<seed>-t<trace>.out for
compare.py.

    python3 perfbench/sweep.py --out results/A --seeds 1-10 \
        [--workloads train_bucketed,lossy_switch] [--seconds 20] [--trace 0]

--seconds defaults to BENCHMARK.json's run_seconds. Seeds are "a-b" or a
comma list. Workloads run interleaved (seed-major), so slow drifts of the
host spread over every workload instead of landing on one.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    os.makedirs(args.out, exist_ok=True)
    failures = 0
    for seed in parse_seeds(args.seeds):
        for workload in args.workloads.split(","):
            path = os.path.join(args.out, "%s-s%d-t%d.out"
                                % (workload, seed, args.trace))
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", "%g" % args.seconds,
                   "--trace", str(args.trace)]
            with open(path, "w") as out:
                rc = subprocess.run(cmd, stdout=out, cwd=ROOT).returncode
            print("%s seed %d: rc=%d" % (workload, seed, rc), flush=True)
            failures += rc != 0
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
