#!/usr/bin/env python3
"""Run a bench briefly and check the keys its BENCH json must carry.

Usage:
    check_bench_keys.py <bench-binary> <checker.py> [bench args...]

Runs the bench (with any extra arguments, e.g. --quick) in a scratch
directory, where it writes its BENCH_<name>.json, then runs the checker's
key layers on that file (checker --keys-only). Exits non-zero if the bench
fails, writes no BENCH json, or the checker finds a key or series missing.
The checkers' ratio bounds need full-size runs; CI checks those.

Stdlib only; registered with ctest.
"""

import glob
import os
import subprocess
import sys
import tempfile


def main():
    if len(sys.argv) < 3:
        print(__doc__)
        return 2
    bench = os.path.abspath(sys.argv[1])
    checker = os.path.abspath(sys.argv[2])
    with tempfile.TemporaryDirectory() as scratch:
        run = subprocess.run([bench] + sys.argv[3:], cwd=scratch,
                             stdout=subprocess.DEVNULL)
        if run.returncode != 0:
            print(f"FAIL: {bench} exited with {run.returncode}")
            return 1
        written = glob.glob(os.path.join(scratch, "BENCH_*.json"))
        if len(written) != 1:
            print(f"FAIL: {bench} wrote {len(written)} BENCH json files, "
                  f"expected 1")
            return 1
        return subprocess.run([sys.executable, checker, "--keys-only",
                               written[0]]).returncode


if __name__ == "__main__":
    sys.exit(main())
