#!/usr/bin/env python3
"""Check BENCH_cluster_throughput.json's multi-core scaling contract.

Usage:
    check_bench_scaling.py [--keys-only] <BENCH_cluster_throughput.json>

Stdlib only (runs in CI right after the Release bench). Two layers:

  presence — the execution-engine keys the multi-core engine must emit:
  wall_values_per_s_shards_{1,2,4,8}, wall_scaling_efficiency_shards_{2,4,8},
  dispatch_overhead_us_per_pass, and host_cpus.

  scaling — wall_values_per_s_shards_8 / wall_values_per_s_shards_1 > 2.0.
  Wall-clock scaling needs cores to scale ON, so this assertion only arms
  when the bench ran on >= 4 usable CPUs (host_cpus is recorded by the
  bench itself, as util::usable_cpus(): the CPUs its affinity mask and
  cgroup quota allow, not the online count); on smaller hosts the
  datapath pool has too few workers to scale on and the check reports a
  skip instead of a false failure.

--keys-only runs the presence layer alone (the ctest smoke run).
"""

import json
import sys

REQUIRED_KEYS = [
    "wall_values_per_s_shards_1",
    "wall_values_per_s_shards_2",
    "wall_values_per_s_shards_4",
    "wall_values_per_s_shards_8",
    "wall_scaling_efficiency_shards_2",
    "wall_scaling_efficiency_shards_4",
    "wall_scaling_efficiency_shards_8",
    "dispatch_overhead_us_per_pass",
    "dispatch_pass_us_inline",
    "dispatch_pass_us_workers",
    "host_cpus",
]

MIN_CORES_FOR_SCALING = 4
MIN_WALL_RATIO_8_OVER_1 = 2.0


def main():
    args = sys.argv[1:]
    keys_only = "--keys-only" in args
    if keys_only:
        args.remove("--keys-only")
    if len(args) != 1:
        print(__doc__)
        return 2
    path = args[0]
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    metrics = doc.get("metrics")
    if not isinstance(metrics, dict):
        print(f"FAIL: {path}: no 'metrics' object")
        return 1

    errors = []
    for key in REQUIRED_KEYS:
        value = metrics.get(key)
        if not isinstance(value, (int, float)):
            errors.append(f"missing or non-numeric metric: {key}")
    if errors:
        for e in errors:
            print(f"FAIL: {path}: {e}")
        return 1
    if keys_only:
        print(f"OK: {path}: every key present")
        return 0

    host_cpus = metrics["host_cpus"]
    ratio = (metrics["wall_values_per_s_shards_8"]
             / metrics["wall_values_per_s_shards_1"])
    print(f"host_cpus={host_cpus:.0f} "
          f"wall_8/wall_1={ratio:.2f} "
          f"eff_2={metrics['wall_scaling_efficiency_shards_2']:.2f} "
          f"eff_4={metrics['wall_scaling_efficiency_shards_4']:.2f} "
          f"eff_8={metrics['wall_scaling_efficiency_shards_8']:.2f} "
          f"dispatch_overhead={metrics['dispatch_overhead_us_per_pass']:.1f}us")

    if host_cpus < MIN_CORES_FOR_SCALING:
        print(f"SKIP scaling assertion: bench host has {host_cpus:.0f} "
              f"hardware threads (< {MIN_CORES_FOR_SCALING}); wall-clock "
              f"scaling needs cores to scale on. Key presence verified.")
        return 0
    if ratio <= MIN_WALL_RATIO_8_OVER_1:
        print(f"FAIL: wall_values_per_s_shards_8 / shards_1 = {ratio:.2f}, "
              f"need > {MIN_WALL_RATIO_8_OVER_1} on a "
              f"{host_cpus:.0f}-thread host")
        return 1
    print(f"OK: wall scaling {ratio:.2f}x (> {MIN_WALL_RATIO_8_OVER_1})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
