#!/usr/bin/env python3
"""Check BENCH_qos_isolation.json's tenant-isolation contract.

Usage:
    check_qos_isolation.py [--keys-only] <BENCH_qos_isolation.json>

Stdlib only (runs in CI right after the Release bench). Three layers:

  presence — the keys the isolation bench must emit: victim p50/p99 for
  all four phases (uncontended, qos_idle, unthrottled, qos), the two p99
  ratios, the aggressor bookkeeping, and host_cpus.

  telemetry — the embedded registry snapshot must carry the qos_* metric
  series (admission queue depth, per-class admissions/picks, the reject
  taxonomy) plus the exported per-shard mailbox series, proving the
  admission plane is wired into the metrics surface, not just the bench.

  isolation — victim_p99_ratio_qos <= 2.0 (the victim's p99 under
  aggressor load, QoS on, stays within 2x of its uncontended baseline)
  while victim_p99_ratio_unthrottled >= 2.0 (without QoS the same load
  visibly degrades the victim — otherwise the contention the first
  assertion survives never existed). Both ratios are wall-clock, but they
  are ratios of latencies measured seconds apart on the same host, so
  they hold on single-core runners too (the bench contends on the job
  queue, not on cores).

--keys-only runs the presence and telemetry layers and skips isolation:
the ctest smoke run (bench_qos_isolation --quick) takes too few samples
for the ratios to mean anything.
"""

import json
import sys

REQUIRED_KEYS = [
    "victim_p50_ms_uncontended",
    "victim_p99_ms_uncontended",
    "victim_p50_ms_qos_idle",
    "victim_p99_ms_qos_idle",
    "victim_p50_ms_unthrottled",
    "victim_p99_ms_unthrottled",
    "victim_p50_ms_qos",
    "victim_p99_ms_qos",
    "victim_p99_ratio_unthrottled",
    "victim_p99_ratio_qos",
    "qos_isolation_speedup",
    "qos_idle_overhead_pct",
    "aggressor_submitted_unthrottled",
    "aggressor_completed_unthrottled",
    "aggressor_rejected_unthrottled",
    "aggressor_submitted_qos",
    "aggressor_completed_qos",
    "aggressor_rejected_qos",
    "host_cpus",
]

REQUIRED_SERIES = [
    "qos_admission_queue_depth",
    "qos_jobs_admitted_total",
    "qos_sched_picks_total",
    "qos_jobs_rejected_total",
    "cluster_mailbox_enqueued",
]

MAX_VICTIM_P99_RATIO_QOS = 2.0
MIN_VICTIM_P99_RATIO_UNTHROTTLED = 2.0


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

    telemetry = metrics.get("telemetry")
    if not isinstance(telemetry, dict):
        errors.append("missing embedded 'telemetry' snapshot")
    else:
        names = {s.get("name")
                 for kind in ("counters", "gauges", "histograms")
                 for s in telemetry.get(kind, [])}
        for series in REQUIRED_SERIES:
            if series not in names:
                errors.append(f"telemetry snapshot missing series: {series}")

    if errors:
        for e in errors:
            print(f"FAIL: {path}: {e}")
        return 1
    if keys_only:
        print(f"OK: {path}: every key and telemetry series present")
        return 0

    ratio_unthrottled = metrics["victim_p99_ratio_unthrottled"]
    ratio_qos = metrics["victim_p99_ratio_qos"]
    print(f"host_cpus={metrics['host_cpus']:.0f} "
          f"victim_p99_ratio_unthrottled={ratio_unthrottled:.2f} "
          f"victim_p99_ratio_qos={ratio_qos:.2f} "
          f"isolation_speedup={metrics['qos_isolation_speedup']:.2f}x "
          f"qos_idle_overhead={metrics['qos_idle_overhead_pct']:+.1f}%")

    if ratio_unthrottled < MIN_VICTIM_P99_RATIO_UNTHROTTLED:
        print(f"FAIL: unthrottled victim p99 ratio {ratio_unthrottled:.2f} "
              f"< {MIN_VICTIM_P99_RATIO_UNTHROTTLED} — the aggressor load "
              f"never actually contended; the isolation result is vacuous")
        return 1
    if ratio_qos > MAX_VICTIM_P99_RATIO_QOS:
        print(f"FAIL: QoS victim p99 ratio {ratio_qos:.2f} > "
              f"{MAX_VICTIM_P99_RATIO_QOS} — the scheduler is not "
              f"isolating the victim from the aggressor backlog")
        return 1
    print(f"OK: victim p99 {ratio_unthrottled:.2f}x unthrottled -> "
          f"{ratio_qos:.2f}x with QoS (targets: >= "
          f"{MIN_VICTIM_P99_RATIO_UNTHROTTLED} and <= "
          f"{MAX_VICTIM_P99_RATIO_QOS})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
