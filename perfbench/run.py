#!/usr/bin/env python3
"""Fabric benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the benchmark program (perfbench/CMakeLists.txt, Release) into
.bench_build/perfbench under the repository root, runs one workload, turns
its raw samples into metrics and prints, as the last line of stdout, one
JSON object with the keys correct, attempted, failed and metrics. The line
before it is a JSON record of the run (seed, provenance, thread guard,
sample counts, first errors).

--trace 0 reports the end-to-end metrics; --trace 1 the per-layer ones
(see perfbench/README.md). Exits non-zero when the build fails, the program
refuses to run, or any output fails its check.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import benchlib  # noqa: E402

ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "fabric_bench")
WORKLOADS = ("train_bucketed", "lossy_switch", "multitenant_small",
             "tree_allreduce")


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configures once, then builds incrementally (a no-op when current)."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        log("run.py: no fpisa sources at", ROOT)
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "fabric_bench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("run.py: build step failed:", " ".join(cmd))
            return False
    return True


def ms(ns):
    return ns * 1e-6


def tails(lat, cls):
    """p90 of all jobs and of the training class (class 0), each at the
    highest percentile <= 90 the sample count supports."""
    job_pct, job_tail = benchlib.tail(lat)
    training = [x for x, k in zip(lat, cls) if k == 0]
    tr_pct, tr_tail = benchlib.tail(training)
    return {"job_p90_ms": (ms(job_tail), "ms"),
            "job_tail_pct": (job_pct, "%"),
            "training_p90_ms": (ms(tr_tail), "ms"),
            "training_tail_pct": (tr_pct, "%")}


def end_to_end(raw):
    timed = raw["timed"]
    job_ns = benchlib.job_times(timed["seg_start"], timed["seg_first"],
                                timed["end_ns"])
    lat = timed["lat_ns"]
    rate, windows = benchlib.windowed_rate(
        job_ns, raw["values_per_job"], raw["jobs_per_window"])
    # The median of the segments' medians: a minority of segments caught
    # in a slow spell of the host does not move it.
    p50 = statistics.median(benchlib.segment_medians(lat, timed["seg_first"]))
    return {
        "values_per_s": (rate, "1/s"),
        "job_p50_ms": (ms(p50), "ms"),
        "setup_s": (statistics.median(raw["setup_s"]), "s"),
        "peak_rss_mb": (raw["peak_rss_kb"] / 1024.0, "MB"),
        "mean_abs_error": (raw["mean_abs_error"], "abs"),
    }, {"jobs": len(lat), "windows": windows,
        "setup_samples": len(raw["setup_s"]),
        # Tail latency is a diagnostic (README, "Demoted"): not gated.
        "tails": {k: v for k, (v, _) in tails(lat, timed["cls"]).items()}}


def per_layer(raw):
    sp = raw["spans"]
    names, units = sp["names"], sp["units"]
    rows = sp["spans"]
    selfs = benchlib.self_times([(r[1], r[3], r[4]) for r in rows])
    by_name = {}
    for r, s in zip(rows, selfs):
        by_name.setdefault(names[r[0]], []).append(s)

    def med(name):
        return statistics.median(by_name[name])

    def per_unit(name):
        return med(name) / units[names.index(name)]

    c = raw["counts"]
    n = raw["values_per_job"]
    w = raw["workers"]
    pisa = med("pisa.add_batch") + med("pisa.read_and_reset_batch")
    core = w * med("core.fpisa_add_batch") + med("core.fpisa_read_reset_batch")
    lossy_pkts = c["switchml_lossy_packets"]
    timed, traced = raw["timed"]["lat_ns"], raw["traced"]["lat_ns"]
    m = {
        "core.add_ns_per_value": (per_unit("core.fpisa_add_batch"), "ns"),
        "core.read_ns_per_value": (per_unit("core.fpisa_read_reset_batch"),
                                   "ns"),
        "pisa.add_batch_ns_per_packet": (per_unit("pisa.add_batch"), "ns"),
        "pisa.collect_ns_per_slot": (per_unit("pisa.read_and_reset_batch"),
                                     "ns"),
        "pisa.interp_ns_per_packet": (statistics.median(
            by_name["pisa.add"] + by_name["pisa.read_and_reset"]), "ns"),
        "switchml.reduce_ns_per_value": (per_unit("switchml.reduce_into"),
                                         "ns"),
        "switchml.reduce_lossy_ns_per_value": (
            per_unit("switchml.reduce_into_lossy"), "ns"),
        "switchml.add_phase_s": (c["switchml_add_s"] / c["switchml_jobs"],
                                 "s"),
        "switchml.collect_phase_s": (
            c["switchml_collect_s"] / c["switchml_jobs"], "s"),
        "switchml.packets_per_value": (lossy_pkts / n, "count"),
        "switchml.retransmit_ratio": (
            c["switchml_lossy_retransmissions"] / lossy_pkts, "ratio"),
        "switchml.dedup_ratio": (c["switchml_lossy_duplicates"] / lossy_pkts,
                                 "ratio"),
        # The switch's §5.2.1 op counts: one add per worker value, and the
        # share whose alignment shift dropped bits.
        "switchml.adds_per_value": (c["switchml_lossy_adds"] / (w * n),
                                    "count"),
        "switchml.rounded_add_ratio": (
            c["switchml_lossy_rounded_adds"] / c["switchml_lossy_adds"],
            "ratio"),
        "switchml.saturations": (c["switchml_lossy_saturations"], "count"),
        "cluster.reduce_ns_per_value": (per_unit("cluster.reduce"), "ns"),
        "cluster.inline_ns_per_value": (per_unit("cluster.reduce_inline"),
                                        "ns"),
        "cluster.job_fixed_us": (med("cluster.reduce_one_chunk") * 1e-3,
                                 "us"),
        "cluster.add_phase_s": (c["cluster_add_s"] / c["cluster_jobs"], "s"),
        "cluster.collect_phase_s": (
            c["cluster_collect_s"] / c["cluster_jobs"], "s"),
        "cluster.mailbox_tickets_per_job": (
            c["mailbox_tickets"] / c["mailbox_jobs"], "count"),
        "cluster.mailbox_wakeups_per_job": (
            c["mailbox_wakeups"] / c["mailbox_jobs"], "count"),
        "cluster.spurious_wakeups": (c["spurious_wakeups"], "count"),
        "cluster.peak_concurrent_jobs": (c["peak_concurrent_jobs"], "count"),
        "qos.submit_us": (med("qos.submit") * 1e-3, "us"),
        "qos.class_picks.training": (c["class_picks"][0], "count"),
        "qos.class_picks.query": (c["class_picks"][1], "count"),
        "qos.class_picks.telemetry": (c["class_picks"][2], "count"),
        "qos.jobs_rejected": (c["qos_rejected"], "count"),
        "collective.allreduce_overhead_us": (
            (med("collective.allreduce") - med("collective.service_reduce"))
            * 1e-3, "us"),
        "hierarchy.reduce_ns_per_value": (per_unit("hierarchy.reduce_into"),
                                          "ns"),
        "hierarchy.packets_per_value": (c["tree_packets"] / c["tree_values"],
                                        "count"),
        "hierarchy.sim_done_s": (c["tree_done_s"], "s"),
        "telemetry.on_off_ratio": (
            med("telemetry.reduce_on") / med("telemetry.reduce_off"), "ratio"),
        "waterfall.pisa_over_core": (pisa / core, "ratio"),
        "waterfall.switchml_over_pisa": (med("switchml.reduce_into") / pisa,
                                         "ratio"),
        "waterfall.cluster_over_switchml": (
            med("cluster.reduce") / med("switchml.reduce_into"), "ratio"),
        "waterfall.collective_over_cluster": (
            med("collective.allreduce") / med("collective.service_reduce"),
            "ratio"),
        "trace.overhead_ratio": (
            statistics.median(traced) / statistics.median(timed), "ratio"),
        "trace.job_self_us": (med("e2e.job") * 1e-3, "us"),
        "job_samples": (len(timed), "count"),
    }
    m.update(tails(timed, raw["timed"]["cls"]))
    return m, {"jobs": len(timed), "traced_jobs": len(traced),
               "spans": len(rows), "spans_dropped": sp["dropped"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not build():
        return 2
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=args.seconds + 150)
    if proc.returncode != 0:
        log("run.py: fabric_bench exited with", proc.returncode)
        return proc.returncode
    raw = json.loads(proc.stdout)

    books = raw["books"]
    prov = raw["provenance"]
    metrics, samples = (per_layer if args.trace else end_to_end)(raw)
    # A failed operation is an exception, an admission rejection or a wrong
    # result; this workload set promises zero rejections and zero
    # retransmit-exhaustion errors, so those fail the run too.
    correct = (books["failed"] == 0 and books["rejected"] == 0
               and books["service_rejected"] == 0
               and books["retransmit_exhausted"] == 0
               and (not args.trace or raw["counts"]["qos_rejected"] == 0))
    # Measured over the timed loop: threads using >= 10% of a CPU, and the
    # mean number of CPUs in use.
    threads_ok = (prov["busy_threads_measured"] <= prov["host_cpus"]
                  and prov["cpu_load"] <= prov["host_cpus"])
    if not threads_ok:
        log("run.py: WARNING: %s keeps %d threads (%.2f CPUs) busy on %d "
            "cpus" % (args.workload, prov["busy_threads_measured"],
                      prov["cpu_load"], prov["host_cpus"]))
    print(json.dumps({"run": {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "provenance": prov,
        "busy_threads_within_nproc": threads_ok,
        "host_ghz": statistics.median(raw["host_ghz"]), "samples": samples,
        "books": books, "errors": raw["errors"]}}))
    print(json.dumps({
        "correct": correct,
        "attempted": books["attempted"],
        "failed": books["failed"],
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
