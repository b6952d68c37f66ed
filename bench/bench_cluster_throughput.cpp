// Rack-scale aggregation throughput: aggregate values/s of the sharded
// multi-switch service vs shard count (1 -> 8), plus the two-level
// ToR->spine tree vs the flat single-switch baseline. The switches run at
// line rate (the paper's emulation argument), so modeled completion time
// comes from per-shard ingress-pipe serialization, in closed form;
// functional results are produced by the real pisa pipelines either way.
//
// Every layer runs the one wave engine: 32-lane chunk packets (amortizing
// the FPISA header + frame overhead over 32 values on the modeled wire),
// queued as descriptors into the worker views and settled through
// FpisaSwitch::admit with one shard-mutex hold per wave phase, their lanes
// added by FpisaSwitch::gather, and collect phases released and drained by
// FpisaSwitch::release and drain. The add/collect wall-time
// split is reported per shard count. A 2-lane single-shard row is kept for
// continuity with the pre-batching numbers.
// The bench drives everything through the unified collective API
// (collective::ClusterCommunicator / TreeCommunicator): gradients enter as
// zero-copy views and the result lands in a caller-owned buffer, exactly
// as a framework integration would run it.
#include <algorithm>
#include <chrono>
#include <cstdio>

#include "cluster/aggregation_service.h"
#include "cluster/hierarchy.h"
#include "collective/communicator.h"
#include "pisa/fpisa_program.h"
#include "telemetry/metrics.h"
#include "util/bench_json.h"
#include "util/cpus.h"
#include "util/rng.h"
#include "util/table.h"

namespace {

std::vector<std::vector<float>> make_workers(int w, std::size_t n,
                                             std::uint64_t seed) {
  fpisa::util::Rng rng(seed);
  std::vector<std::vector<float>> out(static_cast<std::size_t>(w),
                                      std::vector<float>(n));
  for (auto& vec : out) {
    for (auto& v : vec) v = static_cast<float>(rng.normal(0.0, 0.1));
  }
  return out;
}

struct RunResult {
  double modeled_s = 0;
  double wall_ms = 0;
  double add_phase_ms = 0;
  double collect_phase_ms = 0;
  std::uint64_t packets = 0;
};

RunResult run_once(int shards, int lanes, std::size_t values,
                   const std::vector<std::vector<float>>& workers,
                   double gbps, double latency_us,
                   int kill_shard = -1, bool fault_guard = false) {
  using namespace fpisa;
  using namespace fpisa::cluster;
  ClusterOptions opts;
  opts.num_shards = shards;
  opts.lanes = lanes;
  opts.slots_per_shard = 64;
  opts.slots_per_job = 64;
  opts.failover.enabled = kill_shard >= 0;
  // Guarded datapath with every injection rate at zero: measures what the
  // epoch/checksum machinery itself costs, with no faults to recover.
  opts.fault.enabled = fault_guard;
  opts.fault.seed = 9;
  collective::ClusterCommunicator comm(opts);
  if (kill_shard >= 0) comm.service().kill_shard(kill_shard);

  std::vector<float> out(workers.front().size());
  const auto t0 = std::chrono::steady_clock::now();
  const collective::ReduceStats stats =
      comm.allreduce(collective::WorkerViews(workers), out,
                     collective::ReduceOp::kSum, "bench");
  const auto t1 = std::chrono::steady_clock::now();

  const std::size_t pkt_bytes =
      static_cast<std::size_t>(pisa::kFpisaHeaderBytes) +
      4u * static_cast<std::size_t>(lanes) + 46u;
  RunResult r;
  r.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  r.add_phase_ms = comm.service().phase_breakdown().add_s * 1e3;
  r.collect_phase_ms = comm.service().phase_breakdown().collect_s * 1e3;
  r.modeled_s = modeled_shard_parallel_seconds(stats.per_shard, pkt_bytes,
                                               gbps, latency_us);
  r.packets = stats.network.packets_sent;
  (void)values;
  return r;
}

}  // namespace

int main() {
  using namespace fpisa;
  using namespace fpisa::cluster;
  std::printf("=== Rack-scale aggregation throughput vs shard count ===\n\n");

  const int kWorkers = 4;
  const std::size_t kValues = 8192;
  const int kLanes = 32;        // batched chunk geometry (values per packet)
  const int kLegacyLanes = 2;   // pre-batching geometry, kept for reference
  const double kGbps = 100.0;
  const double kLatencyUs = 1.0;
  const auto workers = make_workers(kWorkers, kValues, 200);

  util::BenchJson json("cluster_throughput");
  json.set("workers", static_cast<double>(kWorkers));
  json.set("values", static_cast<double>(kValues));
  json.set("lanes", static_cast<double>(kLanes));
  json.set("link_gbps", kGbps);

  util::Table t({"Shards", "Packets", "Modeled time (ms)", "Values/s (x1e6)",
                 "Speedup", "Sim wall (ms)", "Add (ms)", "Collect (ms)",
                 "Wall values/s (x1e6)"});
  double base_rate = 0.0;
  double rate_at_4 = 0.0;
  double wall_rate_1 = 0.0;
  for (const int shards : {1, 2, 4, 8}) {
    // Best-of-3 for the wall rows: the scaling-efficiency keys gate CI, so
    // keep scheduler noise out of the numerator and denominator alike.
    RunResult r = run_once(shards, kLanes, kValues, workers, kGbps,
                           kLatencyUs);
    for (int rep = 1; rep < 3; ++rep) {
      const RunResult again =
          run_once(shards, kLanes, kValues, workers, kGbps, kLatencyUs);
      if (again.wall_ms < r.wall_ms) r = again;
    }
    const double rate = static_cast<double>(kValues) / r.modeled_s;
    const double wall_rate =
        static_cast<double>(kValues) / (r.wall_ms * 1e-3);
    if (shards == 1) {
      base_rate = rate;
      wall_rate_1 = wall_rate;
    }
    if (shards == 4) rate_at_4 = rate;
    if (shards > 1) {
      // Parallel efficiency of the execution engine itself: wall-clock
      // speedup over 1 shard divided by the shard count (1.0 = perfect).
      json.set("wall_scaling_efficiency_shards_" + std::to_string(shards),
               wall_rate / wall_rate_1 / static_cast<double>(shards));
    }

    t.add_row({std::to_string(shards), std::to_string(r.packets),
               util::Table::num(r.modeled_s * 1e3, 3),
               util::Table::num(rate / 1e6, 1),
               util::Table::num(rate / base_rate, 2) + "x",
               util::Table::num(r.wall_ms, 1),
               util::Table::num(r.add_phase_ms, 2),
               util::Table::num(r.collect_phase_ms, 2),
               util::Table::num(wall_rate / 1e6, 1)});
    json.set("values_per_s_shards_" + std::to_string(shards), rate);
    json.set("sim_wall_ms_shards_" + std::to_string(shards), r.wall_ms);
    json.set("add_phase_ms_shards_" + std::to_string(shards), r.add_phase_ms);
    json.set("collect_phase_ms_shards_" + std::to_string(shards),
             r.collect_phase_ms);
    json.set("wall_values_per_s_shards_" + std::to_string(shards), wall_rate);
  }
  std::printf("%s", t.render().c_str());

  // The wall rows depend on how many cores actually back the datapath
  // pool's helpers — record it so downstream checks (scripts/check_bench_scaling)
  // can gate the scaling assertion on real parallel hardware. The usable
  // count, not the online one: an affinity mask or cgroup quota may leave
  // this process fewer CPUs than the host has.
  const double host_cpus = static_cast<double>(util::usable_cpus());
  json.set("host_cpus", host_cpus);

  // Dispatch overhead: a minimal job (one chunk per shard) over many reps,
  // datapath-pool helpers vs inline on the same fabric. The delta prices
  // one fan-out/join round trip — the helper tickets, wakeups, and the
  // join — with almost no shard work to hide behind.
  {
    constexpr int kDispatchReps = 200;
    const auto tiny = make_workers(
        kWorkers, static_cast<std::size_t>(4 * kLanes), 202);
    const auto time_mode = [&](cluster::ClusterOptions::DispatchMode mode) {
      ClusterOptions opts;
      opts.num_shards = 4;
      opts.lanes = kLanes;
      opts.slots_per_shard = 64;
      opts.slots_per_job = 64;
      opts.dispatch = mode;
      AggregationService svc(opts);
      const std::vector<std::span<const float>> views(tiny.begin(),
                                                      tiny.end());
      const cluster::JobView job{"bench", views};
      std::vector<float> out(tiny.front().size());
      // Warm-up pass so thread creation / first-touch costs stay out.
      (void)svc.reduce(job, out);
      const auto t0 = std::chrono::steady_clock::now();
      for (int i = 0; i < kDispatchReps; ++i) {
        (void)svc.reduce(job, out);
      }
      const auto t1 = std::chrono::steady_clock::now();
      return std::chrono::duration<double, std::micro>(t1 - t0).count() /
             kDispatchReps;
    };
    const double inline_us =
        time_mode(cluster::ClusterOptions::DispatchMode::kInline);
    const double workers_us =
        time_mode(cluster::ClusterOptions::DispatchMode::kWorkers);
    const double overhead_us = workers_us - inline_us;
    json.set("dispatch_pass_us_inline", inline_us);
    json.set("dispatch_pass_us_workers", workers_us);
    json.set("dispatch_overhead_us_per_pass", overhead_us);
    std::printf("\ndispatch overhead (4 shards, 1-chunk waves, %d reps): "
                "inline %.1f us/pass, pool helpers %.1f us/pass = "
                "%+.1f us fan-out/join cost\n",
                kDispatchReps, inline_us, workers_us, overhead_us);
  }

  const double speedup_4 = rate_at_4 / base_rate;
  json.set("speedup_1_to_4", speedup_4);
  std::printf("\naggregate throughput scaling 1 -> 4 shards: %.2fx "
              "(acceptance target: >= 2x)\n",
              speedup_4);

  // Degraded mode: the same 4-shard fabric with one shard dead — its chunk
  // set re-routes onto the 3 survivors (ShardRouter::reroute), so capacity
  // gracefully steps down to roughly the N-1 line instead of the job
  // failing. This is the failover subsystem's throughput story.
  const RunResult degraded =
      run_once(4, kLanes, kValues, workers, kGbps, kLatencyUs,
               /*kill_shard=*/3);
  const double degraded_rate =
      static_cast<double>(kValues) / degraded.modeled_s;
  json.set("values_per_s_shards_4_degraded", degraded_rate);
  json.set("sim_wall_ms_shards_4_degraded", degraded.wall_ms);
  json.set("degraded_fraction_of_healthy_4", degraded_rate / rate_at_4);
  std::printf("degraded mode (4 shards, 1 dead): %.1fM values/s modeled = "
              "%.0f%% of the healthy 4-shard fabric (expect ~N-1/N)\n",
              degraded_rate / 1e6, 100.0 * degraded_rate / rate_at_4);

  // Telemetry overhead: the same 4-shard job with the registry kill switch
  // off vs on (every inc/observe collapses to a relaxed load + branch when
  // off). Acceptance: the instrumented run within 2% of the dark one —
  // wall times are noisy at ms scale, so take the best of a few reps and
  // warn rather than fail, like the other wall-clock targets.
  constexpr int kTelemetryReps = 5;
  const auto best_wall_ms = [&] {
    double best = 1e300;
    for (int i = 0; i < kTelemetryReps; ++i) {
      const RunResult r =
          run_once(4, kLanes, kValues, workers, kGbps, kLatencyUs);
      best = std::min(best, r.wall_ms);
    }
    return best;
  };
  telemetry::set_enabled(false);
  const double wall_off_ms = best_wall_ms();
  telemetry::set_enabled(true);
  const double wall_on_ms = best_wall_ms();
  const double rate_off = static_cast<double>(kValues) / (wall_off_ms * 1e-3);
  const double rate_on = static_cast<double>(kValues) / (wall_on_ms * 1e-3);
  const double overhead_pct = 100.0 * (wall_on_ms - wall_off_ms) / wall_off_ms;
  json.set("wall_values_per_s_shards_4_telemetry_off", rate_off);
  json.set("wall_values_per_s_shards_4_telemetry_on", rate_on);
  json.set("telemetry_overhead_pct", overhead_pct);
  std::printf("telemetry overhead, 4 shards (best of %d): off %.2f ms, on "
              "%.2f ms = %+.2f%% (acceptance target: <= 2%%)\n",
              kTelemetryReps, wall_off_ms, wall_on_ms, overhead_pct);
  if (overhead_pct > 2.0) {
    std::printf("warning: telemetry overhead above the 2%% target on this "
                "machine\n");
  }

  // Fault-injection overhead, two rows. With fault.enabled=false the
  // session/cluster datapath is the byte-for-byte legacy one (a single
  // branch guards the whole subsystem), so the "off" row vs the
  // instrumented baseline above must sit inside run-to-run noise —
  // acceptance: <= 2%. The "guard on, zero rates" row prices the guarded
  // datapath itself (per-packet epoch stamps + checksums + engine
  // pass-through) for anyone who wants detection always-armed.
  // The legs are interleaved (baseline, off, guard, baseline, ...) so
  // thermal/frequency drift across the process lands on all three
  // equally instead of inflating whichever leg runs last.
  double wall_fault_base_ms = 1e300, wall_fault_off_ms = 1e300,
         wall_guard_on_ms = 1e300;
  for (int i = 0; i < 2 * kTelemetryReps; ++i) {
    const auto leg = [&](bool guard) {
      return run_once(4, kLanes, kValues, workers, kGbps, kLatencyUs,
                      /*kill_shard=*/-1, guard)
          .wall_ms;
    };
    wall_fault_base_ms = std::min(wall_fault_base_ms, leg(false));
    wall_fault_off_ms = std::min(wall_fault_off_ms, leg(false));
    wall_guard_on_ms = std::min(wall_guard_on_ms, leg(true));
  }
  const double fault_off_pct =
      100.0 * (wall_fault_off_ms - wall_fault_base_ms) / wall_fault_base_ms;
  const double fault_guard_pct =
      100.0 * (wall_guard_on_ms - wall_fault_off_ms) / wall_fault_off_ms;
  json.set("wall_values_per_s_shards_4_fault_off",
           static_cast<double>(kValues) / (wall_fault_off_ms * 1e-3));
  json.set("wall_values_per_s_shards_4_fault_guard_on",
           static_cast<double>(kValues) / (wall_guard_on_ms * 1e-3));
  json.set("fault_off_overhead_pct", fault_off_pct);
  json.set("fault_guard_overhead_pct", fault_guard_pct);
  std::printf("fault injection off, 4 shards (best of %d): %.2f ms = "
              "%+.2f%% vs baseline (acceptance target: <= 2%%)\n",
              2 * kTelemetryReps, wall_fault_off_ms, fault_off_pct);
  if (fault_off_pct > 2.0) {
    std::printf("warning: fault-off overhead above the 2%% target on this "
                "machine\n");
  }
  std::printf("guarded datapath, zero fault rates: %.2f ms = %+.2f%% over "
              "fault-off (stamps + checksums, no recovery work)\n",
              wall_guard_on_ms, fault_guard_pct);

  // Continuity row: the pre-batching 2-lane geometry on one shard.
  const RunResult legacy =
      run_once(1, kLegacyLanes, kValues, workers, kGbps, kLatencyUs);
  const double legacy_rate = static_cast<double>(kValues) / legacy.modeled_s;
  json.set("values_per_s_shards_1_lanes2", legacy_rate);
  json.set("sim_wall_ms_shards_1_lanes2", legacy.wall_ms);
  std::printf("legacy 2-lane geometry, 1 shard: %.1fM values/s modeled "
              "(batched 32-lane: %.2fx over it)\n\n",
              legacy_rate / 1e6, base_rate / legacy_rate);

  std::printf("=== Two-level ToR->spine tree vs flat single switch ===\n");
  util::Table h({"Leaves", "Workers", "Tree done (ms)", "Flat done (ms)",
                 "Tree pkts", "Flat pkts", "Spine flows vs flat ports"});
  std::vector<double> tree_done, flat_done;
  for (const int leaves : {2, 4, 8}) {
    HierarchyOptions hopts;
    hopts.leaves = leaves;
    hopts.workers_per_leaf = 2;
    hopts.slots = 64;
    hopts.lanes = kLegacyLanes;
    hopts.link_gbps = kGbps;
    hopts.link_latency_us = kLatencyUs;
    collective::TreeCommunicator comm(hopts);
    HierarchicalAggregator& tree = comm.tree();

    const std::size_t n = 4096;
    const auto tw = make_workers(tree.total_workers(), n, 201);
    std::vector<float> out(n);
    (void)comm.allreduce(collective::WorkerViews(tw), out);
    const HierarchyTiming flat = flat_baseline_timing(hopts, n);
    tree_done.push_back(tree.timing().done_s);
    flat_done.push_back(flat.done_s);

    h.add_row({std::to_string(leaves), std::to_string(tree.total_workers()),
               util::Table::num(tree.timing().done_s * 1e3, 3),
               util::Table::num(flat.done_s * 1e3, 3),
               std::to_string(tree.timing().packets),
               std::to_string(flat.packets),
               std::to_string(leaves) + " vs " +
                   std::to_string(tree.total_workers())});
    json.set("tree_done_ms_leaves_" + std::to_string(leaves),
             tree.timing().done_s * 1e3);
    json.set("flat_done_ms_leaves_" + std::to_string(leaves),
             flat.done_s * 1e3);
  }
  std::printf("%s", h.render().c_str());
  std::printf("\nfan-in through the shared switch pipeline is what varies "
              "with topology: the tree's root terminates `leaves` flows "
              "while the flat switch's one pipeline absorbs every worker — "
              "that is what lets aggregation outgrow a single switch.\n");

  // Guard against the timing model degenerating into constants again: the
  // completion times must actually respond to the leaf count.
  for (std::size_t i = 1; i < tree_done.size(); ++i) {
    if (tree_done[i] == tree_done[i - 1] || flat_done[i] == flat_done[i - 1]) {
      std::printf("ERROR: hierarchy timing is degenerate across leaf "
                  "counts (tree %g vs %g, flat %g vs %g)\n",
                  tree_done[i - 1], tree_done[i], flat_done[i - 1],
                  flat_done[i]);
      return 1;
    }
  }

  // Embed the registry's end-of-run state so BENCH json carries the
  // fabric's metric samples (packets, ops taxonomy, phase histograms).
  json.set_raw("telemetry", telemetry::snapshot().json());

  if (!json.write()) std::printf("warning: could not write BENCH json\n");
  return 0;
}
