#pragma once

// Central catalog of every metric series name the stack registers.
//
// This is the single source of truth for series naming: scripts/
// lint_static.py cross-checks every name passed to
// MetricsRegistry::counter/gauge/histogram in src/ against this list (both
// directions — an unregistered catalog entry is as much drift as an
// uncataloged registration), and scripts/lint_telemetry.py fails a scrape
// that exposes a series missing from it. A pasted-and-drifted metric name
// breaks CI instead of silently forking a time series.
//
// Instance label values (sw=, sess=, svc=, tree=, comm=) never repeat but
// one: `retired` is reserved for the series dead instances fold into.
//
// Keep entries sorted by name within each section.

#include <array>
#include <string_view>

namespace fpisa::telemetry::series {

// cluster: the sharded aggregation service (src/cluster/).
inline constexpr std::string_view kClusterFailoverChunksRerouted =
    "cluster_failover_chunks_rerouted_total";
inline constexpr std::string_view kClusterFailoverRetries =
    "cluster_failover_retries_total";
inline constexpr std::string_view kClusterFailoverShardDeaths =
    "cluster_failover_shard_deaths_total";
inline constexpr std::string_view kClusterFaultEpochBumps =
    "cluster_fault_epoch_bumps_total";
inline constexpr std::string_view kClusterFaultWavesReplayed =
    "cluster_fault_waves_replayed_total";
inline constexpr std::string_view kClusterFaultWorkersDeclaredDead =
    "cluster_fault_workers_declared_dead_total";
inline constexpr std::string_view kClusterJobQueueDepth =
    "cluster_job_queue_depth";
inline constexpr std::string_view kClusterJobWallSeconds =
    "cluster_job_wall_seconds";
inline constexpr std::string_view kClusterJobs = "cluster_jobs_total";
inline constexpr std::string_view kClusterMailboxEnqueued =
    "cluster_mailbox_enqueued";
inline constexpr std::string_view kClusterMailboxSpuriousWakeups =
    "cluster_mailbox_spurious_wakeups";
inline constexpr std::string_view kClusterMailboxWakeups =
    "cluster_mailbox_wakeups";
inline constexpr std::string_view kClusterShardPhaseSeconds =
    "cluster_shard_phase_seconds";

// collective: the unified Communicator surface (src/collective/).
inline constexpr std::string_view kCollectiveAllreduceSeconds =
    "collective_allreduce_seconds";
inline constexpr std::string_view kCollectiveAllreduces =
    "collective_allreduces_total";

// fpisa_switch: the simulated switch datapath (src/pisa/).
inline constexpr std::string_view kSwitchCorruptRejected =
    "fpisa_switch_corrupt_rejected_total";
inline constexpr std::string_view kSwitchDedupHits =
    "fpisa_switch_dedup_hits_total";
inline constexpr std::string_view kSwitchOccupiedSlots =
    "fpisa_switch_occupied_slots";
inline constexpr std::string_view kSwitchOps = "fpisa_switch_ops_total";
inline constexpr std::string_view kSwitchPackets =
    "fpisa_switch_packets_total";
inline constexpr std::string_view kSwitchStaleDupsRejected =
    "fpisa_switch_stale_dups_rejected_total";

// qos: admission control + class scheduler (src/qos/).
inline constexpr std::string_view kQosAdmissionQueueDepth =
    "qos_admission_queue_depth";
inline constexpr std::string_view kQosJobsAdmitted = "qos_jobs_admitted_total";
inline constexpr std::string_view kQosJobsRejected = "qos_jobs_rejected_total";
inline constexpr std::string_view kQosSchedPicks = "qos_sched_picks_total";

// switchml: the per-session packet protocol (src/switchml/).
inline constexpr std::string_view kSessionPacketsLost =
    "switchml_session_packets_lost_total";
inline constexpr std::string_view kSessionPhaseSeconds =
    "switchml_session_phase_seconds";
inline constexpr std::string_view kSessionRetransmissions =
    "switchml_session_retransmissions_total";
inline constexpr std::string_view kSessionWaves =
    "switchml_session_waves_total";

// tree: the ToR→spine hierarchy (src/cluster/hierarchy.cpp).
inline constexpr std::string_view kTreeAliveLeaves = "tree_alive_leaves";
inline constexpr std::string_view kTreeLevelSeconds = "tree_level_seconds";
inline constexpr std::string_view kTreePackets = "tree_packets_total";
inline constexpr std::string_view kTreeReduces = "tree_reduces_total";
inline constexpr std::string_view kTreeWireBytes = "tree_wire_bytes_total";

/// Every series above, for programmatic cross-checks.
inline constexpr std::array<std::string_view, 34> kAll = {
    kClusterFailoverChunksRerouted,
    kClusterFailoverRetries,
    kClusterFailoverShardDeaths,
    kClusterFaultEpochBumps,
    kClusterFaultWavesReplayed,
    kClusterFaultWorkersDeclaredDead,
    kClusterJobQueueDepth,
    kClusterJobWallSeconds,
    kClusterJobs,
    kClusterMailboxEnqueued,
    kClusterMailboxSpuriousWakeups,
    kClusterMailboxWakeups,
    kClusterShardPhaseSeconds,
    kCollectiveAllreduceSeconds,
    kCollectiveAllreduces,
    kSwitchCorruptRejected,
    kSwitchDedupHits,
    kSwitchOccupiedSlots,
    kSwitchOps,
    kSwitchPackets,
    kSwitchStaleDupsRejected,
    kQosAdmissionQueueDepth,
    kQosJobsAdmitted,
    kQosJobsRejected,
    kQosSchedPicks,
    kSessionPacketsLost,
    kSessionPhaseSeconds,
    kSessionRetransmissions,
    kSessionWaves,
    kTreeAliveLeaves,
    kTreeLevelSeconds,
    kTreePackets,
    kTreeReduces,
    kTreeWireBytes,
};

}  // namespace fpisa::telemetry::series
