// Packet-level in-network aggregation session (paper §5 / SwitchML §4):
// a vector is chunked across aggregation slots; every worker sends one
// packet per (chunk, slot); the switch aggregates and the packet that
// completes a slot's bitmap carries the result back. Lost packets are
// retransmitted after a timeout; the switch's worker bitmap makes
// retransmissions idempotent (dedup), and slots are reused round-robin via
// read-and-reset once their result is collected.
//
// This drives a real pisa::FpisaSwitch through its compiled ingress and
// egress (register-identical to the interpreted parser/MAU/deparser
// pipeline), with failure injection for the loss-recovery path.
//
// Every wave runs through the one WaveEngine (switchml/wave_engine.h): the
// whole wave is queued as descriptors into the worker views with its loss
// schedule drawn up front, settled by FpisaSwitch::admit, and collected by
// FpisaSwitch::release; the engine's datapath pass then runs the logged
// lanes through FpisaSwitch::gather and drains each collected slot with
// FpisaSwitch::drain straight into the result. The per-packet protocol it
// reproduces bit for bit survives only as the test oracle in
// tests/wave_oracle.h. The session adds input validation and,
// with fault injection on, the dead-worker degrade loop on top.
//
// The session owns its switch outright, so it is the one layer that gives
// the engine a team: the process's datapath pool (cluster::datapath_pool),
// whose workers replay each reduce's lane kernels range by range alongside
// the caller. A session starts no thread of its own; a single-range one
// replays each wave inline.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "cluster/mailbox.h"
#include "fault/fault.h"
#include "pisa/fpisa_program.h"
#include "switchml/wave_engine.h"
#include "telemetry/metrics.h"
#include "util/rng.h"

namespace fpisa::switchml {

struct SessionOptions {
  int num_workers = 4;
  std::size_t slots = 64;        ///< aggregation slots in the switch
  int lanes = 1;                 ///< FP values per packet
  double loss_rate = 0.0;        ///< probability a packet (either way) drops
  std::uint64_t loss_seed = 1;
  int max_retransmits = 64;      ///< per packet, before giving up
  /// Byzantine-wire fault injection + the guarded recovery protocol
  /// (epoch-stamped, checksummed adds; wave replay; dead-worker policy).
  fault::FaultOptions fault;
};

/// Aggregates `workers` equal-length FP32 vectors through a switch,
/// wave by wave, tolerating packet loss. Returns the aggregated sum.
class AggregationSession : private WaveHooks {
 public:
  /// Throws std::invalid_argument unless 1 <= num_workers <= 32 (the
  /// switch's dedup bitmap is 32 bits wide).
  AggregationSession(pisa::SwitchConfig config, SessionOptions opts);

  /// Zero-copy reduce over worker views (span-of-spans into caller-owned
  /// storage): the sum lands in `out`. Throws std::invalid_argument unless
  /// there are num_workers views of one length and `out` has that length.
  void reduce_into(std::span<const std::span<const float>> workers,
                   std::span<float> out);

  /// Cumulative protocol stats; `.ops` reflects the owned switch's kernel
  /// operation counters at call time (the session has exclusive access).
  const SessionStats& stats() const {
    stats_.ops = switch_.op_counters();
    return stats_;
  }
  pisa::FpisaSwitch& fpisa_switch() { return switch_; }

  /// Wall time split between the add (ingress) and collect (read+reset)
  /// protocol phases across all reduces — the same currency the cluster
  /// service exposes, here for the single-switch backend.
  telemetry::PhaseBreakdown phase_breakdown() const {
    return {static_cast<double>(add_ns_) / 1e9,
            static_cast<double>(collect_ns_) / 1e9};
  }

 private:
  void init_metrics();
  /// Accumulates one wave's timings and pushes stats deltas to the registry.
  void end_wave(const WaveTiming& t) override;

  SessionOptions opts_;
  pisa::FpisaSwitch switch_;
  util::Rng loss_rng_;
  mutable SessionStats stats_{};  ///< mutable: stats() refreshes .ops
  WaveEngine engine_;
  std::vector<std::size_t> chunk_ids_;  ///< 0, 1, 2, ...: chunk = wave slot

  std::uint64_t add_ns_ = 0;      ///< add-phase wall time across reduces
  std::uint64_t collect_ns_ = 0;  ///< collect-phase wall time
  SessionStats stats_flushed_{};  ///< registry high-water marks
  telemetry::InstanceLabel label_{"sess"};
  telemetry::Counter* m_waves_ = nullptr;
  telemetry::Counter* m_retrans_ = nullptr;
  telemetry::Counter* m_lost_ = nullptr;
  telemetry::Histogram* m_phase_[2] = {};  ///< [0]=add, [1]=collect
};

}  // namespace fpisa::switchml
