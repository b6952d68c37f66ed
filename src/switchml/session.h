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
// schedule drawn up front, settled by FpisaSwitch::admit and gathered into
// the lanes, then collected by FpisaSwitch::release and drained straight
// into the result. The per-packet protocol it reproduces bit for bit
// survives only as the test oracle in tests/wave_oracle.h. The session
// adds input validation and, with fault injection on, the dead-worker
// degrade loop on top.
//
// Ranges. A reduce cuts the slots into ranges of kRangeSlots (the last
// may be shorter), gives range r a contiguous block of the chunks sized in
// proportion to its slots, and runs each range's whole protocol, from
// encode to drain, on whichever thread claims it: the caller and the
// process's datapath pool (cluster::datapath_pool) claim ranges from one
// counter (cluster::FanOut). A session starts no thread of its own. Slots
// never share state (paper §5; Fig 2 keeps the bitmap and counter per
// slot), so only the loss draws order one range against another, and each
// range draws from its own persistent stream: range 0 from
// Rng(loss_seed), range r from cluster::task_seed(loss_seed, 0, r, 0), so
// a one-range session (slots <= kRangeSlots) has the one stream
// Rng(loss_seed). Within a slot the packets land in worker order whatever
// the loss, so every completed sum is the same bits whichever streams drew
// it.
//
// Faults. A guarded reduce gives each range a fault engine of its own for
// its own rows (range 0 seeded fault.seed, range r task_seed(fault.seed, 0,
// r, 0)). A scheduled whole-switch wipe stays one event per reduce: only
// range 0's engine carries it, and a reduce that may wipe runs its ranges
// on the caller alone, in order, so no wipe lands while another range is
// mid-wave. Each range detects dead workers itself; the books merge, and
// the first error in range order surfaces, only once every range is done.
#pragma once

#include <cstdint>
#include <exception>
#include <optional>
#include <span>
#include <utility>
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
class AggregationSession {
 public:
  /// Slots per range (see the file comment).
  static constexpr std::size_t kRangeSlots = 16;

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
  /// Range r's loss stream, positioned at its next draw.
  const util::Rng& loss_stream(std::size_t r) const { return ranges_[r].rng; }

  /// Time split between the add (ingress) and collect (read+reset)
  /// protocol phases across all reduces — the same currency the cluster
  /// service exposes, here for the single-switch backend. Each range times
  /// its own waves on its own thread and the session sums them, so these
  /// are thread-seconds: with ranges running at once they add up to more
  /// than the reduces' wall time.
  telemetry::PhaseBreakdown phase_breakdown() const {
    return {static_cast<double>(add_ns_) / 1e9,
            static_cast<double>(collect_ns_) / 1e9};
  }

 private:
  /// One range: its persistent loss stream, and one reduce attempt's books,
  /// timings, error and (guarded) fault engine. Aligned so that ranges run
  /// at once never share a cache line.
  struct alignas(64) Range final : WaveHooks {
    explicit Range(std::uint64_t seed) : rng(seed) {}
    /// Keeps the wave's phase times for the session's books.
    void end_wave(const WaveTiming& t) override {
      waves.push_back({t.add_ns, t.collect_ns});
    }

    util::Rng rng;
    std::size_t lo = 0;      ///< first slot
    std::size_t slots = 0;   ///< slots in the range
    std::size_t first = 0;   ///< its chunk block [first, last)
    std::size_t last = 0;
    SessionStats stats{};
    /// Each wave's (add, collect) nanoseconds, booked after the join so
    /// that ranges running at once share no registry series.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> waves;
    std::exception_ptr error;
    std::optional<fault::FaultEngine> faults;
  };

  void init_metrics();
  /// Lays the ranges' chunk blocks over `chunks` chunks.
  void plan(std::size_t chunks);
  /// Runs every range once over the views (FanOut::for_each), then merges
  /// the ranges' books in range order and rethrows the first error.
  void run_ranges(std::span<const std::span<const float>> workers,
                  std::span<float> out, std::uint32_t dead_mask);
  /// Range r's whole wave protocol on the engine of FanOut member
  /// `member`; any error is kept in the range.
  void run_range(std::size_t member, std::size_t r) noexcept;

  SessionOptions opts_;
  pisa::FpisaSwitch switch_;
  mutable SessionStats stats_{};  ///< mutable: stats() refreshes .ops
  std::vector<Range> ranges_;
  /// One engine per fan-out member ([0] is the caller), not per range: a
  /// 65,536-slot session has 4,096 ranges.
  std::vector<WaveEngine> engines_;
  cluster::FanOut fan_out_;
  std::vector<std::size_t> chunk_ids_;  ///< 0, 1, 2, ...: chunk = wave slot
  // The reduce in flight, read by run_range.
  std::span<const std::span<const float>> workers_;
  std::span<float> out_;
  std::uint32_t dead_mask_ = 0;

  std::uint64_t add_ns_ = 0;      ///< add-phase thread time across reduces
  std::uint64_t collect_ns_ = 0;  ///< collect-phase thread time
  telemetry::InstanceLabel label_{"sess"};
  telemetry::Counter* m_waves_ = nullptr;
  telemetry::Counter* m_retrans_ = nullptr;
  telemetry::Counter* m_lost_ = nullptr;
  telemetry::Histogram* m_phase_[2] = {};  ///< [0]=add, [1]=collect
};

}  // namespace fpisa::switchml
