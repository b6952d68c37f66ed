// Two-level ToR -> spine aggregation tree (rack scale): N leaf switches
// each partially aggregate the workers in their rack, and one spine switch
// combines the leaf partials. Functionally each level is one pass of the
// switchml::WaveEngine over real pisa::FpisaSwitch instances (one per live
// leaf, then the spine over the leaf partials); timing is modeled in
// closed form over net::Link serializers (worker uplinks, shared switch
// pipes, ToR uplinks, result return), extending the paper's single-switch
// goodput argument to a rack.
//
// The leaf passes run concurrently, as a rack's ToR switches do: each leaf
// has its own switch, wave engine, partial buffer and wire books, so no
// two leaf passes share anything they write. The aggregator starts no
// thread: each leaf pass is one item of a cluster::FanOut::for_each over
// the process's datapath pool (cluster::datapath_pool), which posts up to
// live leaves - 1 helpers and has the caller and those helpers claim the
// leaves from one counter until none is left; the caller then joins and
// runs the spine. A helper held up by another object's task or
// a busy host costs the caller only the join, never a leaf, and the next
// reduces post fewer helpers (cluster::FanOut). The result cannot depend
// on the schedule: a leaf's partial is a function of its rack's inputs and
// its own switch alone, the spine consumes the partials in leaf order, and
// the wire books and the first error are merged in leaf order after the
// join.
#pragma once

#include <cstdint>
#include <exception>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "cluster/mailbox.h"
#include "pisa/fpisa_program.h"
#include "switchml/wave_engine.h"
#include "telemetry/metrics.h"

namespace fpisa::cluster {

struct HierarchyOptions {
  int leaves = 4;            ///< ToR switches
  int workers_per_leaf = 2;  ///< hosts homed on each ToR
  std::size_t slots = 64;    ///< aggregation slots per switch
  int lanes = 1;             ///< FP values per packet
  pisa::SwitchConfig switch_config;  ///< applied to the leaf switches
  /// Run the spine on the §4.2 extended switch (RSAW + 2-operand shift,
  /// i.e. full FPISA) even when the leaves are baseline-Tofino FPISA-A.
  /// Composition hazard this guards against: a near-cancelled leaf partial
  /// (tiny exponent) can pin the spine's FPISA-A register scale, and the
  /// next partial's aligned mantissa then wraps the 32-bit register — a
  /// value-scale error. Full FPISA right-shifts the *stored* mantissa
  /// instead, so the spine tracks the largest incoming exponent.
  bool full_fpisa_spine = true;
  // Timing model. Rates must be finite and positive, the latency finite
  // and non-negative; the constructor rejects anything else.
  double link_gbps = 100.0;
  double link_latency_us = 1.0;
  /// Aggregate packet-processing bandwidth of one switch pipeline, shared
  /// by all of that switch's ports (a Tofino pipe serves several ports).
  /// This is what makes completion time a function of topology: the spine
  /// pipeline carries `leaves` flows, a flat switch's pipeline carries one
  /// flow per worker — fan-in eventually saturates the shared pipe.
  double pipeline_gbps = 400.0;
  std::size_t frame_overhead_bytes = 46;  ///< Ethernet+IP+UDP around payload
};

struct HierarchyTiming {
  double leaf_done_s = 0;   ///< last leaf partial handed to its ToR uplink
  double done_s = 0;        ///< last result packet delivered back to a host
  std::uint64_t packets = 0;
  std::uint64_t wire_bytes = 0;
  double values_per_s(std::size_t n) const {
    return done_s > 0 ? static_cast<double>(n) / done_s : 0.0;
  }
};

class HierarchicalAggregator {
 public:
  explicit HierarchicalAggregator(HierarchyOptions opts);
  HierarchicalAggregator(const HierarchicalAggregator&) = delete;
  HierarchicalAggregator& operator=(const HierarchicalAggregator&) = delete;

  int total_workers() const {
    return opts_.leaves * opts_.workers_per_leaf;
  }
  const HierarchyOptions& options() const { return opts_; }

  /// Reduces `workers` (size == total_workers(); worker w is homed on leaf
  /// w / workers_per_leaf) through the two-level tree. Reads the views in
  /// place and writes the sum into `out`. The live leaves' passes run
  /// concurrently; a leaf's error is rethrown after the join, the first in
  /// leaf order, and the spine then does not run. The timing model runs
  /// once per shape (chunk count and live leaves) and is reused while the
  /// shape holds; every reduce books it to telemetry; see timing(). One
  /// caller at a time: the aggregator is not thread-safe.
  void reduce_into(std::span<const std::span<const float>> workers,
                   std::span<float> out);

  /// Timing of the most recent reduce_into().
  const HierarchyTiming& timing() const { return timing_; }
  /// Wire books of the most recent reduce_into(): every live leaf's pass,
  /// in leaf order, then the spine's.
  const switchml::SessionStats& stats() const { return stats_; }

  /// Per-level fan-in timing mapped onto the stack's uniform phase split:
  /// the leaf level (host -> ToR fan-in, partials handed up) is the add
  /// phase; the spine level (partial combine + result return) the collect
  /// phase. Cumulative across reduces, summed from the registry's
  /// tree_level_seconds{tree,level} histograms — it advances only while
  /// telemetry::enabled(), like every timing instrument in the stack.
  telemetry::PhaseBreakdown phase_breakdown() const;

  /// Failover: declares ToR leaf `i` dead. Its rack's workers are collapsed
  /// into the spine fan-in — they send straight to the spine with their own
  /// bitmap ids (assigned above the leaf-partial ids), skipping the dead
  /// ToR's partial aggregation. Functionally the sum is unchanged for any
  /// grouping-insensitive input; timing-wise the spine pipeline absorbs
  /// `workers_per_leaf` flows where it used to see one. Throws when the
  /// spine's 32-bit worker bitmap cannot fit the extra direct senders.
  void kill_leaf(int i);
  bool leaf_alive(int i) const;
  int alive_leaves() const;

  pisa::FpisaSwitch& leaf(int i) { return *leaves_[static_cast<std::size_t>(i)]; }
  pisa::FpisaSwitch& spine() { return *spine_; }

  std::size_t packet_bytes() const;

 private:
  /// One leaf's pass state, written only by the thread running that leaf
  /// and read by the caller after the join; whole cache lines each, so two
  /// leaves never share one.
  struct alignas(64) LeafPass {
    explicit LeafPass(int lanes) : engine(lanes) {}
    switchml::WaveEngine engine;
    std::vector<float> partial;
    switchml::SessionStats stats{};
    std::exception_ptr error;
  };
  void init_metrics();
  /// Runs leaf `j`'s pass, if the leaf is alive, into its own LeafPass;
  /// never throws (errors land in the LeafPass).
  void run_leaf(std::size_t j) noexcept;
  /// Times the reduce's packet flows. Every link and pipe is a FIFO
  /// serializer and no queue feeds back into an earlier one, so each is a
  /// max-plus recurrence over its sends taken in arrival-time order (ties
  /// in the order the flows were generated).
  HierarchyTiming model_timing(std::size_t chunks);

  HierarchyOptions opts_;
  std::vector<std::unique_ptr<pisa::FpisaSwitch>> leaves_;
  std::unique_ptr<pisa::FpisaSwitch> spine_;
  std::vector<bool> leaf_alive_;
  HierarchyTiming timing_{};
  /// Chunk count timing_ was modeled for under the current live leaves;
  /// empty until the first reduce and after kill_leaf.
  std::optional<std::size_t> timed_chunks_;

  // Functional datapath, reused across reduces.
  switchml::WaveEngine engine_;  ///< the spine's
  std::vector<std::unique_ptr<LeafPass>> leaf_passes_;  ///< one per leaf
  switchml::SessionStats stats_{};
  std::vector<std::size_t> chunk_ids_;
  std::vector<std::span<const float>> spine_inputs_;
  std::vector<std::uint8_t> spine_ids_;

  // Leaf fan-out: the current reduce's inputs, written by the caller before
  // it posts the helpers' tasks and read by the helpers after they pop them
  // (the mailbox orders the two).
  std::span<const std::span<const float>> reduce_workers_;
  FanOut fan_out_;  ///< claims a reduce's leaves

  // Timing model buffers, reused across reduces.
  struct Hop {
    double t;       ///< when the packet is handed to the next serializer
    std::size_t c;  ///< chunk
    std::size_t j;  ///< leaf (picks the ToR uplink of a hand-off)
  };
  std::vector<Hop> tor_handoffs_;   ///< live leaf partials ready to go up
  std::vector<Hop> spine_arrivals_;
  std::vector<int> spine_seen_;     ///< arrivals through the spine pipe

  // Telemetry handles ("tree" instance label), resolved once at
  // construction: modeled per-level fan-in time per reduce, packet/byte
  // accounting deltas, and a live-leaf gauge.
  telemetry::InstanceLabel label_{"tree"};
  telemetry::Counter* m_reduces_ = nullptr;
  telemetry::Counter* m_packets_ = nullptr;
  telemetry::Counter* m_wire_bytes_ = nullptr;
  telemetry::Gauge* m_alive_leaves_ = nullptr;
  telemetry::Histogram* m_level_[2] = {};  ///< [0]=leaf, [1]=spine
};

/// Timing of the same reduction through ONE flat switch with every worker
/// attached directly (the paper's testbed shape) — the baseline the
/// hierarchy is compared against. The flat switch needs total_workers
/// ports; the tree needs only `leaves` spine ports, which is the point.
HierarchyTiming flat_baseline_timing(const HierarchyOptions& opts,
                                     std::size_t n_values);

}  // namespace fpisa::cluster
