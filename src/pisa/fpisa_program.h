// The FPISA dataplane program (paper Fig 2), expressed against the PISA
// simulator's tables/actions/stateful-ALUs — the C++ analogue of the
// paper's ~580-line P4 implementation.
//
// Ingress (per lane = per parallel FPISA module):
//   MAU0  extract sign/exponent/mantissa fields (+ worker bitmap mask)
//   MAU1  add the implied "1", fold sign into two's complement
//   MAU2  exponent register: compare/update, emit old exponent (+ bitmap)
//   MAU3  align: exact-match table on the exponent difference selects the
//         shift. Baseline Tofino: one fixed-shift VLIW instruction per
//         distance (the Table 3 bottleneck). Extension: 2-operand shift.
//   MAU4  mantissa register: RAW add / overwrite / RSAW (+ counter)
// Egress:
//   MAU5  two's complement -> sign + magnitude
//   MAU6  TCAM LPM count-leading-zeros + shift (Fig 5)
//   MAU7  exponent adjust
//   MAU8  range handling (zero / underflow-FTZ / overflow-to-inf) + pack
//
// Fidelity notes (vs src/core): register adds wrap (hardware semantics:
// pair with core's OverflowPolicy::kWrap); reads that would need a
// subnormal output flush to signed zero; exponent overflow clamps to ±inf.
// These, and the other edges where the tables differ from the software
// accumulator, are core::LaneMode::kSwitch: FpisaSwitch's compiled batch
// paths run the core lane kernels in that mode over the switch's
// slot-major register bank.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <vector>

#include "core/accumulator.h"
#include "pisa/pipeline.h"
#include "pisa/resources.h"
#include "telemetry/metrics.h"

namespace fpisa::pisa {

enum class FpisaOp : std::uint8_t { kAdd = 1, kRead = 2, kReset = 3 };

struct FpisaProgramOptions {
  core::Variant variant = core::Variant::kFull;  ///< kFull requires RSAW ext
  int lanes = 1;               ///< parallel FPISA modules (FP values/packet)
  std::size_t slots = 256;     ///< aggregation slots per lane
  /// No effect; kept only because `perfbench/` assigns it.
  int num_workers = 8;
  bool convert_endianness = false;  ///< hosts send little-endian payloads
};

/// Options for `lanes` x `slots` on a switch configured as `config`, and
/// the one place the variant is chosen: full FPISA when the switch has the
/// RSAW extension, FPISA-A otherwise.
FpisaProgramOptions fpisa_program_options(const SwitchConfig& config,
                                          int lanes, std::size_t slots);

/// Packet layout (big-endian on the wire):
///   [0]      opcode        [1..2]   slot        [3]     worker
///   [4..7]   bitmap (out)  [8..9]   count (out)
///   [10..13] epoch/generation stamp  [14..15] payload checksum
///   [16..]   lanes x 4B FP32 value
/// The stamp is (switch generation << 16) | per-slot epoch: the epoch bumps
/// on every slot reset (round-robin reuse), the generation on switch state
/// loss, so stale duplicates and pre-reboot packets are rejectable. The
/// checksum covers (slot, worker, stamp, payload). Both fields are zero on
/// the legacy (fault-guard-off) paths; only the guarded batch ingress
/// verifies them.
inline constexpr int kFpisaHeaderBytes = 16;

/// Internet-checksum-style fold of (slot, worker, stamp, payload) to 16
/// bits: the end-around-carry folding detects any single flipped bit. The
/// payload is the packet's packed FP32 lanes as raw bytes (any alignment),
/// summed as one 32-bit word per lane.
inline std::uint16_t fpisa_checksum(std::uint16_t slot, std::uint8_t worker,
                                    std::uint32_t stamp,
                                    std::span<const std::byte> payload) {
  std::uint64_t sum = slot;
  sum += static_cast<std::uint64_t>(worker) << 16;
  sum += stamp;
  for (std::size_t i = 0; i + 4 <= payload.size(); i += 4) {
    std::uint32_t v;
    std::memcpy(&v, payload.data() + i, sizeof v);
    sum += v;
  }
  sum = (sum & 0xFFFFFFFFull) + (sum >> 32);
  sum = (sum & 0xFFFFull) + (sum >> 16);
  sum = (sum & 0xFFFFull) + (sum >> 16);
  return static_cast<std::uint16_t>(~sum);
}
inline std::uint16_t fpisa_checksum(std::uint16_t slot, std::uint8_t worker,
                                    std::uint32_t stamp,
                                    std::span<const std::uint32_t> values) {
  return fpisa_checksum(slot, worker, stamp, std::as_bytes(values));
}

/// Encodes one packet into `pkt`, reusing its byte buffer across packets.
void make_fpisa_packet_into(Packet& pkt, FpisaOp op, std::uint16_t slot,
                            std::uint8_t worker,
                            std::span<const std::uint32_t> values,
                            bool little_endian_payload = false,
                            std::uint32_t stamp = 0,
                            std::uint16_t checksum = 0);

struct FpisaResult {
  std::vector<std::uint32_t> values;
  std::uint32_t bitmap = 0;
  std::uint16_t count = 0;
};
/// Decodes a result packet into `out`, reusing `out.values` across packets.
void parse_fpisa_result_into(const Packet& pkt, int lanes, FpisaResult& out,
                             bool little_endian_payload = false);

/// The executable program for `opts` on a switch configured as `config`:
/// immutable code, shared by every switch of the same shape. The program is
/// determined by variant, lanes, slots and convert_endianness, and is
/// memoized on them: while any holder keeps a shape's program alive, every
/// further call returns that same object; once the last holder lets go it
/// is freed (the memo holds it weakly) and the next call builds it anew.
///
/// The returned program is the layout only: PHV, parser and deparser
/// bindings and register declarations. Its MAU0-8 stages are built on
/// demand (SwitchProgram::build_stages) when a switch interprets its first
/// packet, memoized per shape the same way and freed with the last switch
/// that interpreted one. Building them takes ~1 ms and ~1.4 MB at 32
/// lanes; the compiled ingress / egress paths never need them.
///
/// Throws std::invalid_argument, in every build and before the memo is
/// consulted, unless config.num_stages >= 9 (MAU0-8), opts.lanes >= 1,
/// 1 <= opts.slots <= FpisaSwitch::kMaxSlots, a kFull variant has
/// config.ext.rsaw, and convert_endianness has
/// config.ext.parser_endianness.
std::shared_ptr<const SwitchProgram> build_fpisa_program(
    const SwitchConfig& config, const FpisaProgramOptions& opts);

/// Resource demand of one FPISA module (plus the shared bitmap/counter
/// logic) for the Table 3 analysis. VLIW counts are per distinct
/// instruction, matching how the Tofino compiler accounts them.
std::vector<LogicalTableDesc> fpisa_resource_descriptors(
    const SwitchConfig& config, const FpisaProgramOptions& opts);

/// Convenience wrapper: a switch running the FPISA aggregation program.
///
/// Two datapaths share one register state. The interpreted one (add, read,
/// read_and_reset) encodes a packet and runs it through every table and
/// stateful ALU of the simulator. The compiled one (ingress, egress and
/// their flat adapters) is MAU0-8 lowered onto the core lane kernels in
/// core::LaneMode::kSwitch: the lane registers are strided views onto one
/// slot-major bank (SwitchSim::bank), so a packet's lanes — or a run
/// of consecutive slots — are one contiguous span the scalar or AVX2
/// kernel walks branch-free. Tests pin the two datapaths bit-identical:
/// results, registers, bitmap, counter, OpCounters, dedup and packet
/// counts.
///
/// The program is code shared with every switch of the same shape
/// (build_fpisa_program); a switch owns only its register state and the
/// host-side books below. The interpreter's stages are built on the first
/// interpreted packet (add, read, read_and_reset), so a switch driven only
/// through the compiled path never builds them.
///
/// Shapes are checked in every build: a span of the wrong size throws
/// std::invalid_argument, a slot outside [0, slots) or a worker id outside
/// the 32-bit dedup bitmap throws std::out_of_range, both before any state
/// changes.
///
/// Observability: the switch keeps host-visible per-MAU operation counters
/// (the §5.2.1 add / rounded-add / overwrite / left-shift taxonomy, counted
/// identically by the interpreted and compiled-batch paths), dedup-hit and
/// packet counts, and a live occupied-slot figure. All of it is mirrored
/// into the process telemetry registry under the instance label sw=<n>.
/// The switch is not thread-safe (callers already serialize access — the
/// cluster holds a per-shard mutex), so the members are plain integers.
class FpisaSwitch {
 public:
  /// Worker ids index the 32-bit dedup bitmap register.
  static constexpr int kMaxWorkers = 32;
  /// Slot ids are 16 bits wide on the wire.
  static constexpr std::size_t kMaxSlots = 65536;

  /// Loads the shared program for `opts` (build_fpisa_program) and builds
  /// this switch's own register state. Throws std::invalid_argument, in
  /// every build, on the options build_fpisa_program rejects: a pipe of
  /// fewer than 9 stages, lanes < 1, slots outside [1, kMaxSlots], a kFull
  /// variant without ext.rsaw, or convert_endianness without
  /// ext.parser_endianness.
  FpisaSwitch(SwitchConfig config, FpisaProgramOptions opts);

  /// Sends one add packet carrying `values` (one per lane, FP32 bits);
  /// returns the post-add aggregate the switch emits.
  FpisaResult add(std::uint16_t slot, std::uint8_t worker,
                  std::span<const std::uint32_t> values);
  /// Reads the current aggregate without modifying it.
  FpisaResult read(std::uint16_t slot);
  /// Reads and clears a slot (SwitchML-style slot reuse).
  FpisaResult read_and_reset(std::uint16_t slot);

  /// Per-batch guard rejection counts from the guarded ingress.
  struct GuardStats {
    std::uint64_t corrupt_rejected = 0;  ///< checksum mismatch
    std::uint64_t stale_rejected = 0;    ///< epoch/generation stamp mismatch
  };

  /// Batched add fast path over packet descriptors: applies
  /// `slots.size()` add packets in order, packet i targeting slots[i] from
  /// workers[i] with the `lanes` packed FP32 values at payloads[i] (raw
  /// bytes at any alignment, typically std::as_bytes of a worker's float
  /// span: read in place, never written). The register / dedup-bitmap /
  /// completion-counter evolution is bit-identical to calling add() per
  /// packet (enforced by tests), but the packets skip wire encode/parse
  /// and table interpretation entirely and no per-packet result is
  /// materialized — callers that want the aggregate use read(). One scalar
  /// pre-pass checks each packet's slot and worker id and settles its
  /// shared state (guard, dedup bitmap, completion counter, occupancy); the
  /// accepted packets' lanes then land through one core::fpisa_add_gather
  /// over their bank rows in LaneMode::kSwitch, which adds each run of
  /// packets on one slot with the slot's registers held in registers.
  ///
  /// Guarded when `guard` is non-null: packet i then also carries
  /// stamps[i] and checksums[i]. A packet whose checksum does not cover its
  /// bytes (bit flipped in flight) or whose stamp disagrees with the slot's
  /// current stamp (a stale duplicate from before the slot was reset, or a
  /// pre-wipe packet) is dropped before it can touch register state; the
  /// drops are tallied in `*guard` and in the registry. Accepted packets
  /// update state exactly as unguarded ones would.
  void ingress(std::span<const std::uint16_t> slots,
               std::span<const std::uint8_t> workers,
               std::span<const std::byte* const> payloads,
               std::span<const std::uint32_t> stamps = {},
               std::span<const std::uint16_t> checksums = {},
               GuardStats* guard = nullptr);

  /// Flat adapter over unguarded ingress: packet i's lanes are
  /// values[i*lanes, +lanes).
  void add_batch(std::span<const std::uint16_t> slots,
                 std::span<const std::uint8_t> workers,
                 std::span<const std::uint32_t> values);

  /// Whole-switch state loss (reboot): every register — per-lane exponent
  /// and mantissa arrays, dedup bitmap, completion counter — is zeroed and
  /// the generation is bumped so packets stamped before the wipe are
  /// rejected by the guarded ingress instead of corrupting fresh sums.
  void wipe_state();

  /// Current epoch/generation stamp the guarded ingress expects for
  /// `slot`: (generation << 16) | slot epoch. The epoch bumps on every
  /// reset of the slot (both the interpreted kReset path and the batched
  /// read_and_reset), the generation on wipe_state().
  std::uint32_t slot_stamp(std::uint16_t slot) const {
    return (static_cast<std::uint32_t>(generation_) << 16) |
           slot_epoch_[slot];
  }
  std::uint16_t generation() const { return generation_; }

  /// Batched egress over result descriptors: reads the dests.size()
  /// consecutive slots [slot0, slot0 + dests.size()) through the compiled
  /// renormalize-and-assemble (MAU5-8), writing slot k's `lanes` FP32
  /// results as raw bytes at dests[k] (any alignment, typically the
  /// slot's chunk in std::as_writable_bytes of the caller's float
  /// storage). With `reset` (SwitchML-style slot recycling) it then clears
  /// the slots' exponent / mantissa / bitmap / counter registers and bumps
  /// their epochs exactly as read_and_reset() packets would (the read
  /// kernel clears each lane register as it reads it). Results and
  /// register state are bit-identical to per-slot read() /
  /// read_and_reset() packets -- including the egress FTZ /
  /// overflow-to-inf range handling -- but skip
  /// wire encode/parse and table interpretation (enforced by
  /// tests/test_pisa_fpisa_program.cpp). The slots' bank cells are one
  /// contiguous span, so this is one core read kernel call in
  /// LaneMode::kSwitch. `out_bitmaps` / `out_counts` (dests.size() each)
  /// capture the per-slot dedup bitmap and completion counter the result
  /// packets would carry; pass empty spans to skip.
  void egress(std::uint16_t slot0, std::span<std::byte* const> dests,
              bool reset, std::span<std::uint32_t> out_bitmaps = {},
              std::span<std::uint16_t> out_counts = {});

  /// Flat adapters over egress: slot k's lane l lands at
  /// out_values[k*lanes + l] (n * lanes entries).
  void read_batch(std::uint16_t slot0, std::size_t n,
                  std::span<std::uint32_t> out_values,
                  std::span<std::uint32_t> out_bitmaps = {},
                  std::span<std::uint16_t> out_counts = {});
  void read_and_reset_batch(std::uint16_t slot0, std::size_t n,
                            std::span<std::uint32_t> out_values,
                            std::span<std::uint32_t> out_bitmaps = {},
                            std::span<std::uint16_t> out_counts = {});

  const FpisaProgramOptions& options() const { return opts_; }
  SwitchSim& sim() { return sim_; }

  /// Per-MAU operation counts (§5.2.1 taxonomy) for every lane-add this
  /// switch executed, batched or interpreted. Duplicates (absorbed by the
  /// dedup bitmap) are excluded — they caused no register operation.
  const core::OpCounters& op_counters() const { return ops_; }
  /// Add packets absorbed by the dedup bitmap (retransmissions).
  std::uint64_t dedup_hits() const { return dedup_hits_; }
  /// Slots whose dedup bitmap is currently nonzero (in-flight aggregates).
  std::int64_t occupied_slots() const { return occupied_; }

 private:
  /// The interpreted datapath: encodes one packet, runs it through every
  /// table and stateful ALU, and decodes the switch's reply.
  FpisaResult roundtrip(FpisaOp op, std::uint16_t slot, std::uint8_t worker,
                        std::span<const std::uint32_t> values);
  /// Throws std::out_of_range unless packet p's slot and worker id are in
  /// range.
  void check_packet(const char* what, std::size_t p, std::uint16_t slot,
                    std::uint8_t worker) const;
  /// Throws std::out_of_range unless slots [slot0, slot0 + n) exist.
  void check_slot_range(const char* what, std::uint16_t slot0,
                        std::size_t n) const;
  /// One destination per slot into flat `values` (the read adapters).
  std::span<std::byte* const> flat_dests(const char* what, std::uint16_t slot0,
                                         std::size_t n,
                                         std::span<std::uint32_t> values);
  void init_metrics();
  /// Pushes (packets, dedup, op-count deltas, occupancy) to the registry.
  void flush_metrics(std::size_t packets);

  FpisaProgramOptions opts_;
  /// The lane datapath as a core config: FP32 into a 32-bit wrapping
  /// mantissa register with no guard bits, in the program's variant.
  core::AccumulatorConfig lane_cfg_;
  telemetry::InstanceLabel series_label_{"sw"};
  SwitchSim sim_;
  Packet scratch_pkt_;                  ///< reused by every roundtrip
  std::vector<std::uint32_t> zeros_;    ///< read/reset payload template
  // Ingress: the accepted packets' payloads, bank rows and worker ids
  // (the ids only to undo a batch that a bad packet rejects).
  std::vector<const std::byte*> gather_payloads_;
  std::vector<std::uint32_t> gather_rows_;
  std::vector<std::uint8_t> gather_workers_;
  std::vector<const std::byte*> flat_payloads_;  ///< add_batch's payloads
  std::vector<std::byte*> flat_dests_;           ///< flat read adapters
  /// Interpreted add: copy of the packet's pre-packet lane registers, which
  /// the core lane-add classifies for §5.2.1 accounting.
  core::RegisterFile pre_packet_;

  core::OpCounters ops_{};
  std::uint64_t dedup_hits_ = 0;
  std::int64_t occupied_ = 0;
  /// Guard state: per-slot reset epoch + whole-switch generation (see
  /// slot_stamp). Maintained unconditionally — a couple of integer bumps
  /// per reset — so guarded and unguarded traffic can interleave.
  std::vector<std::uint16_t> slot_epoch_;
  std::uint16_t generation_ = 0;
  std::uint64_t guard_corrupt_ = 0;
  std::uint64_t guard_stale_ = 0;
  core::OpCounters ops_flushed_{};      ///< registry high-water marks
  std::uint64_t dedup_flushed_ = 0;
  std::uint64_t guard_corrupt_flushed_ = 0;
  std::uint64_t guard_stale_flushed_ = 0;
  telemetry::Counter* m_packets_ = nullptr;
  telemetry::Counter* m_dedup_ = nullptr;
  telemetry::Counter* m_corrupt_ = nullptr;
  telemetry::Counter* m_stale_ = nullptr;
  telemetry::Gauge* m_occupancy_ = nullptr;
  telemetry::Counter* m_ops_[7] = {};
};

}  // namespace fpisa::pisa
