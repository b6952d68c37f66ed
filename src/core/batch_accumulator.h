// Batched, branchless FPISA accumulation over a structure-of-arrays
// register file.
//
// The scalar reference (`fpisa_add`) mirrors the paper's per-packet
// dataflow: one value, one branchy align/overwrite/headroom decision tree.
// That is the right shape for validating the switch program, but it is the
// wrong shape for a software datapath that wants to run "at line rate":
// every branch depends on the incoming exponent, so the host CPU
// mispredicts its way through gradient streams. `fpisa_add_batch` processes
// a span of packed FP32 values against parallel exponent/mantissa register
// arrays with *select-based* (branch-free) decision logic — the same
// restructuring Packet Transactions applies to data-plane algorithms:
// every per-stage decision becomes a mask, every counter becomes a lane
// sum.
//
// Contract: bit-identical to the scalar reference. For every element i,
// the post-state of (exp[i], man[i]) and the OpCounters *totals* equal what
// `extract` + (skip non-finite) + `fpisa_add` would produce, for both
// Variant::kFull and Variant::kApproximate under either OverflowPolicy.
// This is enforced by tests/test_core_batch_equivalence.cpp (exhaustive
// FP16-derived sweep + randomized FP32 streams).
//
// The egress half, `fpisa_read_batch` / `fpisa_read_reset_batch`, applies
// the same restructuring to the paper's Fig 2 MAU5-8 dataflow (CLZ
// renormalize + shift + sign fold + assemble): every register pair is a
// stateless per-slot transform, so the collect phase vectorizes with no
// cross-lane dependencies at all. Contract: bit-identical to per-slot
// `fpisa_read` (same test file). `fpisa_read_scatter` /
// `fpisa_read_reset_scatter` run it over `lanes`-wide rows, each row landing
// at its own destination, as the gather add reads each row from its own
// payload.
//
// Modes: every entry point takes a LaneMode. kAccumulator is the core
// software accumulator above. kSwitch is the FPISA switch program
// (src/pisa/fpisa_program.*), whose compiled ingress and egress run on
// these same kernels over a slot-major register bank; see LaneMode for the
// edges where the two datapaths differ.
//
// Backends (runtime-dispatched behind this one interface):
//  * kScalar — portable unrolled scalar code built from the same branchless
//    lane primitive; compiles everywhere.
//  * kAvx2   — 4-wide AVX2 (64-bit lanes) kernel, compiled only when the
//    build enables FPISA_ENABLE_AVX2 and selected only when the CPU
//    reports AVX2 support.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "core/accumulator.h"

namespace fpisa::core {

/// Structure-of-arrays register file: one exponent array + one mantissa
/// array (paper Fig 3's layout, which is also the SIMD-friendly layout).
struct RegisterFile {
  std::vector<std::int32_t> exp;
  std::vector<std::int64_t> man;

  RegisterFile() = default;
  explicit RegisterFile(std::size_t n) : exp(n, 0), man(n, 0) {}

  std::size_t size() const { return exp.size(); }
  void clear() {
    exp.assign(exp.size(), 0);
    man.assign(man.size(), 0);
  }
};

/// Which datapath the lane kernels model. The arithmetic is shared; the
/// modes differ only at the edges the switch's tables handle differently
/// from the software accumulator.
enum class LaneMode : std::uint8_t {
  /// FpisaAccumulator semantics: non-finite inputs are skipped (counted in
  /// `nonfinite_inputs` only), zeros tick `adds`/`zero_inputs` and leave
  /// the register untouched, and reads emit true subnormals.
  kAccumulator,
  /// The FPISA switch program (Fig 2), bit-identical to its interpreted
  /// tables:
  ///  * ingress: zero and non-finite inputs run the datapath like any
  ///    other value (the exponent register sees them) and count as adds;
  ///    the exponent difference is clamped to ±32 (the align table's
  ///    range), which changes only the rounded-add count at |d| >= 64 with
  ///    a shifted mantissa of -1; a left-shift overflow counts as
  ///    `lshift_overflows` only, not also as a saturation;
  ///  * egress: a result that would be subnormal flushes to signed zero,
  ///    and a normalized exponent >= 255 clamps to ±inf (the range
  ///    gateway on the 16-bit e_norm field, which for 8-bit exponent
  ///    registers never wraps).
  /// Requires a batch- and read-eligible config (FP32, register < 64 bits,
  /// truncating reads); anything else throws std::invalid_argument.
  kSwitch,
};

enum class BatchBackend {
  kScalar,  ///< portable branchless scalar (unrolled)
  kAvx2,    ///< AVX2 4x64-bit lanes (when compiled in + CPU supports it)
};

/// Backend the next fpisa_add_batch call will use.
BatchBackend batch_backend();
std::string_view batch_backend_name();

/// Backends usable on this build + CPU (kScalar always; kAvx2 when
/// available). For differential testing across backends.
std::span<const BatchBackend> available_batch_backends();

/// Test hook: pin the dispatch to one backend, or pass kScalar to restore
/// the default choice after forcing. Throws std::invalid_argument, leaving
/// the dispatch as it was, for a backend not in available_batch_backends().
void force_batch_backend(BatchBackend backend);
void reset_batch_backend();

/// True when `cfg` can take the batched fast path: packed binary32 layout
/// and a register narrower than 64 bits. Ineligible configs still work —
/// fpisa_add_batch falls back to the scalar reference loop.
bool batch_eligible(const AccumulatorConfig& cfg);

/// Element-wise batched accumulate: bits[i] (packed FP32) adds into
/// (exp[i], man[i]). Spans must have equal length (std::invalid_argument
/// otherwise). Semantics per element match FpisaVector's scalar loop
/// exactly: non-finite inputs bump `nonfinite_inputs` and are skipped (no
/// `adds` tick), zeros tick `adds`/`zero_inputs` and leave the register
/// untouched, everything else runs the configured variant's datapath.
/// LaneMode::kSwitch applies the switch's ingress semantics instead. A
/// batch-eligible config whose register cannot hold a shifted significand
/// (significand + guard + sign bits > reg_bits) throws
/// std::invalid_argument in every build.
void fpisa_add_batch(std::span<const std::uint32_t> bits,
                     std::span<std::int32_t> exp, std::span<std::int64_t> man,
                     const AccumulatorConfig& cfg, OpCounters& counters,
                     LaneMode mode = LaneMode::kAccumulator);

/// Gathered accumulate into a bank of `lanes`-wide rows: payload r adds
/// into row rows[r], i.e. (exp, man)[rows[r] * lanes, + lanes), one row
/// after another, so a repeated row accumulates in order. A payload is
/// `lanes` packed FP32 values as raw bytes at any alignment -- typically
/// std::as_bytes of the caller's float storage, read in place and never
/// written. Per row the semantics are fpisa_add_batch's; the shapes are
/// checked, the backend picked and the counters flushed once per call.
/// Throws before any register changes, in every build: std::out_of_range
/// when a row ends past the bank, std::invalid_argument when payloads and
/// rows differ in length, exp and man differ in length, or the config
/// fails fpisa_add_batch's register check.
void fpisa_add_gather(std::span<const std::byte* const> payloads,
                      std::span<const std::uint32_t> rows, std::size_t lanes,
                      std::span<std::int32_t> exp, std::span<std::int64_t> man,
                      const AccumulatorConfig& cfg, OpCounters& counters,
                      LaneMode mode = LaneMode::kAccumulator);

/// True when `cfg` can take the batched *read* fast path: packed binary32
/// layout, a register narrower than 64 bits, and the hardware-faithful
/// truncating read rounding (kTowardZero — the only mode the egress
/// dataflow implements without guard-bit rounding logic). Ineligible
/// configs still work — the read entry points fall back to the per-slot
/// `fpisa_read` reference loop.
bool read_batch_eligible(const AccumulatorConfig& cfg);

/// Batched egress kernel (paper Fig 2 MAU5–8): renormalize-and-assemble
/// every (exp[i], man[i]) register pair into packed FP32 bits — CLZ to find
/// the leading one, shift to the canonical significand position, fold the
/// two's-complement sign, adjust the exponent, pack — without modifying the
/// register state. Bit-identical to per-slot `fpisa_read` (the kernel
/// behind `FpisaAccumulator::read()`), including subnormal outputs and
/// overflow-to-infinity clamping. Spans must have equal length.
/// LaneMode::kSwitch applies the switch's egress range handling instead.
void fpisa_read_batch(std::span<const std::int32_t> exp,
                      std::span<const std::int64_t> man,
                      std::span<std::uint32_t> out,
                      const AccumulatorConfig& cfg,
                      LaneMode mode = LaneMode::kAccumulator);

/// Read-and-reset variant (SwitchML-style slot recycling): identical
/// outputs to fpisa_read_batch, then every (exp[i], man[i]) pair is
/// cleared to the initial (0, 0) state.
void fpisa_read_reset_batch(std::span<std::int32_t> exp,
                            std::span<std::int64_t> man,
                            std::span<std::uint32_t> out,
                            const AccumulatorConfig& cfg,
                            LaneMode mode = LaneMode::kAccumulator);

/// Scattered egress over `lanes`-wide rows, the read-side twin of
/// fpisa_add_gather: row r, i.e. (exp, man)[r * lanes, + lanes), is
/// renormalized into `lanes` packed FP32 values written as raw bytes at
/// dests[r] (any alignment -- typically a place in
/// std::as_writable_bytes of the caller's float storage). Per row the
/// results are fpisa_read_batch's; the backend is picked once per call,
/// and rows whose destinations follow one another run as one span.
/// Throws std::invalid_argument, before any write, in every build, unless
/// exp and man both hold dests.size() * lanes registers.
void fpisa_read_scatter(std::span<const std::int32_t> exp,
                        std::span<const std::int64_t> man, std::size_t lanes,
                        std::span<std::byte* const> dests,
                        const AccumulatorConfig& cfg,
                        LaneMode mode = LaneMode::kAccumulator);

/// Read-and-reset variant: identical writes to fpisa_read_scatter, then
/// every register pair of the rows is cleared to (0, 0).
void fpisa_read_reset_scatter(std::span<std::int32_t> exp,
                              std::span<std::int64_t> man, std::size_t lanes,
                              std::span<std::byte* const> dests,
                              const AccumulatorConfig& cfg,
                              LaneMode mode = LaneMode::kAccumulator);

namespace detail {

/// Per-batch event tallies, merged into OpCounters once per call (the
/// "counters as lane sums" half of the branchless restructuring).
struct BatchTallies {
  std::uint64_t adds = 0;
  std::uint64_t rounded = 0;
  std::uint64_t overwrites = 0;
  std::uint64_t lshift_overflows = 0;
  std::uint64_t saturations = 0;
  std::uint64_t nonfinite = 0;
  std::uint64_t zeros = 0;
};

/// A checked gather batch: row r's `lanes` packed FP32 values are the
/// bytes at payloads[r], and they add into exp/man at rows[r] * lanes.
struct GatherBatch {
  const std::byte* const* payloads = nullptr;
  const std::uint32_t* rows = nullptr;
  std::size_t n = 0;  ///< rows in the batch
  std::size_t lanes = 0;
  std::int32_t* exp = nullptr;
  std::int64_t* man = nullptr;
};

/// A checked scatter batch: row r's `lanes` registers are exp/man at
/// r * lanes, and their packed FP32 values go to the bytes at dests[r].
/// The flat read is one row of all its registers. The registers are
/// written only when `reset`: each pair is cleared as the kernel reads it.
struct ScatterBatch {
  std::int32_t* exp = nullptr;
  std::int64_t* man = nullptr;
  std::byte* const* dests = nullptr;
  std::size_t n = 0;  ///< rows in the batch
  std::size_t lanes = 0;
  bool reset = false;
};

/// AVX2 kernel entry (defined in batch_accumulator_avx2.cpp, only built
/// when FPISA_ENABLE_AVX2 is on): picks the kernel once, then runs it per
/// run of payloads on one row. Tail lanes are finished by the scalar lane
/// primitive inside.
void add_gather_avx2(const GatherBatch& g, const AccumulatorConfig& cfg,
                     LaneMode mode, BatchTallies& t);

/// AVX2 egress kernel entry (defined in batch_read_avx2.cpp, only built
/// when FPISA_ENABLE_AVX2 is on): picks the kernel once, then runs it per
/// run of rows with adjacent destinations, clearing each block as it reads
/// it when `s.reset`. Each run's tail is finished by the scalar read
/// primitive inside.
/// `reg_bits` picks the lane width: registers of <= 32 bits take the
/// 8-lane 32-bit kernel (mirroring the add kernel's gather32), wider
/// registers the generic 4x64-bit kernel.
void read_scatter_avx2(const ScatterBatch& s, int guard, int reg_bits,
                       LaneMode mode);

}  // namespace detail

}  // namespace fpisa::core
