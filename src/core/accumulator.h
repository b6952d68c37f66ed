// FPISA floating-point accumulation (paper §3, §4.3).
//
// Two variants, both operating on the decomposed (exponent register, signed
// two's-complement mantissa register) state with delayed renormalization:
//
//  * kFull ("FPISA"): requires the proposed RSAW (read-shift-add-write)
//    stateful unit — when the incoming exponent is larger, the *stored*
//    mantissa is right-shifted before the add (Fig 2 MAU4). Rounding is the
//    only error source (round-toward-negative-infinity via arithmetic
//    right-shift of two's-complement values, Appendix A.1).
//
//  * kApproximate ("FPISA-A"): deployable on today's Tofino — the stored
//    mantissa is never shifted. If the incoming value's exponent exceeds the
//    stored one by d <= headroom, the incoming mantissa is *left*-shifted
//    into the register's headroom bits; beyond the headroom the register is
//    overwritten with the incoming value ("overwrite error", §4.3).
//
// The accumulator never renormalizes its state; `read()` performs the
// stateless renormalize-and-assemble step (LPM count-leading-zeros + shift +
// exponent adjust, Fig 2 MAU5-8).
#pragma once

#include <cstdint>

#include "core/decompose.h"
#include "core/float_format.h"

namespace fpisa::core {

enum class Variant {
  kFull,         ///< FPISA with the RSAW hardware extension
  kApproximate,  ///< FPISA-A, runs on existing Tofino hardware
};

enum class OverflowPolicy {
  kSaturate,  ///< clamp to the register range and flag (safe default)
  kWrap,      ///< two's-complement wraparound (what raw hardware would do)
};

struct AccumulatorConfig {
  FloatFormat format = kFp32;
  Variant variant = Variant::kFull;
  int reg_bits = 0;    ///< 0: use format.default_reg_bits
  int guard_bits = 0;  ///< extra low bits for rounding (Appendix A.1)
  OverflowPolicy overflow = OverflowPolicy::kSaturate;
  Rounding read_rounding = Rounding::kTowardZero;

  int effective_reg_bits() const {
    return reg_bits ? reg_bits : format.default_reg_bits;
  }
  /// Left-shift headroom available to FPISA-A (7 for FP32/32-bit, §4.3).
  int headroom() const {
    return format.headroom(effective_reg_bits(), guard_bits);
  }
};

/// Event counters: the error taxonomy of §5.2.1 (rounding vs overwrite vs
/// left-shift) plus overflow and non-finite-input bookkeeping.
struct OpCounters {
  std::uint64_t adds = 0;
  std::uint64_t rounded_adds = 0;      ///< alignment shift dropped ones
  std::uint64_t overwrites = 0;        ///< FPISA-A replaced nonzero state
  std::uint64_t lshift_overflows = 0;  ///< FPISA-A left-shift add overflowed
  std::uint64_t saturations = 0;       ///< register overflow (either variant)
  std::uint64_t nonfinite_inputs = 0;  ///< inf/NaN inputs skipped
  std::uint64_t zero_inputs = 0;

  /// Centralized merge: every layer that pools counters goes through this
  /// (hand-rolled field lists have already missed late-added fields once).
  OpCounters& operator+=(const OpCounters& o) {
    adds += o.adds;
    rounded_adds += o.rounded_adds;
    overwrites += o.overwrites;
    lshift_overflows += o.lshift_overflows;
    saturations += o.saturations;
    nonfinite_inputs += o.nonfinite_inputs;
    zero_inputs += o.zero_inputs;
    return *this;
  }
  /// Delta against an earlier snapshot of the same monotone counters (how
  /// per-reduce attribution is carved out of a long-lived accumulator).
  OpCounters& operator-=(const OpCounters& o) {
    adds -= o.adds;
    rounded_adds -= o.rounded_adds;
    overwrites -= o.overwrites;
    lshift_overflows -= o.lshift_overflows;
    saturations -= o.saturations;
    nonfinite_inputs -= o.nonfinite_inputs;
    zero_inputs -= o.zero_inputs;
    return *this;
  }
};

/// Raw register state, exposed so the PISA switch program can be checked
/// for bit-exact equivalence against this reference implementation.
struct FpState {
  std::int32_t exp = 0;
  std::int64_t man = 0;
};

/// Stateless kernel: one FPISA add of an extracted value into a register
/// pair. Both the scalar and the vector accumulators funnel through this;
/// so does the reference model used to validate the switch program.
void fpisa_add(FpState& state, Decomposed in, const AccumulatorConfig& cfg,
               OpCounters& counters);

namespace detail {
/// R-bit register add with overflow accounting (shared with block-FP).
std::int64_t add_register(std::int64_t a, std::int64_t b, int reg_bits,
                          OverflowPolicy policy, OpCounters& counters);
/// Arithmetic shift right with the distance clamped at the word width.
std::int64_t asr(std::int64_t v, int d);
/// True if an arithmetic right shift by d would drop set bits.
bool asr_inexact(std::int64_t v, int d);
}  // namespace detail

/// Stateless read: renormalize + assemble (does not modify the state).
AssembleResult fpisa_read(const FpState& state, const AccumulatorConfig& cfg);

/// Single-value accumulator with the full extract/add/read flow.
class FpisaAccumulator {
 public:
  explicit FpisaAccumulator(AccumulatorConfig cfg = {}) : cfg_(cfg) {}

  /// Adds a packed value in the configured format.
  void add_bits(std::uint64_t bits);
  /// FP32 convenience.
  void add(float v) { add_bits(fp32_bits(v)); }

  /// Renormalized packed result; state is unchanged (delayed renorm).
  std::uint64_t read_bits() const { return fpisa_read(state_, cfg_).bits; }
  /// FP32 convenience.
  float read() const { return fp32_value(static_cast<std::uint32_t>(read_bits())); }
  /// Exact arithmetic value of the denormalized register state.
  double read_value() const;

  void reset() { state_ = {}; }
  const FpState& state() const { return state_; }
  const OpCounters& counters() const { return counters_; }

 private:
  AccumulatorConfig cfg_;
  FpState state_{};
  OpCounters counters_{};
};

}  // namespace fpisa::core
