// Internal: the branchless FPISA lane primitive shared by the scalar and
// AVX2 batch backends (and used scalar-side for vector tails). Not part of
// the public core API — include batch_accumulator.h instead.
//
// Every decision of the scalar reference (`fpisa_add`) is re-expressed as
// a select so one instruction stream handles all lanes:
//   * align-vs-grow (full FPISA): shift whichever mantissa has the smaller
//     exponent; the shifted operand and distance are selected, not branched.
//   * headroom / overwrite (FPISA-A): masks `d > 0` and `d > headroom`
//     pick between aligned add, left-shifted add, and overwrite (overwrite
//     is folded into the same adder as `0 + m_in`, which can never
//     saturate because an extracted value always fits the register).
//   * counters: every event is a 0/1 lane contribution summed into
//     BatchTallies.
// Shift distances are clamped to 63 — identical results to the reference's
// 64-clamp because every operand fits in well under 63 magnitude bits —
// and the reference's asymmetric `asr_inexact` rule at the >=64 boundary
// is replicated bit-for-bit.
//
// Both primitives take a LaneMode (batch_accumulator.h). kAccumulator is
// the contract above. kSwitch is the FPISA switch program's compiled
// ingress and egress: in `lane_add` every lane is active (zeros and
// non-finite values run the datapath and count as adds), the exponent
// difference is clamped to ±32 like the switch's align table, and a
// left-shift overflow is not also a saturation; in `lane_read` a would-be
// subnormal flushes to signed zero. Everything else — the selects, the
// wrap, the counter lane sums — is one code path for both.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>

#include "core/accumulator.h"
#include "core/batch_accumulator.h"

namespace fpisa::core::detail {

/// asr with the distance clamped: for s >= 64 the reference returns the
/// sign (0 or -1), which `v >> 63` also yields for any |v| < 2^63.
inline std::int64_t asr_clamped(std::int64_t v, std::int32_t s) {
  return v >> (s > 63 ? 63 : s);
}

/// Bit-exact replica of detail::asr_inexact, including its distinct rule
/// for distances >= 64 (where v == -1 counts as exact).
inline bool asr_inexact_clamped(std::int64_t v, std::int32_t s) {
  const std::uint64_t mask =
      (std::uint64_t{1} << (s > 63 ? 63 : (s > 0 ? s : 0))) - 1;
  const bool below64 = (static_cast<std::uint64_t>(v) & mask) != 0;
  const bool at_or_above64 = v != 0 && v != -1;
  if (s <= 0) return false;
  return s >= 64 ? at_or_above64 : below64;
}

/// Uniform (per-batch) parameters hoisted out of the lane loop.
struct LaneParams {
  int guard = 0;
  int reg_bits = 0;
  int headroom = 0;
  std::int64_t hi = 0;  ///< register max
  std::int64_t lo = 0;  ///< register min
  std::uint64_t sign_bit = 0;

  static LaneParams from(const AccumulatorConfig& cfg) {
    LaneParams p;
    p.guard = cfg.guard_bits;
    p.reg_bits = cfg.effective_reg_bits();
    p.headroom = cfg.headroom();
    p.hi = (std::int64_t{1} << (p.reg_bits - 1)) - 1;
    p.lo = -p.hi - 1;
    p.sign_bit = std::uint64_t{1} << (p.reg_bits - 1);
    return p;
  }
};

/// One branch-free FPISA add of packed FP32 `u` into (se, sm).
/// kAccumulator: bit-identical (state and counter totals) to
/// `extract` + skip-nonfinite + `fpisa_add` for reg_bits < 64.
/// kSwitch: bit-identical to the switch program's MAU0-4 tables.
template <Variant V, OverflowPolicy P, LaneMode M>
inline void lane_add(std::uint32_t u, std::int32_t& se, std::int64_t& sm,
                     const LaneParams& p, BatchTallies& t) {
  constexpr bool kSwitch = M == LaneMode::kSwitch;
  const std::uint32_t e_raw = (u >> 23) & 0xFFu;
  const std::uint32_t frac = u & 0x7FFFFFu;
  const bool nonfinite = e_raw == 0xFFu;
  const bool zero = (e_raw | frac) == 0u;
  const bool active = kSwitch || (!nonfinite && !zero);
  t.nonfinite += nonfinite;
  t.adds += kSwitch || !nonfinite;
  t.zeros += zero;  // a zero is never non-finite

  // Extract (MAU0/1): implied 1, subnormal remap to exponent 1, sign fold.
  const bool sub = e_raw == 0u;
  const std::int32_t e = sub ? 1 : static_cast<std::int32_t>(e_raw);
  const std::int64_t sig = static_cast<std::int64_t>(
      frac | (static_cast<std::uint32_t>(!sub) << 23));
  const std::int64_t m_in = ((u >> 31) ? -sig : sig) << p.guard;

  std::int32_t d = e - se;
  if (kSwitch) d = d > 32 ? 32 : (d < -32 ? -32 : d);

  std::int64_t a;     // first adder operand
  std::int64_t b;     // second adder operand
  std::int32_t ne;    // exponent to commit
  bool rounded;       // alignment shift dropped set bits
  bool is_lsh = false;
  bool is_ovw = false;
  if (V == Variant::kFull) {
    // RSAW symmetry: shift whichever side has the smaller exponent.
    const bool grow = d > 0;
    const std::int32_t sh = grow ? d : -d;
    const std::int64_t shifted = grow ? sm : m_in;
    rounded = asr_inexact_clamped(shifted, sh);
    a = asr_clamped(shifted, sh);
    b = grow ? m_in : sm;
    ne = grow ? e : se;
  } else {
    is_ovw = d > p.headroom;
    is_lsh = d > 0 && !is_ovw;
    const std::int32_t sh = d < 0 ? -d : 0;
    rounded = asr_inexact_clamped(m_in, sh);  // false whenever d >= 0
    const std::int32_t dl = is_lsh ? d : 0;   // clamp: shift stays defined
    a = is_ovw ? 0 : sm;
    b = is_ovw ? m_in : (is_lsh ? (m_in << dl) : asr_clamped(m_in, sh));
    ne = is_ovw ? e : se;
  }

  // add_register, select form. Operands are bounded well inside int64 (the
  // register range plus an extracted mantissa), so the wide add is exact.
  const std::int64_t sum = a + b;
  const bool ovf = sum < p.lo || sum > p.hi;
  const std::uint64_t w =
      static_cast<std::uint64_t>(sum) & ((p.sign_bit << 1) - 1);
  const std::int64_t wrapped =
      static_cast<std::int64_t>((w ^ p.sign_bit) - p.sign_bit);
  const std::int64_t satv = sum < p.lo ? p.lo : p.hi;
  const std::int64_t nm =
      ovf ? (P == OverflowPolicy::kWrap ? wrapped : satv) : sum;

  t.rounded += active && rounded;
  t.saturations += active && ovf && !(kSwitch && is_lsh);
  t.lshift_overflows += active && is_lsh && ovf;
  t.overwrites += active && is_ovw && sm != 0;

  se = active ? ne : se;
  sm = active ? nm : sm;
}

/// One branch-free renormalize-and-assemble (egress MAU5-8) of register
/// pair (se, sm) into packed FP32 bits: CLZ to locate the leading one,
/// truncating shift to the canonical significand position, sign fold,
/// exponent adjust, pack. Bit-identical to `fpisa_read` with
/// Rounding::kTowardZero — including subnormal outputs (truncation can
/// never carry, so the general assemble's round-up-into-normal branch is
/// unreachable), underflow to signed zero, and overflow to ±inf. The
/// reference's shift-clamp rules are replicated exactly: a non-positive
/// shift keeps the value unshifted and a shift >= 64 drops every bit.
/// kSwitch flushes the subnormal range to signed zero instead (the switch
/// egress's FTZ gateway).
template <LaneMode M>
inline std::uint32_t lane_read(std::int32_t se, std::int64_t sm, int guard) {
  const bool neg = sm < 0;
  const std::uint64_t u = neg ? ~static_cast<std::uint64_t>(sm) + 1
                              : static_cast<std::uint64_t>(sm);
  const std::uint32_t sign = neg ? 0x80000000u : 0u;
  // Leading-one position; the |1 keeps countl_zero defined for u == 0
  // (that lane is selected out at the end anyway).
  const int p = 63 - std::countl_zero(u | 1);
  const std::int64_t norm_exp =
      static_cast<std::int64_t>(se) + p - 23 - guard;
  const int shift = p - 23;

  // Subnormal output (norm_exp <= 0): extra right shift of 1 - norm_exp.
  // frac < 2^23 always holds under truncation, so the pack is exact.
  const std::int64_t ts = shift + 1 - norm_exp;
  const std::uint64_t frac =
      ts >= 64 ? 0 : (ts <= 0 ? u : u >> ts);
  const std::uint32_t sub_bits = sign | static_cast<std::uint32_t>(frac);

  // Normal output (0 < norm_exp < 255): leading 1 lands exactly at bit 23.
  const std::uint64_t sig = shift >= 0 ? u >> shift : u << -shift;
  const std::uint32_t norm_bits =
      sign | (static_cast<std::uint32_t>(norm_exp) << 23) |
      (static_cast<std::uint32_t>(sig) & 0x7FFFFFu);

  const std::uint32_t inf_bits = sign | 0x7F800000u;
  const std::uint32_t tiny_bits = M == LaneMode::kSwitch ? sign : sub_bits;
  return sm == 0        ? 0u
         : norm_exp >= 255 ? inf_bits
         : norm_exp <= 0   ? tiny_bits
                           : norm_bits;
}

// The range loops below bound the unrolled body by `n - n % 4` rather than
// `i + 4 <= n`: with a constant n inlined (the AVX2 fallback blocks), GCC
// otherwise derives an impossible trip count for the tail loop and warns
// under -Waggressive-loop-optimizations.

/// Lane i of a packed FP32 payload held as raw bytes (any alignment).
inline std::uint32_t load_lane(const std::byte* bits, std::size_t i) {
  std::uint32_t u;
  std::memcpy(&u, bits + i * sizeof u, sizeof u);
  return u;
}

/// Writes lane i of a packed FP32 row held as raw bytes (any alignment).
inline void store_lane(std::byte* bits, std::size_t i, std::uint32_t u) {
  std::memcpy(bits + i * sizeof u, &u, sizeof u);
}

/// Runs the read primitive over a range into raw bytes at any alignment
/// (the portable backend's core and the AVX2 backend's tail loop).
template <LaneMode M>
inline void lane_read_range(const std::int32_t* exp, const std::int64_t* man,
                            std::byte* out, std::size_t n, int guard) {
  const std::size_t n4 = n - n % 4;
  std::size_t i = 0;
  for (; i < n4; i += 4) {  // unrolled: independent lanes pipeline
    store_lane(out, i + 0, lane_read<M>(exp[i + 0], man[i + 0], guard));
    store_lane(out, i + 1, lane_read<M>(exp[i + 1], man[i + 1], guard));
    store_lane(out, i + 2, lane_read<M>(exp[i + 2], man[i + 2], guard));
    store_lane(out, i + 3, lane_read<M>(exp[i + 3], man[i + 3], guard));
  }
  for (; i < n; ++i) store_lane(out, i, lane_read<M>(exp[i], man[i], guard));
}

/// Runs the lane primitive over a range (the portable backend's core and
/// the AVX2 backend's tail loop).
template <Variant V, OverflowPolicy P, LaneMode M>
inline void lane_add_range(const std::byte* bits, std::size_t n,
                           std::int32_t* exp, std::int64_t* man,
                           const LaneParams& p, BatchTallies& t) {
  const std::size_t n4 = n - n % 4;
  std::size_t i = 0;
  for (; i < n4; i += 4) {  // unrolled: independent lanes pipeline
    lane_add<V, P, M>(load_lane(bits, i + 0), exp[i + 0], man[i + 0], p, t);
    lane_add<V, P, M>(load_lane(bits, i + 1), exp[i + 1], man[i + 1], p, t);
    lane_add<V, P, M>(load_lane(bits, i + 2), exp[i + 2], man[i + 2], p, t);
    lane_add<V, P, M>(load_lane(bits, i + 3), exp[i + 3], man[i + 3], p, t);
  }
  for (; i < n; ++i) {
    lane_add<V, P, M>(load_lane(bits, i), exp[i], man[i], p, t);
  }
}

/// Calls range(payload, lanes, exp_row, man_row) for each row of a gather
/// batch, in order.
template <class Range>
inline void for_each_row(const GatherBatch& g, Range&& range) {
  for (std::size_t r = 0; r < g.n; ++r) {
    const std::size_t off = std::size_t{g.rows[r]} * g.lanes;
    range(g.payloads[r], g.lanes, g.exp + off, g.man + off);
  }
}

/// Calls range(exp, man, dest, n) for each run of a scatter batch's rows
/// whose destinations follow one another, in order: a run is n = k * lanes
/// registers read into one span, so a wave landing on consecutive chunks
/// (or a flat read) runs the kernel once instead of row by row.
template <class Range>
inline void for_each_run(const ScatterBatch& s, Range&& range) {
  const std::size_t row_bytes = s.lanes * sizeof(std::uint32_t);
  for (std::size_t r = 0; r < s.n;) {
    std::size_t end = r + 1;
    while (end < s.n && s.dests[end] == s.dests[end - 1] + row_bytes) ++end;
    range(s.exp + r * s.lanes, s.man + r * s.lanes, s.dests[r],
          (end - r) * s.lanes);
    r = end;
  }
}

}  // namespace fpisa::core::detail
