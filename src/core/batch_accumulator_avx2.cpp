// AVX2 backend for fpisa_add_batch and fpisa_add_gather: a literal
// translation of the branchless lane primitive in batch_lane.h into vector
// selects, eight 32-bit lanes per step for 32-bit registers and four
// 64-bit lanes otherwise. This translation unit is compiled with
// -mavx2 (and only when FPISA_ENABLE_AVX2 is on); callers reach it solely
// through the runtime-dispatched entry points, which check CPU support
// first. Payloads are raw bytes at any alignment, loaded with loadu.
//
// Notes on the emulated pieces (AVX2 has no 64-bit arithmetic shift and no
// 64-bit min/max):
//  * asr(v, s) for s in [0,63]: (v >>> s) | (sign_mask << (64 - s)); the
//    fill shift count of 64 (s == 0) correctly produces no fill because
//    vpsllvq yields 0 for counts >= 64.
//  * distances >= 64 behave like the reference: results clamp through the
//    s -> min(s, 63) mapping (every operand fits in < 63 magnitude bits),
//    and the inexact rule switches to "v != 0 && v != -1" lanes-wise.
//  * wrap to reg_bits: mask, then xor/sub sign-extension.
// LaneMode::kSwitch (batch_lane.h) is three compile-time edits to the same
// stream: the active mask is all-ones, the distance is clamped to ±32, and
// left-shift overflows are masked out of the saturation tally.
//
// Slot-resident gather. A wave queued slot-major reaches the kernel as runs
// of payloads on one bank row (a slot's W workers, a retransmit right after
// its first copy). Each block of a run's row is loaded once, every payload
// of the run steps it in order while it stays in YMM registers, and it is
// stored once. The event tallies stay in registers too, as lane counts:
// each count vector packs two tallies per lane, the low half bumped by
// subtracting a lane's all-ones mask (+1) and the high half by subtracting
// the mask shifted into the high half. A lane gains at most one per tally
// per step, so draining the vectors into BatchTallies every kDrainEvery
// steps, and at the end, keeps each half from wrapping.
#include "core/batch_accumulator.h"

#if defined(FPISA_HAVE_AVX2)

#include <immintrin.h>

#include <algorithm>

#include "core/batch_lane.h"

namespace fpisa::core::detail {
namespace {

inline __m256i set1(std::int64_t v) { return _mm256_set1_epi64x(v); }

inline __m256i blend(__m256i a, __m256i b, __m256i mask) {
  return _mm256_blendv_epi8(a, b, mask);  // mask lanes are all-ones/zeros
}

/// blend for 32-bit lane masks: vblendvps reads each lane's sign bit, so
/// the compiler has no byte mask to derive.
inline __m256i blend32(__m256i a, __m256i b, __m256i mask) {
  return _mm256_castps_si256(_mm256_blendv_ps(_mm256_castsi256_ps(a),
                                              _mm256_castsi256_ps(b),
                                              _mm256_castsi256_ps(mask)));
}

inline __m256i is_nonzero64(__m256i v) {
  return _mm256_xor_si256(_mm256_cmpeq_epi64(v, _mm256_setzero_si256()),
                          set1(-1));
}

/// Arithmetic >> for 64-bit lanes, counts already clamped to [0, 63].
inline __m256i asr64(__m256i v, __m256i s) {
  const __m256i logical = _mm256_srlv_epi64(v, s);
  const __m256i neg = _mm256_cmpgt_epi64(_mm256_setzero_si256(), v);
  const __m256i fill = _mm256_sllv_epi64(neg, _mm256_sub_epi64(set1(64), s));
  return _mm256_or_si256(logical, fill);
}

/// Replica of asr_inexact_clamped: `s` unclamped, `sc` = min(s, 63).
inline __m256i asr_inexact64(__m256i v, __m256i s, __m256i sc) {
  const __m256i low_mask =
      _mm256_sub_epi64(_mm256_sllv_epi64(set1(1), sc), set1(1));
  const __m256i below64 = is_nonzero64(_mm256_and_si256(v, low_mask));
  const __m256i at64 = _mm256_and_si256(
      is_nonzero64(v),
      _mm256_xor_si256(_mm256_cmpeq_epi64(v, set1(-1)), set1(-1)));
  const __m256i ge64 = _mm256_cmpgt_epi64(s, set1(63));
  const __m256i pos = _mm256_cmpgt_epi64(s, _mm256_setzero_si256());
  return _mm256_and_si256(pos, blend(below64, at64, ge64));
}

/// Steps between drains of the lane counts: each half of a count lane
/// (16 bits in the 32-bit kernel) then holds at most 0xFFFF.
constexpr std::size_t kDrainEvery = 0xFFFF;

/// The one gather iteration both kernel widths share. Per run of `k`
/// payloads on one row, each W-lane block is handed to `block(payloads, n,
/// exp, man, lane)`, which loads it, steps `n` payloads over it in order in
/// registers and stores it. `drain(t, steps)` empties the lane counts,
/// which hold `steps` steps: before a run that would take them past
/// kDrainEvery, after each kDrainEvery-payload piece of a run longer than
/// that, and at the end. Lanes past the last whole block take the scalar
/// run, only when there are any.
template <std::size_t W, Variant V, OverflowPolicy P, LaneMode M,
          class Block, class Drain>
inline void gather_runs(const GatherBatch& g, const LaneParams& p,
                        BatchTallies& t, Block&& block, Drain&& drain) {
  const std::size_t body = g.lanes - g.lanes % W;
  std::size_t pending = 0;  // steps since the last drain
  for_each_row_run(g, [&](const std::byte* const* payloads, std::size_t k,
                          std::int32_t* exp, std::int64_t* man) {
    // Every vector step counts W adds; the accumulator's drain takes its
    // non-finite lanes back out.
    t.adds += body * k;
    const std::size_t steps = body / W * k;
    if (pending + steps > kDrainEvery) {
      drain(t, pending);
      pending = 0;
    }
    if (steps <= kDrainEvery) {
      for (std::size_t i = 0; i < body; i += W) {
        block(payloads, k, exp + i, man + i, i);
      }
      pending += steps;
    } else {
      for (std::size_t i = 0; i < body; i += W) {
        for (std::size_t j = 0; j < k; j += kDrainEvery) {
          const std::size_t n = std::min(k - j, kDrainEvery);
          block(payloads + j, n, exp + i, man + i, i);
          drain(t, n);
        }
      }
    }
    if (body < g.lanes) {
      lane_add_run<V, P, M>(payloads, k, body, g.lanes, exp, man, p, t);
    }
  });
  drain(t, pending);
}

// --- 8-lane kernel for 32-bit registers ------------------------------------
// The default FP32 config accumulates in a 32-bit register, where the lane
// math fits native 32-bit SIMD: vpsravd already sign-fills for counts > 31
// (exactly the clamp the reference applies), a 32-bit add IS the wrap to
// reg_bits, and signed-overflow detection is the classic (a^sum)&(b^sum)
// sign test. Twice the lanes, fewer emulated ops. The mantissas are packed
// to int32 when a block is loaded and widened back when it is stored, once
// per run.

inline __m256i is_nonzero32(__m256i v) {
  return _mm256_xor_si256(_mm256_cmpeq_epi32(v, _mm256_setzero_si256()),
                          _mm256_set1_epi32(-1));
}

/// Inexact rule on 32-bit lanes, s unclamped (>= 0). For s in [1,31] the
/// low-bit mask applies; for s in [32,63] the reference's sign-extended
/// mask covers the whole value, i.e. inexact == (v != 0) — which the
/// uniform `(1 << s) - 1` mask also yields because vpsllvd returns 0 for
/// counts >= 32; for s >= 64 the reference switches to v != 0 && v != -1.
inline __m256i asr_inexact32(__m256i v, __m256i s) {
  const __m256i one = _mm256_set1_epi32(1);
  const __m256i low_mask =
      _mm256_sub_epi32(_mm256_sllv_epi32(one, s), one);
  const __m256i below = is_nonzero32(_mm256_and_si256(v, low_mask));
  const __m256i at64 = _mm256_and_si256(
      is_nonzero32(v),
      _mm256_xor_si256(_mm256_cmpeq_epi32(v, _mm256_set1_epi32(-1)),
                       _mm256_set1_epi32(-1)));
  const __m256i ge64 = _mm256_cmpgt_epi32(s, _mm256_set1_epi32(63));
  const __m256i pos = _mm256_cmpgt_epi32(s, _mm256_setzero_si256());
  return _mm256_and_si256(pos, blend(below, at64, ge64));
}

/// Pack 8 x int64 (two 256-bit halves, values known to fit int32) into one
/// 8 x int32 vector.
inline __m256i pack_man32(__m256i lo, __m256i hi) {
  const __m256i idx = _mm256_setr_epi32(0, 2, 4, 6, 0, 2, 4, 6);
  const __m256i a = _mm256_permutevar8x32_epi32(lo, idx);
  const __m256i b = _mm256_permutevar8x32_epi32(hi, idx);
  return _mm256_permute2x128_si256(a, b, 0x20);  // low(a) | low(b)
}

/// Count vector `c` with mask `lo` added to each lane's low 16 bits and
/// mask `hi` to its high 16 bits.
inline __m256i tally32(__m256i c, __m256i lo, __m256i hi) {
  return _mm256_sub_epi32(_mm256_sub_epi32(c, lo), _mm256_slli_epi32(hi, 16));
}

/// Adds the low and the high halves of a 32-bit count vector's lanes into
/// `lo` and `hi`, and empties it.
inline void drain32(__m256i& c, std::uint64_t& lo, std::uint64_t& hi) {
  const auto sum = [](__m256i v) {  // 8 lanes, each < 2^16: no carry out
    __m128i s = _mm_add_epi32(_mm256_castsi256_si128(v),
                              _mm256_extracti128_si256(v, 1));
    s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0x4E));
    s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0xB1));
    return static_cast<std::uint64_t>(
        static_cast<std::uint32_t>(_mm_cvtsi128_si32(s)));
  };
  lo += sum(_mm256_and_si256(c, _mm256_set1_epi32(0xFFFF)));
  hi += sum(_mm256_srli_epi32(c, 16));
  c = _mm256_setzero_si256();
}

template <Variant V, OverflowPolicy P, LaneMode M>
void gather32(const GatherBatch& g, const LaneParams& p, BatchTallies& t) {
  constexpr bool kSwitch = M == LaneMode::kSwitch;
  const __m256i k_exp_mask = _mm256_set1_epi32(0xFF);
  const __m256i k_frac_mask = _mm256_set1_epi32(0x7FFFFF);
  const __m256i k_implied = _mm256_set1_epi32(1 << 23);
  const __m256i k_zero = _mm256_setzero_si256();
  const __m256i k_one = _mm256_set1_epi32(1);
  const __m256i k_all = _mm256_set1_epi32(-1);
  const __m256i k_32 = _mm256_set1_epi32(32);
  const __m256i k_hi = _mm256_set1_epi32(static_cast<std::int32_t>(p.hi));
  const __m256i k_lo = _mm256_set1_epi32(static_cast<std::int32_t>(p.lo));
  const __m256i k_headroom = _mm256_set1_epi32(p.headroom);
  const __m128i k_guard = _mm_cvtsi32_si128(p.guard);
  // Lane counts, two per vector (low, high): (nonfinite, zeros),
  // (rounded, saturations) and, for FPISA-A only, (lshift_overflows,
  // overwrites). The switch counts its exact aligns in the rounded slot,
  // and the drain turns them back into rounded ones.
  __m256i c_input = k_zero, c_round = k_zero, c_shift = k_zero;

  const auto block = [&](const std::byte* const* payloads, std::size_t n,
                         std::int32_t* exp, std::int64_t* man,
                         std::size_t lane) {
    __m256i se = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(exp));
    __m256i sm = pack_man32(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(man)),
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(man + 4)));
    for (std::size_t j = 0; j < n; ++j) {
      const __m256i u = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(payloads[j] + 4 * lane));
      const __m256i u2 = _mm256_slli_epi32(u, 1);  // sign dropped
      const __m256i e_raw = _mm256_srli_epi32(u2, 24);
      const __m256i frac = _mm256_and_si256(u, k_frac_mask);
      const __m256i nonfinite = _mm256_cmpeq_epi32(e_raw, k_exp_mask);
      const __m256i zero = _mm256_cmpeq_epi32(u2, k_zero);
      const __m256i active =
          kSwitch ? k_all
                  : _mm256_andnot_si256(_mm256_or_si256(nonfinite, zero),
                                        k_all);

      const __m256i sub = _mm256_cmpeq_epi32(e_raw, k_zero);
      const __m256i e = _mm256_max_epi32(e_raw, k_one);  // subnormal: 1
      const __m256i sig =
          _mm256_or_si256(frac, _mm256_andnot_si256(sub, k_implied));
      // Sign fold: vpsignd negates where u's sign bit is set (and zeroes
      // where u is +0, whose sig is 0 anyway).
      const __m256i m_in =
          _mm256_sll_epi32(_mm256_sign_epi32(sig, u), k_guard);
      const __m256i d = _mm256_sub_epi32(e, se);

      // `exact`: the switch's align dropped no set bits. Its shifts stay
      // in [0, 32] (the align table's clamp), where shifting the result
      // back and comparing is the inexact test; counts of 32 drop every
      // bit both ways, as the table's sign fill does.
      __m256i a, b, ne, rounded, exact;
      __m256i is_lsh = k_zero, is_ovw = k_zero;
      if (V == Variant::kFull) {
        const __m256i grow = _mm256_cmpgt_epi32(d, k_zero);
        const __m256i sh = kSwitch ? _mm256_min_epi32(_mm256_abs_epi32(d), k_32)
                                   : _mm256_abs_epi32(d);
        const __m256i shifted = blend32(m_in, sm, grow);
        a = _mm256_srav_epi32(shifted, sh);  // counts > 31 sign-fill
        if (kSwitch) {
          exact = _mm256_cmpeq_epi32(_mm256_sllv_epi32(a, sh), shifted);
        } else {
          rounded = asr_inexact32(shifted, sh);
        }
        b = blend32(sm, m_in, grow);
        ne = blend32(se, e, grow);
      } else {
        const __m256i dc =
            kSwitch ? _mm256_max_epi32(_mm256_min_epi32(d, k_32),
                                       _mm256_sub_epi32(k_zero, k_32))
                    : d;
        is_ovw = _mm256_cmpgt_epi32(dc, k_headroom);
        const __m256i pos = _mm256_cmpgt_epi32(dc, k_zero);
        is_lsh = _mm256_andnot_si256(is_ovw, pos);
        const __m256i sh = _mm256_andnot_si256(
            pos, _mm256_sub_epi32(k_zero, dc));  // max(-d, 0)
        const __m256i rshifted = _mm256_srav_epi32(m_in, sh);
        if (kSwitch) {
          exact = _mm256_cmpeq_epi32(_mm256_sllv_epi32(rshifted, sh), m_in);
        } else {
          rounded = asr_inexact32(m_in, sh);
        }
        const __m256i dl = _mm256_and_si256(dc, is_lsh);
        b = blend32(rshifted, _mm256_sllv_epi32(m_in, dl), is_lsh);
        b = blend32(b, m_in, is_ovw);
        a = _mm256_andnot_si256(is_ovw, sm);
        ne = blend32(se, e, is_ovw);
      }

      // 32-bit add IS the wrap; signed overflow via the sign-algebra test.
      const __m256i sum = _mm256_add_epi32(a, b);
      const __m256i ovf = _mm256_srai_epi32(
          _mm256_and_si256(_mm256_xor_si256(a, sum),
                           _mm256_xor_si256(b, sum)),
          31);
      const __m256i nm =
          P == OverflowPolicy::kWrap
              ? sum
              : blend32(sum, blend32(k_hi, k_lo, _mm256_srai_epi32(a, 31)), ovf);

      c_input = tally32(c_input, nonfinite, zero);  // a zero is finite
      c_round = tally32(
          c_round, kSwitch ? exact : _mm256_and_si256(active, rounded),
          _mm256_and_si256(active, kSwitch ? _mm256_andnot_si256(is_lsh, ovf)
                                           : ovf));
      if (V == Variant::kApproximate) {
        c_shift = tally32(
            c_shift, _mm256_and_si256(active, _mm256_and_si256(is_lsh, ovf)),
            _mm256_and_si256(active,
                             _mm256_and_si256(is_ovw, is_nonzero32(sm))));
      }
      se = kSwitch ? ne : blend32(se, ne, active);
      sm = kSwitch ? nm : blend32(sm, nm, active);
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(exp), se);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(man),
                        _mm256_cvtepi32_epi64(_mm256_castsi256_si128(sm)));
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(man + 4),
        _mm256_cvtepi32_epi64(_mm256_extracti128_si256(sm, 1)));
  };
  const auto drain = [&](BatchTallies& bt, std::size_t steps) {
    const std::uint64_t nonfinite = bt.nonfinite;
    drain32(c_input, bt.nonfinite, bt.zeros);
    if (!kSwitch) bt.adds -= bt.nonfinite - nonfinite;
    std::uint64_t round = 0;
    drain32(c_round, round, bt.saturations);
    bt.rounded += kSwitch ? 8 * steps - round : round;
    if (V == Variant::kApproximate) {
      drain32(c_shift, bt.lshift_overflows, bt.overwrites);
    }
  };
  gather_runs<8, V, P, M>(g, p, t, block, drain);
}

// --- 4-lane kernel for wider registers ---------------------------------------

/// Count vector `c` with mask `lo` added to each 64-bit lane's low 32 bits
/// and mask `hi` to its high 32 bits.
inline __m256i tally64(__m256i c, __m256i lo, __m256i hi) {
  return _mm256_sub_epi64(_mm256_sub_epi64(c, lo), _mm256_slli_epi64(hi, 32));
}

/// Adds the low and the high halves of a 64-bit count vector's lanes into
/// `lo` and `hi`, and empties it.
inline void drain64(__m256i& c, std::uint64_t& lo, std::uint64_t& hi) {
  alignas(32) std::uint64_t v[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(v), c);
  for (const std::uint64_t x : v) {
    lo += x & 0xFFFFFFFFu;
    hi += x >> 32;
  }
  c = _mm256_setzero_si256();
}

template <Variant V, OverflowPolicy P, LaneMode M>
void gather64(const GatherBatch& g, const LaneParams& p, BatchTallies& t) {
  constexpr bool kSwitch = M == LaneMode::kSwitch;
  const __m256i k_exp_mask = set1(0xFF);
  const __m256i k_frac_mask = set1(0x7FFFFF);
  const __m256i k_implied = set1(std::int64_t{1} << 23);
  const __m256i k_zero = _mm256_setzero_si256();
  const __m256i k_one = set1(1);
  const __m256i k_63 = set1(63);
  const __m256i k_hi = set1(p.hi);
  const __m256i k_lo = set1(p.lo);
  const __m256i k_sign_bit = set1(static_cast<std::int64_t>(p.sign_bit));
  const __m256i k_width_mask =
      set1(static_cast<std::int64_t>((p.sign_bit << 1) - 1));
  const __m256i k_headroom = set1(p.headroom);
  const __m128i k_guard = _mm_cvtsi32_si128(p.guard);
  __m256i c_input = k_zero, c_round = k_zero, c_shift = k_zero;

  const auto block = [&](const std::byte* const* payloads, std::size_t n,
                         std::int32_t* exp, std::int64_t* man,
                         std::size_t lane) {
    // Loads 4x int32 (the cvt widens them).
    __m256i se = _mm256_cvtepi32_epi64(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(exp)));
    __m256i sm = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(man));
    for (std::size_t j = 0; j < n; ++j) {
      const __m256i u = _mm256_cvtepu32_epi64(_mm_loadu_si128(
          reinterpret_cast<const __m128i*>(payloads[j] + 4 * lane)));

      // Extract + classify.
      const __m256i e_raw =
          _mm256_and_si256(_mm256_srli_epi64(u, 23), k_exp_mask);
      const __m256i frac = _mm256_and_si256(u, k_frac_mask);
      const __m256i nonfinite = _mm256_cmpeq_epi64(e_raw, k_exp_mask);
      const __m256i zero =
          _mm256_cmpeq_epi64(_mm256_or_si256(e_raw, frac), k_zero);
      const __m256i active =
          kSwitch ? set1(-1)
                  : _mm256_andnot_si256(_mm256_or_si256(nonfinite, zero),
                                        set1(-1));

      // Implied 1, subnormal remap, sign fold, guard shift.
      const __m256i sub = _mm256_cmpeq_epi64(e_raw, k_zero);
      const __m256i e = blend(e_raw, k_one, sub);
      const __m256i sig =
          _mm256_or_si256(frac, _mm256_andnot_si256(sub, k_implied));
      const __m256i negm =
          is_nonzero64(_mm256_and_si256(_mm256_srli_epi64(u, 31), k_one));
      const __m256i m_signed =
          _mm256_sub_epi64(_mm256_xor_si256(sig, negm), negm);
      const __m256i m_in = _mm256_sll_epi64(m_signed, k_guard);

      __m256i d = _mm256_sub_epi64(e, se);
      if (kSwitch) {  // no 64-bit min/max in AVX2: clamp by select
        d = blend(d, set1(32), _mm256_cmpgt_epi64(d, set1(32)));
        d = blend(d, set1(-32), _mm256_cmpgt_epi64(set1(-32), d));
      }
      const __m256i d_neg = _mm256_sub_epi64(k_zero, d);

      __m256i a, b, ne, rounded;
      __m256i is_lsh = k_zero, is_ovw = k_zero;
      if (V == Variant::kFull) {
        const __m256i grow = _mm256_cmpgt_epi64(d, k_zero);
        const __m256i sh = blend(d_neg, d, grow);
        const __m256i shc = blend(sh, k_63, _mm256_cmpgt_epi64(sh, k_63));
        const __m256i shifted = blend(m_in, sm, grow);
        rounded = asr_inexact64(shifted, sh, shc);
        a = asr64(shifted, shc);
        b = blend(sm, m_in, grow);  // grow: add incoming; else add stored
        ne = blend(se, e, grow);
      } else {
        is_ovw = _mm256_cmpgt_epi64(d, k_headroom);
        const __m256i pos = _mm256_cmpgt_epi64(d, k_zero);
        is_lsh = _mm256_andnot_si256(is_ovw, pos);
        const __m256i sh = _mm256_andnot_si256(pos, d_neg);  // max(-d, 0)
        const __m256i shc = blend(sh, k_63, _mm256_cmpgt_epi64(sh, k_63));
        rounded = asr_inexact64(m_in, sh, shc);
        const __m256i dl = _mm256_and_si256(d, is_lsh);  // 0 unless lsh
        const __m256i lshifted = _mm256_sllv_epi64(m_in, dl);
        b = blend(asr64(m_in, shc), lshifted, is_lsh);
        b = blend(b, m_in, is_ovw);
        a = _mm256_andnot_si256(is_ovw, sm);
        ne = blend(se, e, is_ovw);
      }

      // add_register in select form.
      const __m256i sum = _mm256_add_epi64(a, b);
      const __m256i under = _mm256_cmpgt_epi64(k_lo, sum);
      const __m256i over = _mm256_cmpgt_epi64(sum, k_hi);
      const __m256i ovf = _mm256_or_si256(under, over);
      const __m256i w = _mm256_and_si256(sum, k_width_mask);
      const __m256i wrapped =
          _mm256_sub_epi64(_mm256_xor_si256(w, k_sign_bit), k_sign_bit);
      const __m256i satv = blend(k_hi, k_lo, under);
      const __m256i nm =
          blend(sum, P == OverflowPolicy::kWrap ? wrapped : satv, ovf);

      c_input = tally64(c_input, nonfinite, zero);  // a zero is finite
      c_round = tally64(
          c_round, _mm256_and_si256(active, rounded),
          _mm256_and_si256(active, kSwitch ? _mm256_andnot_si256(is_lsh, ovf)
                                           : ovf));
      if (V == Variant::kApproximate) {
        c_shift = tally64(
            c_shift, _mm256_and_si256(active, _mm256_and_si256(is_lsh, ovf)),
            _mm256_and_si256(active,
                             _mm256_and_si256(is_ovw, is_nonzero64(sm))));
      }
      se = blend(se, ne, active);
      sm = blend(sm, nm, active);
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(man), sm);
    // Narrow the 4x int64 exponents (all fit int32) back to the SoA array.
    const __m256i packed = _mm256_permutevar8x32_epi32(
        se, _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(exp),
                     _mm256_castsi256_si128(packed));
  };
  const auto drain = [&](BatchTallies& bt, std::size_t /*steps*/) {
    const std::uint64_t nonfinite = bt.nonfinite;
    drain64(c_input, bt.nonfinite, bt.zeros);
    if (!kSwitch) bt.adds -= bt.nonfinite - nonfinite;
    drain64(c_round, bt.rounded, bt.saturations);
    if (V == Variant::kApproximate) {
      drain64(c_shift, bt.lshift_overflows, bt.overwrites);
    }
  };
  gather_runs<4, V, P, M>(g, p, t, block, drain);
}

/// The kernel is picked once per batch (the register width here, the
/// variant, policy and mode by the callers below).
template <Variant V, OverflowPolicy P, LaneMode M>
void run_rows(const GatherBatch& g, const LaneParams& p, BatchTallies& t) {
  if (p.reg_bits == 32) {
    gather32<V, P, M>(g, p, t);
  } else {
    gather64<V, P, M>(g, p, t);
  }
}

template <Variant V, OverflowPolicy P>
void run_mode(const GatherBatch& g, const LaneParams& p, LaneMode mode,
              BatchTallies& t) {
  if (mode == LaneMode::kSwitch) {
    run_rows<V, P, LaneMode::kSwitch>(g, p, t);
  } else {
    run_rows<V, P, LaneMode::kAccumulator>(g, p, t);
  }
}

}  // namespace

void add_gather_avx2(const GatherBatch& g, const AccumulatorConfig& cfg,
                     LaneMode mode, BatchTallies& t) {
  const LaneParams p = LaneParams::from(cfg);
  const bool wrap = cfg.overflow == OverflowPolicy::kWrap;
  if (cfg.variant == Variant::kFull) {
    if (wrap) {
      run_mode<Variant::kFull, OverflowPolicy::kWrap>(g, p, mode, t);
    } else {
      run_mode<Variant::kFull, OverflowPolicy::kSaturate>(g, p, mode, t);
    }
  } else {
    if (wrap) {
      run_mode<Variant::kApproximate, OverflowPolicy::kWrap>(g, p, mode, t);
    } else {
      run_mode<Variant::kApproximate, OverflowPolicy::kSaturate>(g, p, mode,
                                                                 t);
    }
  }
}

}  // namespace fpisa::core::detail

#endif  // FPISA_HAVE_AVX2
