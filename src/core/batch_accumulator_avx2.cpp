// AVX2 backend for fpisa_add_batch and fpisa_add_gather: four 64-bit lanes
// per iteration, a literal translation of the branchless lane primitive in
// batch_lane.h into vector selects. This translation unit is compiled with
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
#include "core/batch_accumulator.h"

#if defined(FPISA_HAVE_AVX2)

#include <immintrin.h>

#include "core/batch_lane.h"

namespace fpisa::core::detail {
namespace {

inline __m256i set1(std::int64_t v) { return _mm256_set1_epi64x(v); }

/// Per-lane boolean mask (all-ones / all-zeros 64-bit lanes) popcount.
inline unsigned mask_count(__m256i m) {
  return static_cast<unsigned>(__builtin_popcount(
      static_cast<unsigned>(_mm256_movemask_pd(_mm256_castsi256_pd(m)))));
}

inline __m256i blend(__m256i a, __m256i b, __m256i mask) {
  return _mm256_blendv_epi8(a, b, mask);  // mask lanes are all-ones/zeros
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

// --- specialized 8-lane kernel for 32-bit registers ------------------------
// The default FP32 config accumulates in a 32-bit register, where the lane
// math fits native 32-bit SIMD: vpsravd already sign-fills for counts > 31
// (exactly the clamp the reference applies), a 32-bit add IS the wrap to
// reg_bits, and signed-overflow detection is the classic (a^sum)&(b^sum)
// sign test. Twice the lanes, fewer emulated ops.

inline __m256i is_nonzero32(__m256i v) {
  return _mm256_xor_si256(_mm256_cmpeq_epi32(v, _mm256_setzero_si256()),
                          _mm256_set1_epi32(-1));
}

inline unsigned mask_count32(__m256i m) {
  return static_cast<unsigned>(__builtin_popcount(
      static_cast<unsigned>(_mm256_movemask_ps(_mm256_castsi256_ps(m)))));
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

/// asr_inexact32 for counts in [0, 32], the switch's clamped align range:
/// the >= 64 rule cannot apply, a count of 0 masks nothing, and a count of
/// 32 (vpsllvd yields 0, so the mask is all ones) tests the whole value.
inline __m256i asr_inexact32_clamped(__m256i v, __m256i s) {
  const __m256i one = _mm256_set1_epi32(1);
  const __m256i low_mask = _mm256_sub_epi32(_mm256_sllv_epi32(one, s), one);
  return is_nonzero32(_mm256_and_si256(v, low_mask));
}

/// Pack 8 x int64 (two 256-bit halves, values known to fit int32) into one
/// 8 x int32 vector, and the inverse via sign extension.
inline __m256i pack_man32(__m256i lo, __m256i hi) {
  const __m256i idx = _mm256_setr_epi32(0, 2, 4, 6, 0, 2, 4, 6);
  const __m256i a = _mm256_permutevar8x32_epi32(lo, idx);
  const __m256i b = _mm256_permutevar8x32_epi32(hi, idx);
  return _mm256_permute2x128_si256(a, b, 0x20);  // low(a) | low(b)
}

template <Variant V, OverflowPolicy P, LaneMode M>
void run32(const std::byte* bits, std::size_t n, std::int32_t* exp,
           std::int64_t* man, const LaneParams& p, BatchTallies& t) {
  constexpr bool kSwitch = M == LaneMode::kSwitch;
  const __m256i k_exp_mask = _mm256_set1_epi32(0xFF);
  const __m256i k_frac_mask = _mm256_set1_epi32(0x7FFFFF);
  const __m256i k_implied = _mm256_set1_epi32(1 << 23);
  const __m256i k_zero = _mm256_setzero_si256();
  const __m256i k_one = _mm256_set1_epi32(1);
  const __m256i k_all = _mm256_set1_epi32(-1);
  const __m256i k_hi = _mm256_set1_epi32(static_cast<std::int32_t>(p.hi));
  const __m256i k_lo = _mm256_set1_epi32(static_cast<std::int32_t>(p.lo));
  const __m256i k_headroom = _mm256_set1_epi32(p.headroom);
  const __m128i k_guard = _mm_cvtsi32_si128(p.guard);

  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i u =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bits + 4 * i));
    const __m256i se =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(exp + i));
    const __m256i man_lo =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(man + i));
    const __m256i man_hi =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(man + i + 4));
    const __m256i sm = pack_man32(man_lo, man_hi);

    const __m256i e_raw =
        _mm256_and_si256(_mm256_srli_epi32(u, 23), k_exp_mask);
    const __m256i frac = _mm256_and_si256(u, k_frac_mask);
    const __m256i nonfinite = _mm256_cmpeq_epi32(e_raw, k_exp_mask);
    const __m256i zero =
        _mm256_cmpeq_epi32(_mm256_or_si256(e_raw, frac), k_zero);
    const __m256i active =
        kSwitch ? k_all
                : _mm256_andnot_si256(_mm256_or_si256(nonfinite, zero), k_all);

    const __m256i sub = _mm256_cmpeq_epi32(e_raw, k_zero);
    const __m256i e = _mm256_max_epi32(e_raw, k_one);  // subnormal: 1
    const __m256i sig =
        _mm256_or_si256(frac, _mm256_andnot_si256(sub, k_implied));
    const __m256i negm = _mm256_srai_epi32(u, 31);
    const __m256i m_signed =
        _mm256_sub_epi32(_mm256_xor_si256(sig, negm), negm);
    const __m256i m_in = _mm256_sll_epi32(m_signed, k_guard);

    __m256i d = _mm256_sub_epi32(e, se);
    if (kSwitch) {
      d = _mm256_max_epi32(_mm256_min_epi32(d, _mm256_set1_epi32(32)),
                           _mm256_set1_epi32(-32));
    }
    const __m256i d_neg = _mm256_sub_epi32(k_zero, d);

    __m256i a, b, ne, rounded;
    __m256i is_lsh = k_zero, is_ovw = k_zero;
    if (V == Variant::kFull) {
      const __m256i grow = _mm256_cmpgt_epi32(d, k_zero);
      const __m256i sh = _mm256_abs_epi32(d);
      const __m256i shifted = blend(m_in, sm, grow);
      rounded = kSwitch ? asr_inexact32_clamped(shifted, sh)
                        : asr_inexact32(shifted, sh);
      a = _mm256_srav_epi32(shifted, sh);  // counts > 31 sign-fill natively
      b = blend(sm, m_in, grow);
      ne = blend(se, e, grow);
    } else {
      is_ovw = _mm256_cmpgt_epi32(d, k_headroom);
      const __m256i pos = _mm256_cmpgt_epi32(d, k_zero);
      is_lsh = _mm256_andnot_si256(is_ovw, pos);
      const __m256i sh = _mm256_andnot_si256(pos, d_neg);  // max(-d, 0)
      rounded = kSwitch ? asr_inexact32_clamped(m_in, sh)
                        : asr_inexact32(m_in, sh);
      const __m256i dl = _mm256_and_si256(d, is_lsh);
      const __m256i lshifted = _mm256_sllv_epi32(m_in, dl);
      b = blend(_mm256_srav_epi32(m_in, sh), lshifted, is_lsh);
      b = blend(b, m_in, is_ovw);
      a = _mm256_andnot_si256(is_ovw, sm);
      ne = blend(se, e, is_ovw);
    }

    // 32-bit add IS the wrap; signed overflow via the sign-algebra test.
    const __m256i sum = _mm256_add_epi32(a, b);
    const __m256i ovf = _mm256_srai_epi32(
        _mm256_and_si256(_mm256_xor_si256(a, sum), _mm256_xor_si256(b, sum)),
        31);
    const __m256i satv = blend(k_hi, k_lo, _mm256_srai_epi32(a, 31));
    const __m256i nm =
        P == OverflowPolicy::kWrap ? sum : blend(sum, satv, ovf);

    t.nonfinite += mask_count32(nonfinite);
    t.adds += kSwitch ? 8 : mask_count32(_mm256_xor_si256(nonfinite, k_all));
    t.zeros += mask_count32(zero);  // a zero is never non-finite
    t.rounded += mask_count32(_mm256_and_si256(active, rounded));
    t.saturations += mask_count32(_mm256_and_si256(
        active, kSwitch ? _mm256_andnot_si256(is_lsh, ovf) : ovf));
    t.lshift_overflows += mask_count32(
        _mm256_and_si256(active, _mm256_and_si256(is_lsh, ovf)));
    t.overwrites += mask_count32(_mm256_and_si256(
        active, _mm256_and_si256(is_ovw, is_nonzero32(sm))));

    const __m256i se_out = blend(se, ne, active);
    const __m256i sm_out = blend(sm, nm, active);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(exp + i), se_out);
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(man + i),
        _mm256_cvtepi32_epi64(_mm256_castsi256_si128(sm_out)));
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(man + i + 4),
        _mm256_cvtepi32_epi64(_mm256_extracti128_si256(sm_out, 1)));
  }
  lane_add_range<V, P, M>(bits + 4 * i, n - i, exp + i, man + i, p, t);
}

template <Variant V, OverflowPolicy P, LaneMode M>
void run64(const std::byte* bits, std::size_t n, std::int32_t* exp,
           std::int64_t* man, const LaneParams& p, BatchTallies& t) {
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

  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i u = _mm256_cvtepu32_epi64(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(bits + 4 * i)));
    const __m256i se =
        _mm256_cvtepi32_epi64(_mm_loadu_si128(reinterpret_cast<const __m128i*>(
            exp + i)));  // loads 4x int32 (upper lanes ignored by cvt)
    const __m256i sm =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(man + i));

    // Extract + classify.
    const __m256i e_raw = _mm256_and_si256(_mm256_srli_epi64(u, 23), k_exp_mask);
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
    const __m256i nm = blend(
        sum, P == OverflowPolicy::kWrap ? wrapped : satv, ovf);

    // Tallies: per-lane booleans -> movemask popcounts.
    t.nonfinite += mask_count(nonfinite);
    t.adds += kSwitch ? 4 : mask_count(_mm256_xor_si256(nonfinite, set1(-1)));
    t.zeros += mask_count(zero);  // a zero is never non-finite
    t.rounded += mask_count(_mm256_and_si256(active, rounded));
    t.saturations += mask_count(_mm256_and_si256(
        active, kSwitch ? _mm256_andnot_si256(is_lsh, ovf) : ovf));
    t.lshift_overflows += mask_count(
        _mm256_and_si256(active, _mm256_and_si256(is_lsh, ovf)));
    t.overwrites += mask_count(_mm256_and_si256(
        active, _mm256_and_si256(is_ovw, is_nonzero64(sm))));

    // Commit.
    const __m256i se_out = blend(se, ne, active);
    const __m256i sm_out = blend(sm, nm, active);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(man + i), sm_out);
    // Narrow the 4x int64 exponents (all fit int32) back to the SoA array.
    const __m256i packed = _mm256_permutevar8x32_epi32(
        se_out, _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(exp + i),
                     _mm256_castsi256_si128(packed));
  }
  lane_add_range<V, P, M>(bits + 4 * i, n - i, exp + i, man + i, p, t);
}

/// The kernel is picked once per batch (the register width here, the
/// variant, policy and mode by the callers below), then runs per row.
template <Variant V, OverflowPolicy P, LaneMode M>
void run_rows(const GatherBatch& g, const LaneParams& p, BatchTallies& t) {
  if (p.reg_bits == 32) {
    for_each_row(g, [&](const std::byte* bits, std::size_t n,
                        std::int32_t* exp, std::int64_t* man) {
      run32<V, P, M>(bits, n, exp, man, p, t);
    });
  } else {
    for_each_row(g, [&](const std::byte* bits, std::size_t n,
                        std::int32_t* exp, std::int64_t* man) {
      run64<V, P, M>(bits, n, exp, man, p, t);
    });
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
