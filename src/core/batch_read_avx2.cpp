// AVX2 backend for fpisa_read_batch and fpisa_read_scatter: a literal
// translation of the branchless read primitive in batch_lane.h into vector
// selects, run once per run of rows with adjacent destinations, the values
// stored with storeu to bytes at any alignment. Two lane widths, picked by
// the register width: the generic four 64-bit lanes per iteration, and an
// 8-lane 32-bit specialization (mirroring the add kernel's gather32) for
// registers of <= 32 bits, where every in-invariant mantissa fits an
// int32. This translation unit is compiled with -mavx2 (and only when
// FPISA_ENABLE_AVX2 is on); callers reach it solely through the
// runtime-dispatched read entry points, which check CPU support first.
//
// AVX2 has no 64-bit lzcnt; the leading-one position comes from the
// classic smear-then-popcount identity: OR-smearing the leading 1 down
// turns u into 2^(p+1) - 1, whose popcount is p+1. The per-lane popcount
// is the pshufb nibble-LUT trick summed across each 64-bit lane with
// vpsadbw (the 32-bit kernel reads the position off an int-to-float
// conversion instead). Shift-count clamping mirrors the scalar primitive: vpsrlvq
// already yields 0 for counts >= 64 (the reference's "drop everything"
// rule), and negative counts are masked to 0 (the reference's "keep u"
// rule) before the shift. LaneMode::kSwitch (batch_lane.h) selects the
// signed zero instead of the truncated subnormal in the subnormal range.
// A read-and-reset clears each block's registers as soon as it has loaded
// them, so the registers are walked once, not read and then filled.
#include "core/batch_accumulator.h"

#if defined(FPISA_HAVE_AVX2)

#include <immintrin.h>

#include "core/batch_lane.h"

namespace fpisa::core::detail {
namespace {

inline __m256i set1(std::int64_t v) { return _mm256_set1_epi64x(v); }

inline __m256i blend(__m256i a, __m256i b, __m256i mask) {
  return _mm256_blendv_epi8(a, b, mask);  // mask lanes are all-ones/zeros
}

/// Packs 8 x int64 (two 256-bit halves, values known to fit int32) into
/// one 8 x int32 vector.
inline __m256i pack_man32(__m256i lo, __m256i hi) {
  const __m256i idx = _mm256_setr_epi32(0, 2, 4, 6, 0, 2, 4, 6);
  return _mm256_permute2x128_si256(_mm256_permutevar8x32_epi32(lo, idx),
                                   _mm256_permutevar8x32_epi32(hi, idx),
                                   0x20);  // low(lo) | low(hi)
}

/// Clears `n` (4 or 8) register pairs the caller has already loaded: the
/// read-and-reset's clear rides the read instead of a second pass.
inline void clear_block(std::int32_t* exp, std::int64_t* man, std::size_t n) {
  const __m256i z = _mm256_setzero_si256();
  for (std::size_t j = 0; j < n; j += 4) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(man + j), z);
  }
  if (n == 8) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(exp), z);
  } else {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(exp), _mm_setzero_si128());
  }
}

/// Leading-one position + 1 per 64-bit lane (0 for a zero lane).
inline __m256i leading_one_pos_plus1(__m256i u) {
  u = _mm256_or_si256(u, _mm256_srli_epi64(u, 1));
  u = _mm256_or_si256(u, _mm256_srli_epi64(u, 2));
  u = _mm256_or_si256(u, _mm256_srli_epi64(u, 4));
  u = _mm256_or_si256(u, _mm256_srli_epi64(u, 8));
  u = _mm256_or_si256(u, _mm256_srli_epi64(u, 16));
  u = _mm256_or_si256(u, _mm256_srli_epi64(u, 32));
  const __m256i lut = _mm256_setr_epi8(  // popcount of each nibble
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i nib = _mm256_set1_epi8(0x0F);
  const __m256i lo = _mm256_and_si256(u, nib);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi64(u, 4), nib);
  const __m256i cnt = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                                      _mm256_shuffle_epi8(lut, hi));
  return _mm256_sad_epu8(cnt, _mm256_setzero_si256());
}

// --- specialized 8-lane kernel for registers of <= 32 bits -----------------
// When the mantissa register is at most 32 bits wide (the default FP32
// config), every stored mantissa the add path can produce fits an int32 and
// the whole renormalize runs in native 32-bit SIMD: twice the lanes of the
// generic kernel, srlv/sllv counts >= 32 already drop every bit (the same
// clamp the reference's >= 64 rule reduces to for values < 2^32), and the
// leading one comes from the hardware's own int-to-float normalize. Raw
// synthesized states can violate the register invariant (|man| beyond
// int32, exponents near the int32 rim where `se + p - 23 - guard` could
// wrap); such 8-blocks fall back to the scalar primitive, keeping the
// kernel bit-exact on ANY input, not just add-reachable states.

/// Leading-one position per 32-bit lane of u as an unsigned value (any
/// result for a zero lane, which the caller selects out). Clearing every
/// set bit whose next-higher bit is set keeps the leading one and clears
/// the bit below it, so the int-to-float conversion cannot round up into
/// the next binade; the float's exponent field is then the position. The
/// conversion reads u as signed: u = 2^31 (the folded INT32_MIN) becomes
/// -2^31, whose exponent field is the same 31 + 127 once the sign is
/// shifted out.
inline __m256i leading_one_pos_32(__m256i u) {
  const __m256i top = _mm256_andnot_si256(_mm256_srli_epi32(u, 1), u);
  const __m256i f = _mm256_castps_si256(_mm256_cvtepi32_ps(top));
  return _mm256_sub_epi32(_mm256_srli_epi32(_mm256_slli_epi32(f, 1), 24),
                          _mm256_set1_epi32(127));
}

template <LaneMode M, bool Reset>
inline void read_run_32(std::int32_t* exp, std::int64_t* man, std::byte* out,
                        std::size_t n, int guard) {
  const __m256i k_zero = _mm256_setzero_si256();
  const __m256i k_one = _mm256_set1_epi32(1);
  const __m256i k_bias = _mm256_set1_epi32(23 + guard);
  const __m256i k_23 = _mm256_set1_epi32(23);
  const __m256i k_254 = _mm256_set1_epi32(254);
  const __m256i k_sign32 = _mm256_set1_epi32(
      static_cast<std::int32_t>(0x80000000u));
  const __m256i k_frac_mask = _mm256_set1_epi32(0x7FFFFF);
  const __m256i k_inf = _mm256_set1_epi32(0x7F800000);
  // `se + p - 23 - guard` must not wrap an int32 lane; the add path keeps
  // exponents within [1, 254 + guard], so 2^24 is pure safety margin.
  const __m256i k_exp_bias = _mm256_set1_epi32(1 << 24);
  const __m256i k_man_bias = _mm256_set1_epi64x(std::int64_t{1} << 31);

  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i man_lo =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(man + i));
    const __m256i man_hi =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(man + i + 4));
    const __m256i se =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(exp + i));

    // Invariant gate: every mantissa must lie in [-2^31, 2^31) (biased by
    // 2^31, its high word is zero) and every exponent in [-2^24, 2^24)
    // (biased by 2^24, nothing above bit 24) — an unsigned range test on
    // the biased value, so INT32_MIN / INT64_MIN cannot slip through —
    // else the block takes the scalar primitive (raw synthesized states
    // only; add-path states always pass).
    const __m256i out_of_range = _mm256_or_si256(
        _mm256_or_si256(
            _mm256_srli_epi64(_mm256_add_epi64(man_lo, k_man_bias), 32),
            _mm256_srli_epi64(_mm256_add_epi64(man_hi, k_man_bias), 32)),
        _mm256_srli_epi32(_mm256_add_epi32(se, k_exp_bias), 25));
    if (!_mm256_testz_si256(out_of_range, out_of_range)) {
      lane_read_range<M, Reset>(exp + i, man + i, out + i * 4, 8, guard);
      continue;
    }
    if (Reset) clear_block(exp + i, man + i, 8);
    const __m256i sm = pack_man32(man_lo, man_hi);

    // Sign fold: |sm| via (sm ^ mask) - mask; INT32_MIN wraps to 2^31
    // unsigned, exactly like the scalar primitive's 64-bit fold.
    const __m256i neg = _mm256_srai_epi32(sm, 31);
    const __m256i u = _mm256_sub_epi32(_mm256_xor_si256(sm, neg), neg);
    const __m256i sign = _mm256_and_si256(neg, k_sign32);

    // CLZ renormalize: p = leading-one position, shift to bit 23.
    const __m256i p = leading_one_pos_32(u);
    const __m256i norm_exp =
        _mm256_sub_epi32(_mm256_add_epi32(se, p), k_bias);
    const __m256i shift = _mm256_sub_epi32(p, k_23);

    // Subnormal result: total shift clamped at 0 below; vpsrlvd drops every
    // bit for counts >= 32, which matches the reference's rule for any
    // value that fits 32 bits. The switch flushes it to signed zero.
    __m256i sub_bits = sign;
    if (M == LaneMode::kAccumulator) {
      const __m256i ts =
          _mm256_add_epi32(_mm256_sub_epi32(shift, norm_exp), k_one);
      const __m256i tsc = _mm256_max_epi32(ts, k_zero);
      sub_bits = _mm256_or_si256(sign, _mm256_srlv_epi32(u, tsc));
    }

    // Normal result: right or left shift selected by the sign of `shift`
    // (the unselected variant's out-of-range count yields 0 natively).
    const __m256i shift_neg = _mm256_cmpgt_epi32(k_zero, shift);
    const __m256i sig = blend(
        _mm256_srlv_epi32(u, shift),
        _mm256_sllv_epi32(u, _mm256_sub_epi32(k_zero, shift)), shift_neg);
    const __m256i norm_bits = _mm256_or_si256(
        _mm256_or_si256(sign, _mm256_slli_epi32(norm_exp, 23)),
        _mm256_and_si256(sig, k_frac_mask));

    // Select: zero register -> +0; overflow -> ±inf; subnormal range ->
    // truncated subnormal; else normal pack.
    const __m256i is_zero = _mm256_cmpeq_epi32(sm, k_zero);
    const __m256i is_ovf = _mm256_cmpgt_epi32(norm_exp, k_254);
    const __m256i is_sub = _mm256_cmpgt_epi32(k_one, norm_exp);
    __m256i bits = blend(norm_bits, sub_bits, is_sub);
    bits = blend(bits, _mm256_or_si256(sign, k_inf), is_ovf);
    bits = _mm256_andnot_si256(is_zero, bits);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i * 4), bits);
  }
  lane_read_range<M, Reset>(exp + i, man + i, out + i * 4, n - i, guard);
}

template <LaneMode M, bool Reset>
inline void read_run_64(std::int32_t* exp, std::int64_t* man, std::byte* out,
                        std::size_t n, int guard) {
  const __m256i k_zero = _mm256_setzero_si256();
  const __m256i k_one = set1(1);
  const __m256i k_bias = set1(23 + guard);  // norm_exp = se + p - 23 - guard
  const __m256i k_23 = set1(23);
  const __m256i k_254 = set1(254);
  const __m256i k_sign32 = set1(0x80000000LL);
  const __m256i k_frac_mask = set1(0x7FFFFF);
  const __m256i k_inf = set1(0x7F800000LL);

  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i se = _mm256_cvtepi32_epi64(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(exp + i)));
    const __m256i sm =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(man + i));
    if (Reset) clear_block(exp + i, man + i, 4);

    // Sign fold: |sm| via (sm ^ mask) - mask; INT64_MIN negates correctly
    // through the unsigned wrap, exactly like the scalar primitive.
    const __m256i neg = _mm256_cmpgt_epi64(k_zero, sm);
    const __m256i u = _mm256_sub_epi64(_mm256_xor_si256(sm, neg), neg);
    const __m256i sign = _mm256_and_si256(neg, k_sign32);

    // CLZ renormalize: p = leading-one position, shift to bit 23.
    const __m256i p =
        _mm256_sub_epi64(leading_one_pos_plus1(u), k_one);  // -1 for u==0
    const __m256i norm_exp = _mm256_sub_epi64(_mm256_add_epi64(se, p), k_bias);
    const __m256i shift = _mm256_sub_epi64(p, k_23);

    // Subnormal result: total shift clamped at 0 below (vpsrlvq handles the
    // >= 64 clamp natively by returning 0). The switch flushes it to
    // signed zero.
    __m256i sub_bits = sign;
    if (M == LaneMode::kAccumulator) {
      const __m256i ts =
          _mm256_add_epi64(_mm256_sub_epi64(shift, norm_exp), k_one);
      const __m256i tsc =
          _mm256_andnot_si256(_mm256_cmpgt_epi64(k_zero, ts), ts);
      sub_bits = _mm256_or_si256(sign, _mm256_srlv_epi64(u, tsc));
    }

    // Normal result: right or left shift selected by the sign of `shift`.
    const __m256i shift_neg = _mm256_cmpgt_epi64(k_zero, shift);
    const __m256i sig = blend(
        _mm256_srlv_epi64(u, shift),
        _mm256_sllv_epi64(u, _mm256_sub_epi64(k_zero, shift)), shift_neg);
    const __m256i norm_bits = _mm256_or_si256(
        _mm256_or_si256(sign, _mm256_slli_epi64(norm_exp, 23)),
        _mm256_and_si256(sig, k_frac_mask));

    // Select: zero register -> +0; overflow -> ±inf; subnormal range ->
    // truncated subnormal; else normal pack.
    const __m256i is_zero = _mm256_cmpeq_epi64(sm, k_zero);
    const __m256i is_ovf = _mm256_cmpgt_epi64(norm_exp, k_254);
    const __m256i is_sub = _mm256_cmpgt_epi64(k_one, norm_exp);
    __m256i bits = blend(norm_bits, sub_bits, is_sub);
    bits = blend(bits, _mm256_or_si256(sign, k_inf), is_ovf);
    bits = _mm256_andnot_si256(is_zero, bits);

    // Narrow the 4x int64 results (each fits 32 bits) to 4x uint32.
    const __m256i packed = _mm256_permutevar8x32_epi32(
        bits, _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i * 4),
                     _mm256_castsi256_si128(packed));
  }
  lane_read_range<M, Reset>(exp + i, man + i, out + i * 4, n - i, guard);
}

template <LaneMode M, bool Reset>
void read_width(const ScatterBatch& s, int guard, int reg_bits) {
  // The read dataflow never consults the register width — it only bounds
  // the values the add path can have stored. <= 32 bits means every
  // in-invariant mantissa fits an int32, unlocking the 8-lane kernel.
  if (reg_bits <= 32) {
    for_each_run(s, [guard](std::int32_t* exp, std::int64_t* man,
                            std::byte* out, std::size_t n) {
      read_run_32<M, Reset>(exp, man, out, n, guard);
    });
  } else {
    for_each_run(s, [guard](std::int32_t* exp, std::int64_t* man,
                            std::byte* out, std::size_t n) {
      read_run_64<M, Reset>(exp, man, out, n, guard);
    });
  }
}

template <LaneMode M>
void read_mode(const ScatterBatch& s, int guard, int reg_bits) {
  if (s.reset) {
    read_width<M, true>(s, guard, reg_bits);
  } else {
    read_width<M, false>(s, guard, reg_bits);
  }
}

}  // namespace

void read_scatter_avx2(const ScatterBatch& s, int guard, int reg_bits,
                       LaneMode mode) {
  if (mode == LaneMode::kSwitch) {
    read_mode<LaneMode::kSwitch>(s, guard, reg_bits);
  } else {
    read_mode<LaneMode::kAccumulator>(s, guard, reg_bits);
  }
}

}  // namespace fpisa::core::detail

#endif  // FPISA_HAVE_AVX2
