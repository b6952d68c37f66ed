// FPISA / FPISA-A accumulator semantics (paper §3.2, §3.3, §4.3).
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/accumulator.h"
#include "core/vector_accumulator.h"
#include "util/rng.h"
#include "testkit.h"

namespace fpisa::core {
namespace {

AccumulatorConfig full_cfg() { return {}; }
AccumulatorConfig approx_cfg() {
  AccumulatorConfig c;
  c.variant = Variant::kApproximate;
  return c;
}

TEST(Accumulator, PaperRunningExample) {
  // Fig 4: 3.0 + 1.0 = 4.0 via denormalized intermediate 0b10.0 x 2^1.
  for (const auto& cfg : {full_cfg(), approx_cfg()}) {
    FpisaAccumulator acc(cfg);
    acc.add(3.0f);
    acc.add(1.0f);
    // Intermediate state: exponent register still 128 (2^1), mantissa
    // denormalized 0b10.0...0 (1 << 24).
    EXPECT_EQ(acc.state().exp, 128);
    EXPECT_EQ(acc.state().man, std::int64_t{1} << 24);
    EXPECT_EQ(acc.read(), 4.0f);
  }
}

TEST(Accumulator, ReadIsStatelessAndRepeatable) {
  FpisaAccumulator acc;
  acc.add(3.0f);
  acc.add(1.0f);
  const FpState before = acc.state();
  EXPECT_EQ(acc.read(), 4.0f);
  EXPECT_EQ(acc.state().exp, before.exp);
  EXPECT_EQ(acc.state().man, before.man);
  EXPECT_EQ(acc.read(), 4.0f);  // delayed renorm never mutates the register
}

TEST(Accumulator, SingleValueIdentity) {
  util::Rng rng(10);
  for (const auto& cfg : {full_cfg(), approx_cfg()}) {
    for (int i = 0; i < 100000; ++i) {
      const auto bits = static_cast<std::uint32_t>(rng.next_u64());
      const FpClass c = classify(bits, kFp32);
      if (c == FpClass::kInf || c == FpClass::kNaN) continue;
      FpisaAccumulator acc(cfg);
      acc.add_bits(bits);
      const float in = fp32_value(bits);
      const float out = acc.read();
      if (in == 0.0f) {
        EXPECT_EQ(out, 0.0f);
      } else {
        EXPECT_EQ(out, in) << "bits=" << bits;
      }
    }
  }
}

TEST(Accumulator, ExactWhenExponentsEqual) {
  // Same-exponent adds never shift, so results are exact integers scaled.
  FpisaAccumulator acc;
  for (int i = 0; i < 100; ++i) acc.add(1.0f);
  EXPECT_EQ(acc.read(), 100.0f);
  EXPECT_EQ(acc.counters().rounded_adds, 0u);
}

TEST(Accumulator, SignedAdditionAndCancellation) {
  FpisaAccumulator acc;
  acc.add(5.5f);
  acc.add(-2.25f);
  EXPECT_EQ(acc.read(), 3.25f);
  acc.add(-3.25f);
  EXPECT_EQ(acc.read(), 0.0f);
  // After cancellation the exponent register still holds the old scale;
  // subsequent adds must align against it (hardware-faithful).
  acc.add(1.0f);
  EXPECT_EQ(acc.read(), 1.0f);
}

TEST(Accumulator, ZeroInputsAreNoOps) {
  for (const auto& cfg : {full_cfg(), approx_cfg()}) {
    FpisaAccumulator acc(cfg);
    acc.add(0.0f);
    acc.add(-0.0f);
    EXPECT_EQ(acc.read(), 0.0f);
    acc.add(42.5f);
    acc.add(0.0f);
    EXPECT_EQ(acc.read(), 42.5f);
    EXPECT_EQ(acc.counters().zero_inputs, 3u);
  }
}

TEST(Accumulator, NonFiniteInputsFlaggedAndSkipped) {
  FpisaAccumulator acc;
  acc.add(1.0f);
  acc.add(INFINITY);
  acc.add(-INFINITY);
  acc.add(NAN);
  EXPECT_EQ(acc.read(), 1.0f);
  EXPECT_EQ(acc.counters().nonfinite_inputs, 3u);
}

TEST(Accumulator, HeadroomAbsorbs128MaxMantissaAdds) {
  // §3.3: 7 headroom bits hold 128 same-exponent max-mantissa additions.
  FpisaAccumulator acc;
  const float max_man = std::nextafterf(2.0f, 0.0f);  // 1.11...1 x 2^0
  for (int i = 0; i < 128; ++i) acc.add(max_man);
  EXPECT_EQ(acc.counters().saturations, 0u);
  const double expected = 128.0 * static_cast<double>(max_man);
  EXPECT_NEAR(static_cast<double>(acc.read()), expected, expected * 1e-6);
  // The 129th addition overflows the register and is flagged.
  acc.add(max_man);
  EXPECT_EQ(acc.counters().saturations, 1u);
}

TEST(Accumulator, OverflowPolicyWrapMatchesTwosComplement) {
  AccumulatorConfig cfg;
  cfg.overflow = OverflowPolicy::kWrap;
  FpisaAccumulator acc(cfg);
  const float max_man = std::nextafterf(2.0f, 0.0f);
  for (int i = 0; i < 129; ++i) acc.add(max_man);
  EXPECT_EQ(acc.counters().saturations, 1u);
  // Wrapped state is negative (sign bit reached), exactly as hardware would.
  EXPECT_LT(acc.state().man, 0);
}

TEST(Accumulator, FullVariantAlignsStoredMantissaRight) {
  // Stored 1.0 (exp 127); add 2^30: full FPISA right-shifts the stored
  // mantissa by 30 — it vanishes (round toward -inf) leaving exactly 2^30.
  FpisaAccumulator acc;
  acc.add(1.0f);
  acc.add(std::ldexp(1.0f, 30));
  EXPECT_EQ(acc.read(), std::ldexp(1.0f, 30));
  EXPECT_EQ(acc.state().exp, 127 + 30);
  EXPECT_GE(acc.counters().rounded_adds, 1u);
}

TEST(Accumulator, FullVariantKeepsPrecisionWithinRegister) {
  // 2^6 and 1.0 differ by 6: both fit in the 31 magnitude bits, sum exact.
  FpisaAccumulator acc;
  acc.add(1.0f);
  acc.add(64.0f);
  EXPECT_EQ(acc.read(), 65.0f);
  EXPECT_EQ(acc.counters().rounded_adds, 0u);
}

TEST(AccumulatorA, LeftShiftWithinHeadroomIsExact) {
  // FPISA-A: incoming value with exponent +7 over stored still adds exactly
  // (left-shift into headroom, §4.3).
  FpisaAccumulator acc(approx_cfg());
  acc.add(1.0f);
  acc.add(128.0f);  // d = 7 == headroom
  EXPECT_EQ(acc.read(), 129.0f);
  EXPECT_EQ(acc.counters().overwrites, 0u);
  EXPECT_EQ(acc.state().exp, 127);  // exponent register unchanged
}

TEST(AccumulatorA, OverwriteBeyondHeadroom) {
  // d = 8 > 7: the stored small value is dropped entirely.
  FpisaAccumulator acc(approx_cfg());
  acc.add(1.0f);
  acc.add(256.0f);
  EXPECT_EQ(acc.read(), 256.0f);  // overwrite error: 1.0 ignored
  EXPECT_EQ(acc.counters().overwrites, 1u);
  EXPECT_EQ(acc.state().exp, 127 + 8);
}

TEST(AccumulatorA, OverwriteErrorIsBounded) {
  // The overwrite drops at most 2^-headroom of the surviving value.
  util::Rng rng(11);
  for (int i = 0; i < 20000; ++i) {
    const float small = static_cast<float>(rng.uniform(0.5, 1.0));
    const float big =
        static_cast<float>(rng.uniform(0.5, 1.0) * std::exp2(rng.uniform_int(9, 20)));
    FpisaAccumulator acc(approx_cfg());
    acc.add(small);
    acc.add(big);
    const double err = std::fabs(static_cast<double>(acc.read()) -
                                 (static_cast<double>(small) + big));
    // Dropped value < 2^-8 ratio of big (d >= 9 here): bounded by |small|.
    EXPECT_LE(err, static_cast<double>(small) + big * 1e-6);
  }
}

TEST(AccumulatorA, FirstWriteIntoEmptyRegisterIsNotAnOverwriteError) {
  FpisaAccumulator acc(approx_cfg());
  acc.add(1e20f);
  EXPECT_EQ(acc.counters().overwrites, 0u);
  EXPECT_EQ(acc.read(), 1e20f);
}

TEST(AccumulatorA, NarrowExponentRangeNeverTriggersApproximationErrors) {
  // §5.1: gradient-like data (element-wise max/min ratio < 2^7) never takes
  // FPISA-A's overwrite path, and both variants track the true sum tightly.
  util::Rng rng(12);
  for (int trial = 0; trial < 2000; ++trial) {
    FpisaAccumulator full(full_cfg());
    FpisaAccumulator approx(approx_cfg());
    const int base = static_cast<int>(rng.uniform_int(-10, 10));
    double ref = 0.0;
    double max_abs = 0.0;
    for (int i = 0; i < 8; ++i) {
      // Magnitude in [0.5, 1) * 2^(base + [0,3]): element ratio <= 2^4 and
      // the 8-value sum still fits the register headroom even when the
      // first (exponent-pinning) value is the smallest.
      const float v = static_cast<float>(
          rng.uniform(0.5, 1.0) * std::exp2(base + rng.uniform_int(0, 3)));
      full.add(v);
      approx.add(v);
      ref += static_cast<double>(v);
      max_abs = std::max(max_abs, static_cast<double>(v));
    }
    EXPECT_EQ(approx.counters().overwrites, 0u) << "trial " << trial;
    EXPECT_EQ(approx.counters().lshift_overflows, 0u) << "trial " << trial;
    const double bound = 8.0 * max_abs * std::exp2(-23);
    EXPECT_NEAR(static_cast<double>(full.read()), ref, bound);
    EXPECT_NEAR(static_cast<double>(approx.read()), ref, bound);
  }
}

TEST(AccumulatorA, ApproximateIsExactWithinHeadroomWhereFullRounds) {
  // Within headroom FPISA-A left-shifts the *incoming* mantissa (exact),
  // while full FPISA right-shifts the *stored* one (rounds): the
  // approximation is locally more precise — the paper's reason the error
  // analysis focuses on overwrite, not left-shift, events.
  FpisaAccumulator full(full_cfg());
  FpisaAccumulator approx(approx_cfg());
  const float small = 1.0f + std::exp2(-23.0f);  // odd low bit
  for (auto* acc : {&full, &approx}) {
    acc->add(small);
    acc->add(64.0f);  // d = 6 <= headroom
  }
  const double ref = static_cast<double>(small) + 64.0;
  EXPECT_EQ(static_cast<double>(approx.read_value()), ref);
  EXPECT_LE(static_cast<double>(full.read_value()), ref);
}

TEST(Accumulator, SumAccuracyVsDoubleReference) {
  // Aggregating n values of similar magnitude: FPISA error stays within
  // n * one-alignment-ulp of the double-precision sum.
  util::Rng rng(13);
  for (const auto& cfg : {full_cfg(), approx_cfg()}) {
    for (int trial = 0; trial < 500; ++trial) {
      FpisaAccumulator acc(cfg);
      double ref = 0.0;
      double max_abs = 0.0;
      const int n = 64;
      for (int i = 0; i < n; ++i) {
        // Similar magnitudes (exponent spread 2): FPISA-A never overwrites
        // and the register headroom absorbs the 64-value sum.
        const float v = static_cast<float>((rng.next_u64() & 1 ? 1.0 : -1.0) *
                                           rng.uniform(0.5, 2.0));
        acc.add(v);
        ref += static_cast<double>(v);
        max_abs = std::max(max_abs, std::fabs(static_cast<double>(v)));
      }
      // One alignment step loses < 2^-23 of the largest operand magnitude.
      const double bound = n * max_abs * std::exp2(-23) + 1e-30;
      EXPECT_NEAR(static_cast<double>(acc.read()), ref, bound);
    }
  }
}

TEST(Accumulator, ReproducibleAcrossPermutationsOfEqualExponents) {
  // Appendix A.1: same multiset of same-exponent values => same result in
  // any order (alignment never loses bits when exponents match).
  util::Rng rng(14);
  std::vector<float> vals;
  for (int i = 0; i < 32; ++i) {
    vals.push_back(static_cast<float>(rng.uniform(1.0, 2.0)));
  }
  FpisaAccumulator a;
  for (const float v : vals) a.add(v);
  for (int shuffle = 0; shuffle < 20; ++shuffle) {
    rng.shuffle(vals.data(), vals.size());
    FpisaAccumulator b;
    for (const float v : vals) b.add(v);
    EXPECT_EQ(a.read_bits(), b.read_bits());
  }
}

TEST(Accumulator, DeterministicReproducibility) {
  // Same sequence => bit-identical result, run twice (Appendix A.1).
  util::Rng rng(15);
  std::vector<float> vals;
  for (int i = 0; i < 1000; ++i) {
    vals.push_back(static_cast<float>(rng.normal(0.0, 1.0) *
                                      std::exp2(rng.uniform_int(-20, 20))));
  }
  for (const auto& cfg : {full_cfg(), approx_cfg()}) {
    FpisaAccumulator a(cfg);
    FpisaAccumulator b(cfg);
    for (const float v : vals) a.add(v);
    for (const float v : vals) b.add(v);
    EXPECT_EQ(a.read_bits(), b.read_bits());
  }
}

TEST(Accumulator, GuardBitsReduceRoundingError) {
  // Guard bits keep fractional weight through alignment shifts
  // (Appendix A.1). Note guard bits trade away headroom, so the workload
  // here is sized to fit reg_bits - significand - guard growth bits.
  util::Rng rng(16);
  double err_plain = 0.0;
  double err_guard = 0.0;
  std::uint64_t saturations = 0;
  for (int trial = 0; trial < 500; ++trial) {
    AccumulatorConfig plain;
    AccumulatorConfig guard;
    guard.guard_bits = 2;
    guard.read_rounding = Rounding::kNearestEven;
    FpisaAccumulator a(plain);
    FpisaAccumulator b(guard);
    double ref = 0.0;
    for (int i = 0; i < 16; ++i) {
      const float v = static_cast<float>(rng.uniform(0.5, 2.0));
      a.add(v);
      b.add(v);
      ref += static_cast<double>(v);
    }
    err_plain += std::fabs(static_cast<double>(a.read()) - ref);
    err_guard += std::fabs(static_cast<double>(b.read()) - ref);
    saturations += b.counters().saturations;
  }
  EXPECT_EQ(saturations, 0u);
  EXPECT_LT(err_guard, err_plain);
}

TEST(Accumulator, RoundTowardNegativeInfinitySemantics) {
  // Appendix A.1: no guard digits + two's complement = round toward -inf.
  // Adding a tiny negative value to a large positive one must round down.
  FpisaAccumulator acc;
  acc.add(std::ldexp(1.0f, 10));  // 1024
  acc.add(-std::ldexp(1.0f, -20));
  // True sum is just below 1024; round-to--inf must not return 1024.
  EXPECT_LT(acc.read(), 1024.0f);
  // And adding a tiny positive is dropped (floor).
  FpisaAccumulator acc2;
  acc2.add(std::ldexp(1.0f, 10));
  acc2.add(std::ldexp(1.0f, -20));
  EXPECT_EQ(acc2.read(), 1024.0f);
}

// ---------------------------------------------------------------------------
// Parameterized format sweep: every supported format obeys the same
// invariants with its own widths.
// ---------------------------------------------------------------------------

struct FormatCase {
  const FloatFormat* fmt;
  Variant variant;
};

class FormatSweep : public ::testing::TestWithParam<FormatCase> {};

TEST_P(FormatSweep, SingleValueIdentity) {
  const auto [fmt, variant] = GetParam();
  AccumulatorConfig cfg;
  cfg.format = *fmt;
  cfg.variant = variant;
  util::Rng rng(17);
  const std::uint64_t mask = fmt->total_bits == 64
                                 ? ~std::uint64_t{0}
                                 : (std::uint64_t{1} << fmt->total_bits) - 1;
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t bits = rng.next_u64() & mask;
    const FpClass c = classify(bits, *fmt);
    if (c == FpClass::kInf || c == FpClass::kNaN) continue;
    FpisaAccumulator acc(cfg);
    acc.add_bits(bits);
    if (c == FpClass::kZero) {
      EXPECT_EQ(acc.read_bits(), 0u);
    } else {
      EXPECT_EQ(acc.read_bits(), bits) << fmt->name;
    }
  }
}

TEST_P(FormatSweep, HeadroomBoundary) {
  const auto [fmt, variant] = GetParam();
  AccumulatorConfig cfg;
  cfg.format = *fmt;
  cfg.variant = variant;
  const int h = cfg.headroom();
  ASSERT_GT(h, 0) << fmt->name;
  // 2^h same-scale max-mantissa adds must not overflow; one more must.
  FpisaAccumulator acc(cfg);
  const std::uint64_t max_man_bits =
      (static_cast<std::uint64_t>(fmt->bias()) << fmt->man_bits) |
      fmt->man_mask();
  const int n = 1 << h;
  for (int i = 0; i < n; ++i) acc.add_bits(max_man_bits);
  EXPECT_EQ(acc.counters().saturations, 0u) << fmt->name;
  acc.add_bits(max_man_bits);
  EXPECT_EQ(acc.counters().saturations, 1u) << fmt->name;
}

TEST_P(FormatSweep, SumTracksDoubleReference) {
  const auto [fmt, variant] = GetParam();
  AccumulatorConfig cfg;
  cfg.format = *fmt;
  cfg.variant = variant;
  util::Rng rng(18);
  for (int trial = 0; trial < 200; ++trial) {
    FpisaAccumulator acc(cfg);
    double ref = 0.0;
    double max_abs = 0.0;
    const int n = std::min(1 << cfg.headroom(), 32);
    for (int i = 0; i < n; ++i) {
      // Narrow magnitude range so FPISA-A never takes the overwrite path
      // (wide ranges are covered by the dedicated overwrite tests).
      const double v = (rng.next_u64() & 1 ? 1.0 : -1.0) * rng.uniform(0.5, 1.0);
      const std::uint64_t b = encode(v, *fmt);
      const double q = decode(b, *fmt);  // quantized input
      acc.add_bits(b);
      ref += q;
      max_abs = std::max(max_abs, std::fabs(q));
    }
    const double bound =
        n * max_abs * std::exp2(-fmt->man_bits) + std::exp2(-fmt->bias());
    EXPECT_NEAR(decode(acc.read_bits(), *fmt), ref, bound) << fmt->name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllFormats, FormatSweep,
    ::testing::Values(FormatCase{&kFp32, Variant::kFull},
                      FormatCase{&kFp32, Variant::kApproximate},
                      FormatCase{&kFp16, Variant::kFull},
                      FormatCase{&kFp16, Variant::kApproximate},
                      FormatCase{&kBf16, Variant::kFull},
                      FormatCase{&kBf16, Variant::kApproximate},
                      FormatCase{&kFp64, Variant::kFull},
                      FormatCase{&kFp64, Variant::kApproximate}),
    [](const auto& info) {
      return std::string(info.param.fmt->name) +
             (info.param.variant == Variant::kFull ? "_full" : "_approx");
    });

// ---------------------------------------------------------------------------
// Vector accumulator
// ---------------------------------------------------------------------------

TEST(FpisaVector, MatchesScalarElementwise) {
  util::Rng rng(19);
  const std::size_t n = 257;
  FpisaVector vec(n);
  std::vector<FpisaAccumulator> scalars(n);
  for (int w = 0; w < 8; ++w) {
    std::vector<float> vals(n);
    for (auto& v : vals) {
      v = static_cast<float>(rng.normal(0.0, 0.1));
    }
    vec.add(vals);
    for (std::size_t i = 0; i < n; ++i) scalars[i].add(vals[i]);
  }
  std::vector<float> out(n);
  vec.read(out);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(out[i], scalars[i].read()) << i;
  }
}

TEST(FpisaVector, AggregateHelper) {
  util::Rng rng(20);
  std::vector<std::vector<float>> workers(8, std::vector<float>(64));
  std::vector<double> ref(64, 0.0);
  for (auto& w : workers) {
    for (std::size_t i = 0; i < w.size(); ++i) {
      w[i] = static_cast<float>(rng.normal(0.0, 0.01));
      ref[i] += static_cast<double>(w[i]);
    }
  }
  const auto r = testkit::reduce(workers);
  ASSERT_EQ(r.sum.size(), 64u);
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_NEAR(static_cast<double>(r.sum[i]), ref[i], 1e-6);
  }
  EXPECT_EQ(r.counters.adds, 8u * 64u);
}

TEST(FpisaVector, AggregateIntoRejectsMalformedShapesInEveryBuild) {
  // Release builds included: a view longer than `out` used to write past
  // the accumulator.
  const std::vector<float> a(8, 1.0f), long_(12, 2.0f);
  std::vector<float> out(8);
  using Views = std::vector<std::span<const float>>;
  EXPECT_THROW(aggregate_into(Views{}, out), std::invalid_argument);
  EXPECT_THROW(aggregate_into(Views{a, long_}, out), std::invalid_argument);
  EXPECT_THROW(aggregate_into(Views{long_}, out), std::invalid_argument);
  EXPECT_THROW(aggregate_into(Views{a}, std::span<float>(out).first(7)),
               std::invalid_argument);
  EXPECT_THROW(testkit::reduce(testkit::Workers{}), std::invalid_argument);
  (void)aggregate_into(Views{a, a}, out);
  for (const float v : out) EXPECT_EQ(v, 2.0f);
}

TEST(FpisaVector, RejectsWrongSizedSpansInEveryBuild) {
  // A wrong-sized span used to read or write past the register file in
  // Release (the checks were Debug asserts).
  FpisaVector vec(4);
  const std::vector<float> three(3, 1.0f);
  const std::vector<std::uint64_t> five(5, 0);
  std::vector<float> out3(3);
  std::vector<std::uint64_t> out5(5);
  EXPECT_THROW(vec.add(three), std::invalid_argument);
  EXPECT_THROW(vec.add_bits(five), std::invalid_argument);
  EXPECT_THROW(vec.read(out3), std::invalid_argument);
  EXPECT_THROW(vec.read_bits(out5), std::invalid_argument);
  EXPECT_EQ(vec.counters().adds, 0u);

  // add() reads its floats as packed FP32; other formats go via add_bits.
  AccumulatorConfig fp16;
  fp16.format = kFp16;
  FpisaVector half(4, fp16);
  const std::vector<float> four(4, 1.0f);
  EXPECT_THROW(half.add(four), std::invalid_argument);
}

TEST(FpisaVector, ResetClearsStateAndCounters) {
  FpisaVector vec(4);
  const std::vector<float> vals{1.0f, 2.0f, 3.0f, 4.0f};
  vec.add(vals);
  vec.reset();
  std::vector<float> out(4);
  vec.read(out);
  for (const float v : out) EXPECT_EQ(v, 0.0f);
  EXPECT_EQ(vec.counters().adds, 0u);
}

TEST(FpisaVector, NonFp32FormatsViaBits) {
  AccumulatorConfig cfg;
  cfg.format = kFp16;
  std::vector<std::vector<float>> workers(4, std::vector<float>(16, 0.25f));
  const auto r = testkit::reduce(workers, cfg);
  for (const float v : r.sum) EXPECT_EQ(v, 1.0f);
}

}  // namespace
}  // namespace fpisa::core
