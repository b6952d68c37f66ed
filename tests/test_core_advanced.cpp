// Block floating point (§3.3) and Appendix A advanced operations.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "core/advanced_ops.h"
#include "core/block_fp.h"
#include "core/packed.h"
#include "util/rng.h"

namespace fpisa::core {
namespace {

// ---------------------------------------------------------------------------
// Block floating point
// ---------------------------------------------------------------------------

TEST(BlockFp, EncodeDecodeBoundedError) {
  util::Rng rng(40);
  const BlockFpFormat fmt;  // 8-bit mantissas
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<float> vals(16);
    for (auto& v : vals) v = static_cast<float>(rng.normal(0.0, 1.0));
    const BlockFp b = block_encode(vals, fmt);
    const auto back = block_decode(b, fmt);
    float max_abs = 0.0f;
    for (const float v : vals) max_abs = std::max(max_abs, std::fabs(v));
    // Quantization step = max-magnitude scale / 2^frac_bits.
    const double step = static_cast<double>(max_abs) * std::exp2(-fmt.frac_bits() + 1);
    for (std::size_t i = 0; i < vals.size(); ++i) {
      EXPECT_NEAR(back[i], vals[i], step) << i;
    }
  }
}

TEST(BlockFp, AllZeroBlock) {
  const std::vector<float> vals(8, 0.0f);
  const BlockFp b = block_encode(vals, {});
  EXPECT_EQ(b.shared_exp, 0);
  for (const auto m : b.mantissas) EXPECT_EQ(m, 0);
}

TEST(BlockFp, AccumulatorSumsBlocks) {
  util::Rng rng(41);
  const BlockFpFormat fmt;
  const std::size_t lanes = 32;
  BlockFpisaAccumulator acc(lanes, fmt);
  std::vector<double> ref(lanes, 0.0);
  double max_abs = 0.0;
  for (int w = 0; w < 8; ++w) {
    std::vector<float> vals(lanes);
    for (auto& v : vals) v = static_cast<float>(rng.normal(0.0, 0.5));
    const BlockFp b = block_encode(vals, fmt);
    const auto quant = block_decode(b, fmt);  // reference uses quantized vals
    acc.add_block(b);
    for (std::size_t i = 0; i < lanes; ++i) {
      ref[i] += quant[i];
      max_abs = std::max(max_abs, std::fabs(static_cast<double>(quant[i])));
    }
  }
  const auto out = acc.read();
  // Alignment across blocks loses at most one mantissa step per add.
  const double bound = 8.0 * max_abs * std::exp2(-fmt.frac_bits() + 1);
  for (std::size_t i = 0; i < lanes; ++i) {
    EXPECT_NEAR(out[i], ref[i], bound) << i;
  }
}

TEST(BlockFp, ApproximateVariantOverwritesOnLargeJump) {
  const BlockFpFormat fmt;
  BlockFpisaAccumulator acc(2, fmt, Variant::kApproximate, 32);
  acc.add_block(block_encode(std::vector<float>{1.0f, 1.0f}, fmt));
  // Jump of 2^30 in shared exponent: far beyond headroom -> overwrite.
  acc.add_block(block_encode(std::vector<float>{1e12f, 1e12f}, fmt));
  EXPECT_EQ(acc.counters().overwrites, 2u);  // both lanes dropped state
  const auto out = acc.read();
  EXPECT_NEAR(out[0], 1e12f, 1e10f);
}

TEST(BlockFp, AddBlockRejectsAWrongLaneCountInEveryBuild) {
  // A short block used to be read past its end in Release.
  const BlockFpFormat fmt;
  const BlockFp block = block_encode(std::vector<float>{1, 2, 3, 4}, fmt);
  BlockFpisaAccumulator acc(4, fmt);
  BlockFpisaAccumulator ref(4, fmt);
  acc.add_block(block);
  ref.add_block(block);
  EXPECT_THROW(acc.add_block(block_encode(std::vector<float>{1, 2}, fmt)),
               std::invalid_argument);
  EXPECT_THROW(
      acc.add_block(block_encode(std::vector<float>{1, 2, 3, 4, 5}, fmt)),
      std::invalid_argument);
  EXPECT_EQ(acc.counters().adds, 1u);
  EXPECT_EQ(acc.read(), ref.read());
}

// ---------------------------------------------------------------------------
// Multiplication
// ---------------------------------------------------------------------------

TEST(Multiply, ExactPowerOfTwoCases) {
  EXPECT_EQ(fp32_value(static_cast<std::uint32_t>(
                fpisa_multiply(fp32_bits(2.0f), fp32_bits(4.0f), kFp32))),
            8.0f);
  EXPECT_EQ(fp32_value(static_cast<std::uint32_t>(
                fpisa_multiply(fp32_bits(-0.5f), fp32_bits(0.25f), kFp32))),
            -0.125f);
}

TEST(Multiply, MatchesHardwareOnRandomPairs) {
  util::Rng rng(42);
  int checked = 0;
  for (int i = 0; checked < 100000 && i < 400000; ++i) {
    const auto ab = static_cast<std::uint32_t>(rng.next_u64());
    const auto bb = static_cast<std::uint32_t>(rng.next_u64());
    const FpClass ca = classify(ab, kFp32);
    const FpClass cb = classify(bb, kFp32);
    if (ca == FpClass::kInf || ca == FpClass::kNaN) continue;
    if (cb == FpClass::kInf || cb == FpClass::kNaN) continue;
    const double prod =
        static_cast<double>(fp32_value(ab)) * static_cast<double>(fp32_value(bb));
    const float expected = static_cast<float>(prod);  // RNE, like hardware
    const auto got = static_cast<std::uint32_t>(fpisa_multiply(ab, bb, kFp32));
    if (std::isnan(expected)) continue;
    // Signed zero convention can differ for underflow; compare values and
    // accept one-ulp at the subnormal boundary (double rounding).
    const float gv = fp32_value(got);
    if (expected == 0.0f) {
      EXPECT_NEAR(gv, 0.0f, 1e-44f);
    } else if (std::isinf(expected)) {
      EXPECT_TRUE(std::isinf(gv) || std::fabs(gv) > 3e38f);
    } else {
      const float ulp = std::fabs(expected) * std::exp2(-23.0f);
      EXPECT_NEAR(gv, expected, ulp) << fp32_value(ab) << "*" << fp32_value(bb);
    }
    ++checked;
  }
  EXPECT_GE(checked, 100000);
}

TEST(Multiply, InfAndNanRules) {
  const auto inf = fp32_bits(INFINITY);
  const auto zero = fp32_bits(0.0f);
  EXPECT_EQ(classify(fpisa_multiply(inf, zero, kFp32), kFp32), FpClass::kNaN);
  EXPECT_EQ(classify(fpisa_multiply(inf, fp32_bits(2.0f), kFp32), kFp32),
            FpClass::kInf);
  EXPECT_EQ(classify(fpisa_multiply(fp32_bits(NAN), fp32_bits(1.0f), kFp32),
                     kFp32),
            FpClass::kNaN);
}

TEST(Divide, ViaReciprocalWithinTwoUlp) {
  util::Rng rng(43);
  for (int i = 0; i < 50000; ++i) {
    const float a = static_cast<float>(rng.normal(0.0, 10.0));
    const float b = static_cast<float>(rng.normal(0.0, 10.0));
    if (b == 0.0f) continue;
    const float expected = a / b;
    if (!std::isfinite(expected) || expected == 0.0f) continue;
    const float got = fp32_value(static_cast<std::uint32_t>(
        fpisa_divide_via_reciprocal(fp32_bits(a), fp32_bits(b), kFp32)));
    // One extra rounding step vs true division: within 2 ulp.
    const float tol = std::fabs(expected) * std::exp2(-22.0f);
    EXPECT_NEAR(got, expected, tol) << a << "/" << b;
  }
}

// ---------------------------------------------------------------------------
// Logarithm and square root lookup tables (Appendix A.2)
// ---------------------------------------------------------------------------

TEST(Log2Table, FewerThan2048EntriesUnder1PercentError) {
  const Log2Table table(kFp32, 11);
  EXPECT_LE(table.entries(), 2048u);
  util::Rng rng(44);
  double max_abs_err = 0.0;
  for (int i = 0; i < 100000; ++i) {
    const float x = static_cast<float>(
        rng.uniform(0.5, 2.0) * std::exp2(rng.uniform_int(-30, 30)));
    const double got = table.log2(fp32_bits(x));
    const double expected = std::log2(static_cast<double>(x));
    max_abs_err = std::max(max_abs_err, std::fabs(got - expected));
  }
  // The fractional (mantissa) part of log2 carries error < 2^-11-ish;
  // the paper cites <1% — we are far inside that.
  EXPECT_LT(max_abs_err, 0.001);
}

TEST(Log2Table, ExactOnPowersOfTwo) {
  const Log2Table table(kFp32, 11);
  for (int e = -20; e <= 20; ++e) {
    const float x = std::ldexp(1.0f, e);
    EXPECT_NEAR(table.log2(fp32_bits(x)), e, 0.001) << e;
  }
}

TEST(Log2Table, HandlesSubnormals) {
  const Log2Table table(kFp32, 11);
  const float sub = 1e-41f;
  EXPECT_NEAR(table.log2(fp32_bits(sub)), std::log2(1e-41), 0.01);
}

TEST(Log2Table, RejectsZeroNegativeAndNonFiniteInEveryBuild) {
  const Log2Table table(kFp32, 11);
  for (const float x : {0.0f, -0.0f, -1.0f, -1e-41f,
                        std::numeric_limits<float>::infinity(),
                        -std::numeric_limits<float>::infinity(),
                        std::numeric_limits<float>::quiet_NaN()}) {
    EXPECT_THROW(table.log2_q16(fp32_bits(x)), std::invalid_argument) << x;
  }
  EXPECT_NO_THROW(table.log2_q16(fp32_bits(1.0f)));
  EXPECT_NO_THROW(table.log2_q16(fp32_bits(1e-41f)));  // subnormal
}

TEST(SqrtTable, RelativeErrorBounded) {
  const SqrtTable table(kFp32, 10);
  util::Rng rng(45);
  double max_rel = 0.0;
  for (int i = 0; i < 100000; ++i) {
    const float x = static_cast<float>(
        rng.uniform(0.25, 4.0) * std::exp2(2 * rng.uniform_int(-15, 15)));
    const float got =
        fp32_value(static_cast<std::uint32_t>(table.sqrt(fp32_bits(x))));
    const double expected = std::sqrt(static_cast<double>(x));
    max_rel = std::max(max_rel, std::fabs(got - expected) / expected);
  }
  EXPECT_LT(max_rel, 0.001);  // 10-bit table: ~2^-11 resolution
}

TEST(SqrtTable, OddAndEvenExponents) {
  const SqrtTable table(kFp32, 10);
  EXPECT_NEAR(fp32_value(static_cast<std::uint32_t>(table.sqrt(fp32_bits(4.0f)))),
              2.0f, 0.002f);
  EXPECT_NEAR(fp32_value(static_cast<std::uint32_t>(table.sqrt(fp32_bits(2.0f)))),
              std::sqrt(2.0f), 0.002f);
  EXPECT_NEAR(fp32_value(static_cast<std::uint32_t>(table.sqrt(fp32_bits(0.5f)))),
              std::sqrt(0.5f), 0.001f);
}

TEST(SqrtTable, EdgeCases) {
  const SqrtTable table(kFp32, 10);
  EXPECT_EQ(table.sqrt(fp32_bits(0.0f)), 0u);
  EXPECT_EQ(classify(table.sqrt(fp32_bits(-1.0f)), kFp32), FpClass::kNaN);
  EXPECT_EQ(classify(table.sqrt(fp32_bits(INFINITY)), kFp32), FpClass::kInf);
}

TEST(TableMultiplier, SmallFormatWithoutHardwareMultiplier) {
  const TableMultiplier mul(kFp16, 10);
  // Table space: within what a couple of SRAM blocks hold.
  EXPECT_LE(mul.table_entries(), 4096u);
  util::Rng rng(46);
  double max_rel = 0.0;
  for (int i = 0; i < 50000; ++i) {
    const double a = rng.uniform(0.5, 2.0) * std::exp2(rng.uniform_int(-5, 5));
    const double b = rng.uniform(0.5, 2.0) * std::exp2(rng.uniform_int(-5, 5));
    const std::uint64_t ab = encode(a, kFp16);
    const std::uint64_t bb = encode(b, kFp16);
    const double expected = decode(ab, kFp16) * decode(bb, kFp16);
    const double got = decode(mul.multiply(ab, bb), kFp16);
    if (expected == 0.0) continue;
    max_rel = std::max(max_rel, std::fabs(got - expected) / std::fabs(expected));
  }
  // log/antilog at 10-bit resolution plus FP16 quantization.
  EXPECT_LT(max_rel, 0.01);
}

TEST(TableMultiplier, SignsAndSpecials) {
  const TableMultiplier mul(kFp16, 10);
  const auto neg = encode(-1.5, kFp16);
  const auto pos = encode(2.0, kFp16);
  EXPECT_LT(decode(mul.multiply(neg, pos), kFp16), 0.0);
  EXPECT_GT(decode(mul.multiply(neg, neg), kFp16), 0.0);
  EXPECT_EQ(decode(mul.multiply(encode(0.0, kFp16), pos), kFp16), 0.0);
}

}  // namespace
}  // namespace fpisa::core
