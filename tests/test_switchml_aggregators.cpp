// Gradient aggregation strategies (§5): SwitchML quantized baseline vs
// FPISA variants.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <stdexcept>
#include <vector>

#include "switchml/aggregator.h"
#include "util/rng.h"
#include "testkit.h"

namespace fpisa::switchml {
namespace {

std::vector<std::vector<float>> gradient_like(int workers, std::size_t n,
                                              std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::vector<float>> w(static_cast<std::size_t>(workers),
                                    std::vector<float>(n));
  // Per-element base magnitude with narrow cross-worker spread (§5.1).
  for (std::size_t i = 0; i < n; ++i) {
    const double base = rng.lognormal(-4.0, 1.5);
    for (auto& vec : w) {
      const double wob = std::exp2(rng.uniform(-2.0, 2.0));
      vec[i] = static_cast<float>((rng.next_u64() & 1 ? 1 : -1) * base * wob);
    }
  }
  return w;
}

TEST(Aggregators, ExactMatchesManualDoubleSum) {
  const auto w = gradient_like(8, 128, 1);
  ExactAggregator exact;
  const auto sum = testkit::reduce(exact, w);
  for (std::size_t i = 0; i < 128; ++i) {
    double ref = 0;
    for (const auto& v : w) ref += static_cast<double>(v[i]);
    EXPECT_FLOAT_EQ(sum[i], static_cast<float>(ref));
  }
}

TEST(Aggregators, SwitchMlQuantizationErrorBounded) {
  const auto w = gradient_like(8, 4096, 2);
  ExactAggregator exact;
  SwitchMlAggregator swml(256);
  const auto ref = testkit::reduce(exact, w);
  const auto got = testkit::reduce(swml, w);
  // Quantization resolution: chunk max scaled to ~30-4 bits.
  for (std::size_t i = 0; i < ref.size(); ++i) {
    const float tol = std::max(1e-7f, std::fabs(ref[i]) * 1e-4f) + 1e-6f;
    EXPECT_NEAR(got[i], ref[i], tol) << i;
  }
  // One exponent-exchange round trip per chunk: the protocol overhead
  // FPISA eliminates (§5.2.3).
  EXPECT_EQ(swml.extra_round_trips(), 4096u / 256u);
}

TEST(Aggregators, FpisaTracksExactWithinToleranceAndCountsEvents) {
  const auto w = gradient_like(8, 4096, 3);
  ExactAggregator exact;
  const auto ref = testkit::reduce(exact, w);
  for (const auto variant : {core::Variant::kFull, core::Variant::kApproximate}) {
    core::AccumulatorConfig cfg;
    cfg.variant = variant;
    FpisaAggregator agg(cfg);
    const auto got = testkit::reduce(agg, w);
    for (std::size_t i = 0; i < ref.size(); ++i) {
      const float tol = std::max(std::fabs(ref[i]), 1e-4f) * 1e-3f;
      EXPECT_NEAR(got[i], ref[i], tol) << i;
    }
    EXPECT_EQ(agg.counters().adds, 8u * 4096u);
  }
}

TEST(Aggregators, FpisaAOverwriteEventsAreRareOnGradientData) {
  // §5.2.1: overwrite (<0.9%) and left-shift (<0.1%) events are rare for
  // gradient-like distributions.
  const auto w = gradient_like(8, 8192, 4);
  core::AccumulatorConfig cfg;
  cfg.variant = core::Variant::kApproximate;
  FpisaAggregator agg(cfg);
  (void)testkit::reduce(agg, w);
  const auto& c = agg.counters();
  EXPECT_LT(static_cast<double>(c.overwrites) / c.adds, 0.009);
  EXPECT_LT(static_cast<double>(c.lshift_overflows) / c.adds, 0.001);
}

TEST(Aggregators, RejectMalformedShapesInEveryBuild) {
  // Release builds included: a view longer than `out` used to write past
  // `out` (or past ExactAggregator's double accumulator).
  std::vector<std::unique_ptr<GradientAggregator>> aggs;
  aggs.push_back(std::make_unique<ExactAggregator>());
  aggs.push_back(std::make_unique<FloatSumAggregator>());
  aggs.push_back(std::make_unique<PackedSumAggregator>(core::kFp16));
  aggs.push_back(std::make_unique<SwitchMlAggregator>());
  aggs.push_back(std::make_unique<FpisaAggregator>());
  const std::vector<float> a(8, 1.0f), b(8, 2.0f), long_(12, 3.0f);
  std::vector<float> out(8);
  for (const auto& agg : aggs) {
    SCOPED_TRACE(agg->name());
    const auto run = [&](std::vector<std::span<const float>> views,
                         std::span<float> o) { agg->reduce(views, o); };
    EXPECT_THROW(run({}, out), std::invalid_argument);
    EXPECT_THROW(run({a, long_}, out), std::invalid_argument);
    EXPECT_THROW(run({long_, a}, out), std::invalid_argument);
    EXPECT_THROW(run({long_}, out), std::invalid_argument);
    EXPECT_THROW(run({a, b}, std::span<float>(out).first(7)),
                 std::invalid_argument);
    run({a, b}, out);
    for (const float v : out) EXPECT_EQ(v, 3.0f);
  }
}

TEST(Aggregators, PackedFp16SumLosesMorePrecisionThanFpisaFp16) {
  // Host-side FP16 chained summation re-rounds every partial; FPISA's wide
  // mantissa register defers that, so its FP16 aggregation is at least as
  // accurate on average.
  const auto w = gradient_like(8, 2048, 5);
  ExactAggregator exact;
  PackedSumAggregator host16(core::kFp16);
  core::AccumulatorConfig cfg16;
  cfg16.format = core::kFp16;
  cfg16.reg_bits = 32;   // wide accumulation register
  cfg16.guard_bits = 4;  // Appendix A.1: guard digits enable better rounding
  cfg16.read_rounding = core::Rounding::kNearestEven;
  FpisaAggregator fpisa16(cfg16);

  const auto ref = testkit::reduce(exact, w);
  const auto host = testkit::reduce(host16, w);
  const auto fp = testkit::reduce(fpisa16, w);
  double host_err = 0;
  double fp_err = 0;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    host_err += std::fabs(static_cast<double>(host[i]) - ref[i]);
    fp_err += std::fabs(static_cast<double>(fp[i]) - ref[i]);
  }
  EXPECT_LE(fp_err, host_err * 1.05);
}

TEST(Aggregators, AllAgreeOnZeroVectors) {
  const std::vector<std::vector<float>> w(8, std::vector<float>(64, 0.0f));
  ExactAggregator exact;
  SwitchMlAggregator swml;
  FpisaAggregator fpisa;
  for (const float v : testkit::reduce(exact, w)) EXPECT_EQ(v, 0.0f);
  for (const float v : testkit::reduce(swml, w)) EXPECT_EQ(v, 0.0f);
  for (const float v : testkit::reduce(fpisa, w)) EXPECT_EQ(v, 0.0f);
}

TEST(Aggregators, SingleWorkerIsIdentity) {
  util::Rng rng(6);
  std::vector<std::vector<float>> w(1, std::vector<float>(256));
  for (auto& v : w[0]) v = static_cast<float>(rng.normal(0, 0.1));
  FpisaAggregator fpisa;
  const auto got = testkit::reduce(fpisa, w);
  for (std::size_t i = 0; i < 256; ++i) EXPECT_EQ(got[i], w[0][i]);
}

}  // namespace
}  // namespace fpisa::switchml
