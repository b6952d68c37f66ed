// Utility substrate: deterministic RNG, streaming stats, histograms,
// table rendering.
#include <gtest/gtest.h>

#include <cmath>
#include <thread>

#include "util/cpus.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"

namespace fpisa::util {
namespace {

TEST(UsableCpus, BetweenOneAndTheOnlineCount) {
  // The affinity mask can only narrow the online CPUs.
  const int cpus = usable_cpus();
  EXPECT_GE(cpus, 1);
  const auto online = static_cast<int>(std::thread::hardware_concurrency());
  if (online > 0) {
    EXPECT_LE(cpus, online);
  }
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.next_u64(), b.next_u64());
  }
  Rng c(43);
  EXPECT_NE(Rng(42).next_u64(), c.next_u64());
}

TEST(Rng, BernoulliCutDecidesExactlyAsNextDouble) {
  // next_bernoulli(bernoulli_cut(p)) and next_double() < p see the same
  // draw and must agree on every one, at the rates the wire uses, at
  // exact multiples of 2^-53 and one ulp either side, and at the edges.
  const double k = 0x1.0p-53;
  const double rates[] = {0.0,   0.01,  0.001,         0.5,
                          0.999, 1.0,   1.5,           -0.25,
                          k,     3 * k, std::nextafter(3 * k, 1.0),
                          std::nextafter(3 * k, 0.0),  0x1.0p-1074,
                          std::nextafter(1.0, 0.0),    std::nan("")};
  for (const double p : rates) {
    const std::uint64_t cut = Rng::bernoulli_cut(p);
    Rng a(7);
    Rng b(7);
    for (int i = 0; i < 20000; ++i) {
      ASSERT_EQ(a.next_bernoulli(cut), b.next_double() < p)
          << "p=" << p << " draw " << i;
    }
  }
  // The boundary itself: draw k * 2^-53 passes for p just above it only.
  EXPECT_EQ(Rng::bernoulli_cut(3 * k), 3u);
  EXPECT_EQ(Rng::bernoulli_cut(std::nextafter(3 * k, 1.0)), 4u);
  EXPECT_EQ(Rng::bernoulli_cut(std::nan("")), 0u);
  EXPECT_EQ(Rng::bernoulli_cut(2.0), std::uint64_t{1} << 53);
}

TEST(Rng, UniformBoundsRespected) {
  Rng rng(1);
  for (int i = 0; i < 100000; ++i) {
    const double d = rng.next_double();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    const auto v = rng.next_below(17);
    ASSERT_LT(v, 17u);
    const auto s = rng.uniform_int(-5, 5);
    ASSERT_GE(s, -5);
    ASSERT_LE(s, 5);
  }
}

TEST(Rng, UniformIntCoversEndpoints) {
  Rng rng(2);
  bool lo = false;
  bool hi = false;
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.uniform_int(0, 3);
    lo = lo || v == 0;
    hi = hi || v == 3;
  }
  EXPECT_TRUE(lo);
  EXPECT_TRUE(hi);
}

TEST(Rng, NormalHasExpectedMoments) {
  Rng rng(3);
  RunningStats stats;
  for (int i = 0; i < 200000; ++i) stats.add(rng.normal(2.0, 3.0));
  EXPECT_NEAR(stats.mean(), 2.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 3.0, 0.05);
}

TEST(Rng, ShuffleIsAPermutation) {
  Rng rng(4);
  std::vector<int> v{0, 1, 2, 3, 4, 5, 6, 7};
  rng.shuffle(v.data(), v.size());
  std::vector<int> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(RunningStats, TracksMinMaxCount) {
  RunningStats s;
  for (const double x : {3.0, -1.0, 4.0, 1.5}) s.add(x);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.min(), -1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_NEAR(s.mean(), 1.875, 1e-12);
}

TEST(Log2Histogram, BucketsAndFractions) {
  Log2Histogram h(0, 10);
  h.add(1.5);    // bucket [2^0, 2^1)
  h.add(3.0);    // [2^1, 2^2)
  h.add(200.0);  // [2^7, 2^8)
  h.add(0.0);    // underflow bucket
  EXPECT_EQ(h.total(), 4u);
  EXPECT_NEAR(h.fraction_below_pow2(4), 0.75, 1e-12);  // 1.5, 3.0, and 0
  EXPECT_NEAR(h.fraction_below_pow2(8), 1.0, 1e-12);
}

TEST(Percentiles, MedianAndTails) {
  Percentiles p;
  for (int i = 1; i <= 100; ++i) p.add(i);
  EXPECT_NEAR(p.median(), 50.0, 1.0);
  EXPECT_NEAR(p.percentile(0.9), 90.0, 1.0);
  EXPECT_NEAR(p.percentile(0.0), 1.0, 1e-12);
}

TEST(Percentiles, EmptyReturnsZeroForEveryQuantile) {
  Percentiles p;
  EXPECT_DOUBLE_EQ(p.percentile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(p.median(), 0.0);
  EXPECT_DOUBLE_EQ(p.percentile(1.0), 0.0);
}

TEST(Percentiles, SingleSampleAnswersEveryQuantile) {
  Percentiles p;
  p.add(7.5);
  EXPECT_DOUBLE_EQ(p.percentile(0.0), 7.5);
  EXPECT_DOUBLE_EQ(p.median(), 7.5);
  EXPECT_DOUBLE_EQ(p.percentile(0.99), 7.5);
  EXPECT_DOUBLE_EQ(p.percentile(1.0), 7.5);
}

TEST(Percentiles, NearestRankRounding) {
  // idx = floor(q*(n-1) + 0.5): nearest rank, ties round up.
  Percentiles p;
  for (double v : {1.0, 2.0, 3.0, 4.0}) p.add(v);
  EXPECT_DOUBLE_EQ(p.percentile(0.0), 1.0);   // idx 0
  EXPECT_DOUBLE_EQ(p.percentile(0.5), 3.0);   // idx 2.0 exactly
  EXPECT_DOUBLE_EQ(p.percentile(1.0), 4.0);   // idx 3, clamped in range
  Percentiles two;
  two.add(10.0);
  two.add(20.0);
  EXPECT_DOUBLE_EQ(two.median(), 20.0);  // idx 0.5+0.5 = 1: upper of the pair
}

TEST(Reservoir, EmptyAndCountVsSampleSize) {
  Reservoir r(4);
  EXPECT_EQ(r.count(), 0u);
  EXPECT_EQ(r.sample_size(), 0u);
  EXPECT_DOUBLE_EQ(r.percentile(0.5), 0.0);
  for (int i = 0; i < 100; ++i) r.add(i);
  // count() keeps the full stream length; the sample stays capped.
  EXPECT_EQ(r.count(), 100u);
  EXPECT_EQ(r.sample_size(), 4u);
}

TEST(Reservoir, CapacityOneAlwaysHoldsOneStreamElement) {
  Reservoir r(1);
  for (int i = 0; i < 50; ++i) r.add(10.0 * i);
  EXPECT_EQ(r.sample_size(), 1u);
  const double kept = r.percentile(0.5);
  // Whatever survived, it came from the stream.
  EXPECT_GE(kept, 0.0);
  EXPECT_LE(kept, 490.0);
  EXPECT_DOUBLE_EQ(std::fmod(kept, 10.0), 0.0);
}

TEST(Reservoir, ZeroCapacityIsClampedToOne) {
  Reservoir r(0);
  r.add(3.0);
  r.add(4.0);
  EXPECT_EQ(r.count(), 2u);
  EXPECT_EQ(r.sample_size(), 1u);
}

TEST(Reservoir, SameSeedSameStreamSameSample) {
  Reservoir a(8, 77);
  Reservoir b(8, 77);
  for (int i = 0; i < 1000; ++i) {
    a.add(i * 0.5);
    b.add(i * 0.5);
  }
  EXPECT_EQ(a.sorted_samples(), b.sorted_samples());
}

TEST(Reservoir, UnderCapacityKeepsEverySample) {
  Reservoir r(128);
  for (int i = 1; i <= 10; ++i) r.add(i);
  EXPECT_EQ(r.sample_size(), 10u);
  EXPECT_DOUBLE_EQ(r.percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(r.percentile(1.0), 10.0);
}

TEST(Table, RendersAlignedCells) {
  Table t({"A", "Bee"});
  t.add_row({"1", "22"});
  t.add_row({"333"});  // short row padded
  const std::string s = t.render();
  EXPECT_NE(s.find("| A "), std::string::npos);
  EXPECT_NE(s.find("| 333 "), std::string::npos);
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::pct(0.1234, 1), "12.3%");
}

TEST(AsciiBars, ScalesToMaximum) {
  const std::string s =
      ascii_bars({{"a", 1.0}, {"b", 0.5}}, 10);
  EXPECT_NE(s.find("##########"), std::string::npos);  // full bar for max
  EXPECT_NE(s.find("#####"), std::string::npos);
}

}  // namespace
}  // namespace fpisa::util
