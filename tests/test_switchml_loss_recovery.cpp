// Focused loss-recovery coverage for switchml::AggregationSession: lossy
// runs converge bit-exactly, the retransmission/duplicate counters obey
// their protocol invariants, and retransmit exhaustion fails loudly
// instead of silently dropping a chunk.
#include <gtest/gtest.h>

#include <stdexcept>

#include "core/packed.h"
#include "switchml/session.h"
#include "util/rng.h"
#include "testkit.h"

namespace fpisa::switchml {
namespace {

/// One-binade integer magnitudes: every FPISA add is exact, so any
/// protocol-level double-count or drop shows up as a bit difference.
std::vector<std::vector<float>> make_exact_workers(int w, std::size_t n,
                                                   std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::vector<float>> out(static_cast<std::size_t>(w),
                                      std::vector<float>(n));
  for (auto& vec : out) {
    for (auto& v : vec) v = static_cast<float>(256 + rng.next_below(256));
  }
  return out;
}

TEST(LossRecovery, LossyRunIsBitExactVsLossless) {
  SessionOptions opts;
  opts.num_workers = 8;
  opts.slots = 8;
  opts.lanes = 2;
  const auto workers = make_exact_workers(8, 80, 110);

  AggregationSession clean(pisa::SwitchConfig{}, opts);
  const auto want = testkit::reduce(clean, workers);

  opts.loss_rate = 0.2;
  opts.loss_seed = 111;
  AggregationSession lossy(pisa::SwitchConfig{}, opts);
  const auto got = testkit::reduce(lossy, workers);

  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(fpisa::core::fp32_bits(got[i]), fpisa::core::fp32_bits(want[i]))
        << i;
  }
  EXPECT_GT(lossy.stats().packets_lost, 0u);
}

TEST(LossRecovery, StatsObeyProtocolInvariants) {
  for (const double loss : {0.1, 0.3, 0.5}) {
    SessionOptions opts;
    opts.num_workers = 4;
    opts.slots = 4;
    opts.loss_rate = loss;
    opts.loss_seed = 112 + static_cast<std::uint64_t>(loss * 10);
    opts.max_retransmits = 512;
    AggregationSession session(pisa::SwitchConfig{}, opts);
    (void)testkit::reduce(session, make_exact_workers(4, 32, 113));

    const SessionStats& s = session.stats();
    // Every retransmission is itself a sent packet.
    EXPECT_LT(s.retransmissions, s.packets_sent) << "loss=" << loss;
    // At most one loss is charged per send attempt.
    EXPECT_LE(s.packets_lost, s.packets_sent) << "loss=" << loss;
    // A duplicate needs a prior successful delivery AND a retransmission.
    EXPECT_LE(s.duplicates_absorbed, s.retransmissions) << "loss=" << loss;
    // Loss must actually have been exercised at these rates.
    EXPECT_GT(s.packets_lost, 0u) << "loss=" << loss;
    EXPECT_GT(s.retransmissions, 0u) << "loss=" << loss;
    // Each slot is recycled at least once per completed wave.
    EXPECT_GE(s.slot_reuses, 32u / opts.slots) << "loss=" << loss;
  }
}

TEST(LossRecovery, NoLossMeansNoRecoveryTraffic) {
  SessionOptions opts;
  opts.num_workers = 3;
  opts.slots = 8;
  AggregationSession session(pisa::SwitchConfig{}, opts);
  (void)testkit::reduce(session, make_exact_workers(3, 48, 114));
  EXPECT_EQ(session.stats().packets_lost, 0u);
  EXPECT_EQ(session.stats().retransmissions, 0u);
  EXPECT_EQ(session.stats().duplicates_absorbed, 0u);
  // sends = chunks * (workers add + read + reset), no extras
  EXPECT_EQ(session.stats().packets_sent, 48u * (3u + 2u));
}

TEST(LossRecovery, RetransmitExhaustionThrowsOnAdds) {
  SessionOptions opts;
  opts.num_workers = 2;
  opts.slots = 4;
  opts.loss_rate = 1.0;  // the network is gone
  opts.max_retransmits = 3;
  AggregationSession session(pisa::SwitchConfig{}, opts);
  EXPECT_THROW((void)testkit::reduce(session, make_exact_workers(2, 8, 115)),
               std::runtime_error);
  // Every attempt was spent before giving up: first chunk's first worker
  // sent 1 + max_retransmits packets, all lost.
  EXPECT_EQ(session.stats().packets_sent, 4u);
  EXPECT_EQ(session.stats().packets_lost, 4u);
  EXPECT_EQ(session.stats().retransmissions, 3u);
}

TEST(LossRecovery, ExtremeLossStillConvergesWithEnoughRetries) {
  SessionOptions opts;
  opts.num_workers = 2;
  opts.slots = 2;
  opts.loss_rate = 0.6;
  opts.loss_seed = 116;
  opts.max_retransmits = 4096;
  AggregationSession session(pisa::SwitchConfig{}, opts);
  const auto workers = make_exact_workers(2, 12, 117);
  const auto got = testkit::reduce(session, workers);
  for (std::size_t i = 0; i < got.size(); ++i) {
    const double ref = static_cast<double>(workers[0][i]) +
                       static_cast<double>(workers[1][i]);
    EXPECT_EQ(static_cast<double>(got[i]), ref) << i;
  }
  EXPECT_GT(session.stats().duplicates_absorbed, 0u);
}

}  // namespace
}  // namespace fpisa::switchml
