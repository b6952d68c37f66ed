// Boundary coverage for switchml::draw_collect_schedule and the wave
// retry paths: extreme loss rates (0.9+) and the max_retransmits = 0 / 1
// edges, plus the typed RetransmitExhaustedError the session raises when
// a budget runs out.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "core/packed.h"
#include "switchml/session.h"
#include "util/rng.h"
#include "testkit.h"

namespace fpisa::switchml {
namespace {

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

TEST(CollectSchedule, LosslessScheduleClearsEverySlotInTwoTraversals) {
  util::Rng rng(1);
  SessionStats stats{};
  const CollectSchedule sched =
      draw_collect_schedule(16, /*loss_rate=*/0.0, /*max_retransmits=*/0,
                            &rng, stats);
  EXPECT_FALSE(sched.failure.has_value());
  EXPECT_EQ(sched.cleared, 16u);
  EXPECT_EQ(sched.delivered, 32u);  // one read + one reset per slot
  EXPECT_EQ(stats.packets_lost, 0u);
}

TEST(CollectSchedule, RatesOutsideTheUnitIntervalThrowBeforeAnyDraw) {
  // A NaN rate would book every reset ack as lost; the schedule rejects
  // it, and a negative budget, as the session does, without drawing.
  for (const double bad : {std::nan(""), -0.1, 1.5}) {
    util::Rng rng(3);
    SessionStats stats{};
    EXPECT_THROW(draw_collect_schedule(4, bad, 2, &rng, stats),
                 std::invalid_argument)
        << bad;
    EXPECT_EQ(stats.packets_sent, 0u);
    EXPECT_EQ(rng.next_u64(), util::Rng(3).next_u64());
  }
  util::Rng rng(3);
  SessionStats stats{};
  EXPECT_THROW(draw_collect_schedule(4, 0.1, -1, &rng, stats),
               std::invalid_argument);
}

TEST(CollectSchedule, ExtremeLossInvariantsHoldAcrossSeeds) {
  for (const double loss : {0.9, 0.95, 0.99}) {
    for (const int budget : {0, 1}) {
      for (std::uint64_t seed = 0; seed < 64; ++seed) {
        util::Rng rng(seed * 1000003 + 17);
        SessionStats stats{};
        const CollectSchedule sched =
            draw_collect_schedule(8, loss, budget, &rng, stats);
        // The cleared prefix can never outrun the slot count, a failure
        // is always a read or reset exhaustion, and a failed schedule must
        // leave at least one slot uncleared.
        EXPECT_LE(sched.cleared, 8u);
        if (sched.failure) {
          EXPECT_TRUE(*sched.failure == WaveFailure::kReadExhausted ||
                      *sched.failure == WaveFailure::kResetExhausted);
          EXPECT_LT(sched.cleared, 8u);
        } else {
          EXPECT_EQ(sched.cleared, 8u);
        }
        // Traversal accounting: delivered counts only copies that reached
        // the switch; it is bounded by everything sent minus everything
        // lost.
        EXPECT_LE(sched.delivered, stats.packets_sent);
      }
    }
  }
}

TEST(CollectSchedule, ZeroBudgetAtNinetyPercentLossFailsDeterministically) {
  // Same seed -> same schedule, including the failure point: the replay
  // property the chaos harness depends on.
  const auto draw = [] {
    util::Rng rng(99);
    SessionStats stats{};
    const CollectSchedule s = draw_collect_schedule(8, 0.9, 0, &rng, stats);
    return std::tuple(s.delivered, s.cleared, s.failure, stats.packets_sent);
  };
  EXPECT_EQ(draw(), draw());
  const auto [delivered, cleared, failure, sent] = draw();
  EXPECT_TRUE(failure.has_value())
      << "0.9 loss with zero retries cannot clear 8 slots "
         "(p ~ 0.01 per slot) under this seed";
}

TEST(CollectSchedule, SessionSurvivesNinetyPercentLossWithDeepBudget) {
  SessionOptions opts;
  opts.num_workers = 3;
  opts.slots = 8;
  opts.lanes = 2;
  const auto workers = make_exact_workers(3, 48, 310);

  AggregationSession clean(pisa::SwitchConfig{}, opts);
  const auto want = testkit::reduce(clean, workers);

  opts.loss_rate = 0.9;
  opts.loss_seed = 311;
  opts.max_retransmits = 4096;  // p(fail) ~ (0.99)^4096 per packet
  AggregationSession lossy(pisa::SwitchConfig{}, opts);
  const auto got = testkit::reduce(lossy, workers);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(core::fp32_bits(got[i]), core::fp32_bits(want[i])) << i;
  }
  EXPECT_GT(lossy.stats().retransmissions, 0u);
}

TEST(CollectSchedule, ZeroRetransmitBudgetThrowsTypedAddError) {
  SessionOptions opts;
  opts.num_workers = 4;
  opts.slots = 8;
  opts.loss_rate = 0.9;
  opts.loss_seed = 312;
  opts.max_retransmits = 0;
  AggregationSession session(pisa::SwitchConfig{}, opts);
  try {
    (void)testkit::reduce(session, make_exact_workers(4, 32, 313));
    FAIL() << "expected RetransmitExhaustedError";
  } catch (const RetransmitExhaustedError& e) {
    // The typed error carries enough context to identify the packet.
    EXPECT_LT(e.slot(), 8);
    if (e.phase() == RetransmitExhaustedError::Phase::kAdd) {
      EXPECT_GE(e.worker(), 0);
      EXPECT_LT(e.worker(), 4);
    } else {
      EXPECT_EQ(e.worker(), -1);  // collect packets carry no worker
    }
  }
}

TEST(CollectSchedule, TypedErrorIsStillARuntimeErrorWithTheLegacyMessage) {
  // Callers that matched the old bare std::runtime_error (by type or by
  // message prefix) keep working.
  SessionOptions opts;
  opts.num_workers = 2;
  opts.slots = 4;
  opts.loss_rate = 0.95;
  opts.loss_seed = 314;
  opts.max_retransmits = 0;
  AggregationSession session(pisa::SwitchConfig{}, opts);
  try {
    (void)testkit::reduce(session, make_exact_workers(2, 8, 315));
    FAIL() << "expected a throw";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_TRUE(what.find("exceeded") != std::string::npos) << what;
  }
}

TEST(CollectSchedule, SingleRetransmitBoundaryIsExactWhenItSurvives) {
  // max_retransmits = 1 at light loss: find seeds where the run completes
  // AFTER using its single retry, and pin those completions to
  // bit-exactness (a schedule that survives the boundary must not
  // half-apply any wave). At 5% loss a packet dies with p ~ 0.0095, so
  // over ~64 packets roughly half the runs complete, and a completed run
  // almost surely burned at least one retry.
  SessionOptions opts;
  opts.num_workers = 2;
  opts.slots = 8;
  opts.lanes = 1;
  const auto workers = make_exact_workers(2, 16, 316);
  AggregationSession clean(pisa::SwitchConfig{}, opts);
  const auto want = testkit::reduce(clean, workers);

  opts.loss_rate = 0.05;
  opts.max_retransmits = 1;
  bool completed_with_retry = false;
  for (std::uint64_t seed = 0; seed < 64 && !completed_with_retry; ++seed) {
    opts.loss_seed = 1000 + seed;
    AggregationSession lossy(pisa::SwitchConfig{}, opts);
    try {
      const auto got = testkit::reduce(lossy, workers);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(core::fp32_bits(got[i]), core::fp32_bits(want[i])) << i;
      }
      completed_with_retry = lossy.stats().retransmissions > 0;
    } catch (const RetransmitExhaustedError&) {
      // This seed exhausted the 1-deep budget; try the next.
    }
  }
  EXPECT_TRUE(completed_with_retry)
      << "no seed in [1000,1064) completes 0.05 loss with budget 1 while "
         "using a retry -- statistically implausible, the retry path is "
         "broken";
}

}  // namespace
}  // namespace fpisa::switchml
