// Packet-level aggregation session over the real switch pipeline:
// chunking, slot reuse, and loss recovery with switch-side dedup
// (failure-injection tests for the paper's SwitchML-style protocol layer).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "core/packed.h"
#include "switchml/session.h"
#include "util/rng.h"
#include "wave_oracle.h"
#include "testkit.h"

namespace fpisa::switchml {
namespace {

std::vector<std::vector<float>> make_workers(int w, std::size_t n,
                                             std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::vector<float>> out(static_cast<std::size_t>(w),
                                      std::vector<float>(n));
  for (auto& vec : out) {
    for (auto& v : vec) v = static_cast<float>(rng.normal(0.0, 0.1));
  }
  return out;
}

/// Same-exponent magnitudes: FPISA adds these exactly (no alignment
/// shifts), so the aggregation result is order-independent — which makes
/// any protocol-level double-count or drop exactly detectable even when
/// packet loss reorders the adds.
std::vector<std::vector<float>> make_same_exponent_workers(
    int w, std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::vector<float>> out(static_cast<std::size_t>(w),
                                      std::vector<float>(n));
  for (auto& vec : out) {
    for (auto& v : vec) {
      v = static_cast<float>((rng.next_u64() & 1 ? 1.0 : -1.0) *
                             rng.uniform(1.0, 2.0));
    }
  }
  return out;
}

std::vector<double> exact_sum(const std::vector<std::vector<float>>& w) {
  std::vector<double> ref(w.front().size(), 0.0);
  for (const auto& vec : w) {
    for (std::size_t i = 0; i < vec.size(); ++i) {
      ref[i] += static_cast<double>(vec[i]);
    }
  }
  return ref;
}

TEST(Session, LosslessReduceMatchesReference) {
  SessionOptions opts;
  opts.num_workers = 4;
  opts.slots = 16;
  opts.lanes = 2;
  AggregationSession session(pisa::SwitchConfig{}, opts);

  const auto workers = make_workers(4, 100, 60);
  const auto got = testkit::reduce(session, workers);
  const auto ref = exact_sum(workers);
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_NEAR(got[i], ref[i], std::fabs(ref[i]) * 1e-5 + 1e-7) << i;
  }
  EXPECT_EQ(session.stats().packets_lost, 0u);
  EXPECT_EQ(session.stats().retransmissions, 0u);
  // 100 elements / 2 lanes = 50 chunks in waves of 16 slots: reuse happens.
  EXPECT_GE(session.stats().slot_reuses, 50u);
}

TEST(Session, SurvivesHeavyPacketLoss) {
  SessionOptions opts;
  opts.num_workers = 4;
  opts.slots = 8;
  opts.lanes = 1;
  opts.loss_rate = 0.25;  // every 4th packet (either direction) vanishes
  opts.loss_seed = 61;
  AggregationSession session(pisa::SwitchConfig{}, opts);

  const auto workers = make_same_exponent_workers(4, 64, 62);
  const auto got = testkit::reduce(session, workers);

  // Loss + retransmission must not change the arithmetic at all: with
  // same-exponent inputs FPISA is order-independent, so the lossy run must
  // be BIT-IDENTICAL to a lossless one (double-counts would show exactly).
  SessionOptions clean = opts;
  clean.loss_rate = 0.0;
  AggregationSession lossless(pisa::SwitchConfig{}, clean);
  const auto want = testkit::reduce(lossless, workers);
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << i;
  }
  const auto ref = exact_sum(workers);
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_NEAR(got[i], ref[i], 1e-5) << i;
  }
  EXPECT_GT(session.stats().packets_lost, 0u);
  EXPECT_GT(session.stats().retransmissions, 0u);
}

TEST(Session, DuplicatesAreAbsorbedNotDoubleCounted) {
  SessionOptions opts;
  opts.num_workers = 2;
  opts.slots = 4;
  opts.loss_rate = 0.35;  // lots of lost acks => duplicates at the switch
  opts.loss_seed = 63;
  AggregationSession session(pisa::SwitchConfig{}, opts);

  const auto workers = make_same_exponent_workers(2, 32, 64);
  const auto got = testkit::reduce(session, workers);
  const auto ref = exact_sum(workers);
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_NEAR(got[i], ref[i], 1e-5) << i;
  }
  EXPECT_GT(session.stats().duplicates_absorbed, 0u);
}

TEST(Session, LossSweepAlwaysExact) {
  // Property: for any loss rate the protocol either completes with the
  // exact aggregation result or throws (never silently wrong).
  for (const double loss : {0.0, 0.05, 0.15, 0.30, 0.45}) {
    SessionOptions opts;
    opts.num_workers = 3;
    opts.slots = 4;
    opts.loss_rate = loss;
    opts.loss_seed = 65 + static_cast<std::uint64_t>(loss * 100);
    opts.max_retransmits = 256;
    AggregationSession session(pisa::SwitchConfig{}, opts);

    const auto workers = make_same_exponent_workers(3, 24, 66);
    const auto got = testkit::reduce(session, workers);
    const auto ref = exact_sum(workers);
    for (std::size_t i = 0; i < ref.size(); ++i) {
      EXPECT_NEAR(got[i], ref[i], 1e-5) << "loss=" << loss << " i=" << i;
    }
  }
}

TEST(Session, MultiWaveReusesSlotsCleanly) {
  // More chunks than slots: results from wave k must not leak into k+1.
  SessionOptions opts;
  opts.num_workers = 2;
  opts.slots = 2;  // tiny pool: 16 chunks -> 8 waves
  AggregationSession session(pisa::SwitchConfig{}, opts);

  std::vector<std::vector<float>> workers(2, std::vector<float>(16));
  for (std::size_t i = 0; i < 16; ++i) {
    workers[0][i] = static_cast<float>(i + 1);
    workers[1][i] = static_cast<float>(10 * (i + 1));
  }
  const auto got = testkit::reduce(session, workers);
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_EQ(got[i], static_cast<float>(11 * (i + 1))) << i;
  }
}

TEST(Session, BatchedAndPerPacketSubmissionAreIdentical) {
  // The session's batched waves must be observably indistinguishable from
  // the per-packet protocol oracle: identical results (bit-for-bit),
  // identical SessionStats and kernel op counts, identical switch register
  // state afterwards — including under heavy loss, where the engine
  // pre-draws the same loss schedule and queues every delivered duplicate.
  for (const double loss : {0.0, 0.2, 0.4}) {
    for (const bool rsaw : {false, true}) {
      pisa::SwitchConfig cfg;
      cfg.ext.rsaw = rsaw;
      cfg.ext.two_operand_shift = rsaw;
      SessionOptions opts;
      opts.num_workers = 3;
      opts.slots = 8;
      opts.lanes = 4;
      opts.loss_rate = loss;
      opts.loss_seed = 71 + static_cast<std::uint64_t>(loss * 10);
      opts.max_retransmits = 256;
      AggregationSession fast(cfg, opts);
      AggregationSession slow(cfg, opts);  // only its switch is used

      const auto workers = make_workers(3, 100, 72);
      const auto got = testkit::reduce(fast, workers);
      const std::vector<std::span<const float>> views(workers.begin(),
                                                      workers.end());
      std::vector<float> want(100);
      std::vector<std::size_t> chunks(25);
      std::iota(chunks.begin(), chunks.end(), std::size_t{0});
      util::Rng rng(opts.loss_seed);
      SessionStats slow_stats{};
      WaveJob job;
      job.workers = views;
      job.chunks = chunks;
      job.out = want;
      job.wave = opts.slots;
      job.loss_rate = loss;
      job.max_retransmits = opts.max_retransmits;
      job.rng = &rng;
      job.stats = &slow_stats;
      oracle::per_packet_run(slow.fpisa_switch(), job);

      for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(core::fp32_bits(got[i]), core::fp32_bits(want[i]))
            << "loss=" << loss << " rsaw=" << rsaw << " i=" << i;
      }
      EXPECT_EQ(fast.stats().packets_sent, slow_stats.packets_sent);
      EXPECT_EQ(fast.stats().packets_lost, slow_stats.packets_lost);
      EXPECT_EQ(fast.stats().retransmissions, slow_stats.retransmissions);
      EXPECT_EQ(fast.stats().duplicates_absorbed,
                slow_stats.duplicates_absorbed);
      EXPECT_EQ(fast.stats().slot_reuses, slow_stats.slot_reuses);
      EXPECT_EQ(fast.stats().ops.adds, slow.fpisa_switch().op_counters().adds);
      EXPECT_EQ(fast.stats().ops.rounded_adds,
                slow.fpisa_switch().op_counters().rounded_adds);
      EXPECT_EQ(fast.stats().ops.overwrites,
                slow.fpisa_switch().op_counters().overwrites);
      // Post-job switch state (all lane registers + bitmap + counter).
      for (int r = 0; r < 2 * 4 + 2; ++r) {
        for (std::size_t s = 0; s < 8; ++s) {
          ASSERT_EQ(fast.fpisa_switch().sim().reg(r).read(s),
                    slow.fpisa_switch().sim().reg(r).read(s))
              << "loss=" << loss << " reg=" << r << " slot=" << s;
        }
      }
    }
  }
}

TEST(Session, RejectsMalformedShapesWithTypedErrors) {
  // Release builds included: no shape check may be a Debug-only assert.
  SessionOptions opts;
  opts.num_workers = 0;
  EXPECT_THROW(AggregationSession(pisa::SwitchConfig{}, opts),
               std::invalid_argument);
  opts.num_workers = 33;  // the dedup bitmap is 32 bits wide
  EXPECT_THROW(AggregationSession(pisa::SwitchConfig{}, opts),
               std::invalid_argument);
  opts.num_workers = 32;
  EXPECT_NO_THROW(AggregationSession(pisa::SwitchConfig{}, opts));

  opts.num_workers = 3;
  opts.lanes = 2;
  AggregationSession session(pisa::SwitchConfig{}, opts);
  const std::vector<float> a(10, 1.0f), b(10, 2.0f), c(10, 3.0f), short_(7);
  std::vector<float> out(10);
  const auto run = [&](std::vector<std::span<const float>> views,
                       std::span<float> o) { session.reduce_into(views, o); };
  EXPECT_THROW(run({a, b}, out), std::invalid_argument);  // too few
  EXPECT_THROW(run({a, b, c, a}, out), std::invalid_argument);
  EXPECT_THROW(run({a, b, short_}, out), std::invalid_argument);
  EXPECT_THROW(run({short_, a, b}, out), std::invalid_argument);
  EXPECT_THROW(run({a, b, c}, std::span<float>(out).first(9)),
               std::invalid_argument);
  EXPECT_EQ(session.stats().packets_sent, 0u) << "rejected before the wire";
  run({a, b, c}, out);
  for (const float v : out) EXPECT_EQ(v, 6.0f);
}

TEST(Session, RejectsSwitchShapesTheWireCannotAddress) {
  // Release builds included. Slot ids are 16 bits on the wire: a 65,537th
  // slot would alias slot 0, whose dedup bitmap then drops its packets.
  SessionOptions opts;
  opts.num_workers = 2;
  opts.lanes = 1;
  opts.slots = 65537;
  EXPECT_THROW(AggregationSession(pisa::SwitchConfig{}, opts),
               std::invalid_argument);
  opts.slots = 0;
  EXPECT_THROW(AggregationSession(pisa::SwitchConfig{}, opts),
               std::invalid_argument);
  opts.slots = 16;
  opts.lanes = 0;
  EXPECT_THROW(AggregationSession(pisa::SwitchConfig{}, opts),
               std::invalid_argument);

  // The widest addressable pool reduces every slot, then wraps cleanly.
  opts.lanes = 1;
  opts.slots = 65536;
  AggregationSession session(pisa::SwitchConfig{}, opts);
  const std::vector<float> a(65537, 2.5f);
  std::vector<float> out(65537);
  const std::vector<std::span<const float>> views{a, a};
  session.reduce_into(views, out);
  for (const float v : out) ASSERT_EQ(v, 5.0f);
}

TEST(Session, RejectsLossParametersOutsideTheirRange) {
  // Release builds included. A NaN loss rate fails every `>= loss_rate`
  // ack test, so each reset would count as lost while the sum still came
  // back normal.
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const auto rejects = [](auto tweak) {
    SessionOptions opts;
    tweak(opts);
    EXPECT_THROW(AggregationSession(pisa::SwitchConfig{}, opts),
                 std::invalid_argument);
  };
  for (const double bad : {kNaN, kInf, -kInf, -0.1, 1.5}) {
    SCOPED_TRACE(bad);
    rejects([bad](SessionOptions& o) { o.loss_rate = bad; });
    rejects([bad](SessionOptions& o) { o.fault.corrupt_rate = bad; });
    rejects([bad](SessionOptions& o) { o.fault.reorder_rate = bad; });
    rejects([bad](SessionOptions& o) { o.fault.dup_rate = bad; });
    rejects([bad](SessionOptions& o) { o.fault.stale_dup_rate = bad; });
  }
  rejects([](SessionOptions& o) { o.max_retransmits = -1; });

  SessionOptions edge;
  edge.loss_rate = 1.0;
  edge.max_retransmits = 0;
  edge.fault.corrupt_rate = 1.0;
  EXPECT_NO_THROW(AggregationSession(pisa::SwitchConfig{}, edge));
}

TEST(SessionStatsMerge, OperatorPlusEqualsSumsEveryField) {
  SessionStats a{1, 2, 3, 4, 5};
  const SessionStats b{10, 20, 30, 40, 50};
  SessionStats& ref = (a += b);
  EXPECT_EQ(&ref, &a) << "operator+= must return *this for chaining";
  EXPECT_EQ(a.packets_sent, 11u);
  EXPECT_EQ(a.packets_lost, 22u);
  EXPECT_EQ(a.retransmissions, 33u);
  EXPECT_EQ(a.duplicates_absorbed, 44u);
  EXPECT_EQ(a.slot_reuses, 55u);
  // Merging an empty stats object is the identity.
  const SessionStats before = a;
  a += SessionStats{};
  EXPECT_EQ(a.packets_sent, before.packets_sent);
  EXPECT_EQ(a.slot_reuses, before.slot_reuses);
}

TEST(SessionStatsMerge, OpCountersRideAlongThroughMergeAndDelta) {
  SessionStats a{};
  a.packets_sent = 10;
  a.ops.adds = 7;
  a.ops.rounded_adds = 2;
  SessionStats b{};
  b.packets_sent = 5;
  b.ops.adds = 3;
  b.ops.nonfinite_inputs = 1;
  a += b;
  EXPECT_EQ(a.ops.adds, 10u);
  EXPECT_EQ(a.ops.rounded_adds, 2u);
  EXPECT_EQ(a.ops.nonfinite_inputs, 1u);
  // operator-= recovers the pre-merge snapshot exactly (this is how a
  // long-lived session attributes a single reduce out of its running
  // total; a hand-rolled field list here once silently dropped ops).
  a -= b;
  EXPECT_EQ(a.packets_sent, 10u);
  EXPECT_EQ(a.ops.adds, 7u);
  EXPECT_EQ(a.ops.nonfinite_inputs, 0u);
}

TEST(CollectSchedule, LosslessScheduleClearsEverySlotWithTwoPacketsEach) {
  util::Rng rng(300);
  SessionStats stats{};
  const CollectSchedule sched =
      draw_collect_schedule(/*n=*/17, /*loss_rate=*/0.0,
                            /*max_retransmits=*/4, &rng, stats);
  EXPECT_FALSE(sched.failure.has_value());
  EXPECT_EQ(sched.cleared, 17u);
  EXPECT_EQ(sched.delivered, 2u * 17u);  // one read + one reset per slot
  EXPECT_EQ(stats.packets_sent, 2u * 17u);
  EXPECT_EQ(stats.packets_lost, 0u);
  EXPECT_EQ(stats.slot_reuses, 17u);
}

TEST(CollectSchedule, ReadFailureReportsReadExhaustedAndClearedPrefix) {
  // Total loss with a tiny retransmit budget: the FIRST slot's read can
  // never be delivered, so failure == kReadExhausted and nothing was
  // cleared — but the doomed attempts must still be accounted as sent +
  // lost.
  util::Rng rng(301);
  SessionStats stats{};
  const CollectSchedule sched =
      draw_collect_schedule(8, /*loss_rate=*/1.0, /*max_retransmits=*/3, &rng,
                            stats);
  EXPECT_EQ(sched.failure, WaveFailure::kReadExhausted);
  EXPECT_EQ(sched.cleared, 0u);
  EXPECT_EQ(sched.delivered, 0u);
  EXPECT_EQ(stats.packets_sent, 4u);  // initial + 3 retransmits
  EXPECT_EQ(stats.packets_lost, 4u);
  EXPECT_EQ(stats.slot_reuses, 0u);
}

TEST(CollectSchedule, ResetFailureIsTypedAndCountsDeliveredRead) {
  // A loss stream crafted so the read succeeds but every reset attempt is
  // lost on the request leg: failure == kResetExhausted, the read's switch traversal is
  // still in `delivered`, and the slot is NOT counted cleared or reused.
  // Rng draw order per slot: read-request, read-ack, then per reset
  // attempt: request, [ack]. We search seeds for a stream whose first two
  // draws pass at loss 0.5 and whose next 4 request draws all fail.
  const double loss = 0.5;
  const int max_retransmits = 3;
  bool exercised = false;
  for (std::uint64_t seed = 0; seed < 4096 && !exercised; ++seed) {
    util::Rng probe(seed);
    if (probe.next_double() < loss) continue;  // read request must pass
    if (probe.next_double() < loss) continue;  // read ack must pass
    bool all_reset_requests_lost = true;
    for (int a = 0; a <= max_retransmits; ++a) {
      all_reset_requests_lost =
          all_reset_requests_lost && probe.next_double() < loss;
    }
    if (!all_reset_requests_lost) continue;

    util::Rng rng(seed);
    SessionStats stats{};
    const CollectSchedule sched =
        draw_collect_schedule(4, loss, max_retransmits, &rng, stats);
    EXPECT_EQ(sched.failure, WaveFailure::kResetExhausted);
    EXPECT_EQ(sched.cleared, 0u);
    EXPECT_EQ(sched.delivered, 1u);          // only the read reached the switch
    EXPECT_EQ(stats.packets_sent, 1u + 4u);  // 1 read + 4 doomed resets
    EXPECT_EQ(stats.packets_lost, 4u);
    EXPECT_EQ(stats.slot_reuses, 0u);
    exercised = true;
  }
  ASSERT_TRUE(exercised) << "no seed produced the reset-failure shape";
}

TEST(CollectSchedule, DeliveredCountsSwitchTraversalsNotAcks) {
  // Property sweep: for any lossy stream that completes, `delivered` must
  // equal cleared-slot resets (one physical reset each) plus every read
  // attempt that reached the switch (acks lost or not), and `cleared` must
  // equal n. Cross-check delivered against an independent replay of the
  // rng stream.
  for (const std::uint64_t seed : {41ull, 42ull, 43ull, 44ull}) {
    const double loss = 0.3;
    const int retx = 64;
    const std::size_t n = 25;
    util::Rng rng(seed);
    SessionStats stats{};
    const CollectSchedule sched =
        draw_collect_schedule(n, loss, retx, &rng, stats);
    ASSERT_FALSE(sched.failure.has_value());
    EXPECT_EQ(sched.cleared, n);

    // Independent replay of the identical protocol order.
    util::Rng replay(seed);
    std::uint64_t delivered = 0;
    std::uint64_t sent = 0;
    std::uint64_t lost = 0;
    std::uint64_t reuses = 0;
    for (std::size_t k = 0; k < n; ++k) {
      for (bool have = false; !have;) {
        ++sent;
        if (replay.next_double() < loss) {
          ++lost;
          continue;
        }
        ++delivered;
        if (replay.next_double() < loss) {
          ++lost;
          continue;
        }
        have = true;
      }
      // Resets retransmit until an ACK comes back; every delivered copy
      // re-clears the slot (harmless) and counts as a traversal + reuse.
      for (bool acked = false; !acked;) {
        ++sent;
        if (replay.next_double() < loss) {
          ++lost;
          continue;
        }
        ++delivered;
        ++reuses;
        if (replay.next_double() >= loss) {
          acked = true;
        } else {
          ++lost;
        }
      }
    }
    EXPECT_EQ(sched.delivered, delivered) << "seed " << seed;
    EXPECT_EQ(stats.packets_sent, sent) << "seed " << seed;
    EXPECT_EQ(stats.packets_lost, lost) << "seed " << seed;
    EXPECT_EQ(stats.slot_reuses, reuses) << "seed " << seed;
  }
}

TEST(Session, FullVariantOnExtendedSwitch) {
  pisa::SwitchConfig ext;
  ext.ext.two_operand_shift = true;
  ext.ext.rsaw = true;
  SessionOptions opts;
  opts.num_workers = 4;
  opts.slots = 8;
  AggregationSession session(ext, opts);

  const auto workers = make_workers(4, 40, 67);
  const auto got = testkit::reduce(session, workers);
  const auto ref = exact_sum(workers);
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_NEAR(got[i], ref[i], std::fabs(ref[i]) * 1e-5 + 1e-7) << i;
  }
}

}  // namespace
}  // namespace fpisa::switchml
