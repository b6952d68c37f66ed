// Unit coverage for the deterministic fault engine and the guarded switch
// ingress it feeds: seeded schedules replay exactly, corruption flips
// exactly one bit (and the checksum catches it; it misses exactly the
// cancelling 2-bit flips), reordering never crosses
// a same-slot boundary, ghosts come back stale, and a wiped switch rejects
// everything stamped before the wipe.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <utility>
#include <vector>

#include "core/packed.h"
#include "fault/fault.h"
#include "pisa/fpisa_program.h"
#include "util/rng.h"
#include "testkit.h"

namespace fpisa::fault {
namespace {

std::vector<std::uint32_t> payload(std::uint32_t a, std::uint32_t b) {
  return {a, b};
}

std::span<const std::byte> bytes(const std::vector<std::uint32_t>& v) {
  return std::as_bytes(std::span(v));
}

/// Lane `l` of queued packet `i`, read through its payload descriptor.
std::uint32_t lane(const WaveQueue& queue, std::size_t i, std::size_t l) {
  std::uint32_t u;
  std::memcpy(&u, queue.payloads[i] + l * sizeof u, sizeof u);
  return u;
}

TEST(FaultEngine, SameSeedReplaysTheExactSchedule) {
  FaultOptions opts;
  opts.enabled = true;
  opts.corrupt_rate = 0.3;
  opts.dup_rate = 0.3;
  opts.stale_dup_rate = 0.2;
  opts.reorder_rate = 0.5;

  const auto run = [&opts] {
    FaultEngine engine(opts, /*stream_seed=*/42);
    WaveQueue queue(/*lanes=*/2);
    queue.guarded = true;
    engine.begin_wave(queue);
    // Queued payloads point into the inputs, which outlive the queue.
    std::vector<std::vector<std::uint32_t>> inputs;
    for (std::uint16_t slot = 0; slot < 4; ++slot) {
      for (std::uint8_t w = 0; w < 3; ++w) {
        inputs.push_back(payload(0x40000000u + slot, 0x3f800000u + w));
      }
    }
    for (std::uint16_t slot = 0; slot < 4; ++slot) {
      for (std::uint8_t w = 0; w < 3; ++w) {
        (void)engine.deliver(queue, slot, w, /*stamp=*/7,
                             bytes(inputs[slot * 3u + w]));
      }
    }
    engine.shuffle(queue);
    std::vector<std::uint64_t> fingerprint;
    for (std::size_t i = 0; i < queue.size(); ++i) {
      fingerprint.push_back((static_cast<std::uint64_t>(queue.slots[i])
                             << 40) ^
                            (static_cast<std::uint64_t>(queue.workers[i])
                             << 32) ^
                            lane(queue, i, 0) ^
                            (static_cast<std::uint64_t>(queue.checksums[i])
                             << 16));
    }
    return fingerprint;
  };
  EXPECT_EQ(run(), run());
}

TEST(FaultEngine, CorruptionFlipsExactlyOneBitAndFailsTheChecksum) {
  FaultOptions opts;
  opts.enabled = true;
  opts.corrupt_rate = 1.0;  // every delivery corrupts
  FaultEngine engine(opts, 7);
  WaveQueue queue(/*lanes=*/2);
  queue.guarded = true;
  engine.begin_wave(queue);

  const auto values = payload(0x41000000u, 0x42000000u);
  EXPECT_FALSE(engine.deliver(queue, 3, 1, /*stamp=*/5, bytes(values)));
  ASSERT_EQ(queue.size(), 1u);

  // Exactly one bit differs from the clean payload...
  const std::uint32_t d0 = lane(queue, 0, 0) ^ values[0];
  const std::uint32_t d1 = lane(queue, 0, 1) ^ values[1];
  EXPECT_EQ(std::popcount(d0) + std::popcount(d1), 1);
  // ...and the carried checksum was computed over the CLEAN payload, so it
  // cannot match the corrupted one.
  EXPECT_NE(queue.checksums[0],
            pisa::fpisa_checksum(3, 1, 5, {queue.payloads[0], 8}));
  EXPECT_EQ(queue.checksums[0], pisa::fpisa_checksum(3, 1, 5, values));
}

TEST(FaultEngine, ChecksumDetectsEverySingleBitFlip) {
  const auto values = payload(0xdeadbeefu, 0x00c0ffeeu);
  const std::uint16_t good = pisa::fpisa_checksum(9, 2, 0x00010003u, values);
  for (int lane = 0; lane < 2; ++lane) {
    for (int bit = 0; bit < 32; ++bit) {
      auto flipped = values;
      flipped[static_cast<std::size_t>(lane)] ^= 1u << bit;
      EXPECT_NE(good, pisa::fpisa_checksum(9, 2, 0x00010003u, flipped))
          << "lane " << lane << " bit " << bit;
    }
  }
}

TEST(FaultEngine, ChecksumMissesExactlyTheCancellingTwoBitFlips) {
  // The 16-bit end-around-carry fold is a sum modulo 2^16 - 1, so flipping
  // bit i from 0 to 1 and bit j from 1 to 0, with i = j (mod 16), adds
  // 2^i - 2^j = 0 to it. Every 2-bit flip of one seeded 4-lane payload:
  // the checksum misses those cancelling pairs and only those.
  util::Rng rng(0x2B17);
  std::vector<std::uint32_t> values;
  for (int l = 0; l < 4; ++l) {
    values.push_back(core::fp32_bits(static_cast<float>(rng.normal(0, 1))));
  }
  const std::uint32_t stamp = 0x00020005u;
  const std::uint16_t good = pisa::fpisa_checksum(9, 2, stamp, values);
  const auto bit = [&](int i) { return (values[i / 32] >> (i % 32)) & 1u; };
  constexpr int kBits = 4 * 32;
  int missed = 0;
  std::pair<int, int> first_miss{-1, -1};
  for (int i = 0; i < kBits; ++i) {
    for (int j = i + 1; j < kBits; ++j) {
      auto flipped = values;
      flipped[i / 32] ^= 1u << (i % 32);
      flipped[j / 32] ^= 1u << (j % 32);
      const bool cancels = i % 16 == j % 16 && bit(i) != bit(j);
      const bool caught =
          pisa::fpisa_checksum(9, 2, stamp, flipped) != good;
      EXPECT_EQ(caught, !cancels) << "bits " << i << " and " << j;
      if (!caught) {
        ++missed;
        if (first_miss.first < 0) first_miss = {i, j};
      }
    }
  }
  // Of the 8,128 pairs: per residue mod 16, k of its 8 bits set gives
  // k * (8 - k) cancelling pairs.
  EXPECT_EQ(missed, 209);

  // One such copy passes a guarded admit as a fresh contribution: the
  // switch then holds the corrupted lanes, not the sent ones.
  pisa::SwitchConfig cfg;
  cfg.ext.rsaw = true;
  cfg.ext.two_operand_shift = true;
  pisa::FpisaProgramOptions p;
  p.lanes = 4;
  p.slots = 16;
  pisa::FpisaSwitch sw(cfg, p);
  pisa::FpisaSwitch want(cfg, p);
  ASSERT_EQ(sw.slot_stamp(9), 0u);
  auto flipped = values;
  flipped[first_miss.first / 32] ^= 1u << (first_miss.first % 32);
  flipped[first_miss.second / 32] ^= 1u << (first_miss.second % 32);
  const std::vector<std::uint16_t> slots{9};
  const std::vector<std::uint8_t> workers{2};
  const std::vector<std::uint32_t> stamps{0};
  const std::vector<std::uint16_t> sums{
      pisa::fpisa_checksum(9, 2, 0, values)};
  pisa::FpisaSwitch::GuardStats guard;
  testkit::guarded_ingress(sw, slots, workers, stamps, sums, flipped, guard);
  EXPECT_EQ(guard.corrupt_rejected, 0u);
  EXPECT_EQ(guard.stale_rejected, 0u);
  EXPECT_EQ(sw.occupied_slots(), 1);
  want.add_batch(slots, workers, flipped);
  std::vector<std::uint32_t> got_sum(4);
  std::vector<std::uint32_t> want_sum(4);
  sw.read_and_reset_batch(9, 1, got_sum);
  want.read_and_reset_batch(9, 1, want_sum);
  EXPECT_EQ(got_sum, want_sum);
  EXPECT_EQ(got_sum, flipped);
  EXPECT_NE(got_sum, values);
}

TEST(FaultEngine, ReorderNeverSwapsSameSlotEntries) {
  FaultOptions opts;
  opts.enabled = true;
  opts.reorder_rate = 1.0;  // swap at every eligible boundary
  FaultEngine engine(opts, 11);
  WaveQueue queue(/*lanes=*/1);
  queue.guarded = true;
  engine.begin_wave(queue);
  // Two slots, three workers each, interleaved: per-slot arrival order is
  // worker 0, 1, 2 and must survive any amount of shuffling.
  const std::vector<std::vector<std::uint32_t>> inputs{
      {0x40000000u}, {0x40000001u}, {0x40000002u}};
  for (std::uint8_t w = 0; w < 3; ++w) {
    for (std::uint16_t slot = 0; slot < 2; ++slot) {
      ASSERT_TRUE(engine.deliver(queue, slot, w, 1, bytes(inputs[w])));
    }
  }
  engine.shuffle(queue);
  std::vector<std::uint8_t> order0, order1;
  for (std::size_t i = 0; i < queue.size(); ++i) {
    (queue.slots[i] == 0 ? order0 : order1).push_back(queue.workers[i]);
  }
  EXPECT_EQ(order0, (std::vector<std::uint8_t>{0, 1, 2}));
  EXPECT_EQ(order1, (std::vector<std::uint8_t>{0, 1, 2}));
}

TEST(FaultEngine, GhostsComeBackInALaterWaveWithTheOldStamp) {
  FaultOptions opts;
  opts.enabled = true;
  opts.stale_dup_rate = 1.0;  // capture a ghost of every delivery
  FaultEngine engine(opts, 13);
  WaveQueue queue(/*lanes=*/1);
  queue.guarded = true;

  engine.begin_wave(queue);
  const std::vector<std::uint32_t> v{0x41800000u};
  ASSERT_TRUE(engine.deliver(queue, 5, 2, /*stamp=*/3, bytes(v)));
  EXPECT_EQ(queue.size(), 1u);
  queue.clear();

  // The ghost is "in flight" until a LATER wave begins.
  engine.begin_wave(queue);
  ASSERT_GE(queue.size(), 1u);
  EXPECT_EQ(queue.slots[0], 5);
  EXPECT_EQ(queue.workers[0], 2);
  EXPECT_EQ(queue.stamps[0], 3u);  // stamped at capture time: stale now
}

TEST(FaultEngine, WorkerSilenceAndWipeSchedules) {
  FaultOptions opts;
  opts.enabled = true;
  opts.dead_worker = 1;
  opts.dead_worker_wave = 2;
  opts.wipe_switch = true;
  opts.wipe_wave = 1;
  FaultEngine engine(opts, 17);

  EXPECT_FALSE(engine.worker_silent(1, 0));
  EXPECT_FALSE(engine.worker_silent(1, 1));
  EXPECT_TRUE(engine.worker_silent(1, 2));
  EXPECT_TRUE(engine.worker_silent(1, 7));
  EXPECT_FALSE(engine.worker_silent(0, 7));

  EXPECT_FALSE(engine.should_wipe(0));
  EXPECT_TRUE(engine.should_wipe(1));
  EXPECT_FALSE(engine.should_wipe(1)) << "wipe is one-shot";
  EXPECT_FALSE(engine.should_wipe(2));
}

TEST(GuardedIngress, WipeBumpsGenerationAndRejectsPreWipeStamps) {
  pisa::SwitchConfig cfg;
  cfg.ext.rsaw = true;  // full FPISA needs the RSAW extension
  cfg.ext.two_operand_shift = true;
  pisa::FpisaProgramOptions p;
  p.lanes = 1;
  p.slots = 4;
  pisa::FpisaSwitch sw(cfg, p);

  const std::uint32_t stamp = sw.slot_stamp(2);
  const std::vector<std::uint16_t> slots{2};
  const std::vector<std::uint8_t> workers{0};
  const std::vector<std::uint32_t> values{core::fp32_bits(3.0f)};
  const std::vector<std::uint32_t> stamps{stamp};
  const std::vector<std::uint16_t> sums{
      pisa::fpisa_checksum(2, 0, stamp, values)};

  pisa::FpisaSwitch::GuardStats guard;
  testkit::guarded_ingress(sw, slots, workers, stamps, sums, values, guard);
  EXPECT_EQ(guard.corrupt_rejected, 0u);
  EXPECT_EQ(guard.stale_rejected, 0u);
  EXPECT_EQ(sw.occupied_slots(), 1);

  sw.wipe_state();
  EXPECT_EQ(sw.occupied_slots(), 0);
  EXPECT_NE(sw.slot_stamp(2), stamp) << "generation must distinguish eras";

  // A post-reboot arrival of the pre-wipe packet must be rejected, not
  // silently folded into the fresh sums.
  guard = {};
  testkit::guarded_ingress(sw, slots, workers, stamps, sums, values, guard);
  EXPECT_EQ(guard.stale_rejected, 1u);
  EXPECT_EQ(sw.occupied_slots(), 0);
}

}  // namespace
}  // namespace fpisa::fault
