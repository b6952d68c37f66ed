// The one wave engine against its oracles (tests/wave_oracle.h): the
// per-packet SwitchML protocol, and the tree's interleaved per-slot loop.
// Bit-identical results, every SessionStats field, the switches' kernel
// operation counters, packet counts and post-job register state. The
// tree's closed-form fabric timing against its event-queue replay. And the
// one wave order: each wave's add and collect windows tile. A session's
// 16-slot ranges against the per-range oracle (one per_packet_run per
// range), its loss books against the global-stream oracle in
// distribution, and two sessions' switch books under concurrent ranges.
// And the process's shared datapath pool: sessions and trees start no
// thread of their own, and objects reducing through it at once each get
// their single-caller results.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "cluster/hierarchy.h"
#include "cluster/mailbox.h"
#include "core/packed.h"
#include "switchml/session.h"
#include "switchml/wave_engine.h"
#include "telemetry/metrics.h"
#include "testkit.h"
#include "util/rng.h"
#include "wave_oracle.h"

namespace fpisa {
namespace {

using switchml::SessionStats;
using testkit::process_threads;

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

void expect_stats_eq(const SessionStats& got, const SessionStats& want) {
  EXPECT_EQ(got.packets_sent, want.packets_sent);
  EXPECT_EQ(got.packets_lost, want.packets_lost);
  EXPECT_EQ(got.retransmissions, want.retransmissions);
  EXPECT_EQ(got.duplicates_absorbed, want.duplicates_absorbed);
  EXPECT_EQ(got.slot_reuses, want.slot_reuses);
  EXPECT_EQ(got.faults.corrupt_rejected, want.faults.corrupt_rejected);
  EXPECT_EQ(got.faults.stale_dups_rejected, want.faults.stale_dups_rejected);
  EXPECT_EQ(got.faults.epoch_bumps, want.faults.epoch_bumps);
  EXPECT_EQ(got.faults.workers_declared_dead,
            want.faults.workers_declared_dead);
  EXPECT_EQ(got.faults.waves_replayed, want.faults.waves_replayed);
}

void expect_ops_eq(const core::OpCounters& got, const core::OpCounters& want) {
  EXPECT_EQ(got.adds, want.adds);
  EXPECT_EQ(got.rounded_adds, want.rounded_adds);
  EXPECT_EQ(got.overwrites, want.overwrites);
  EXPECT_EQ(got.lshift_overflows, want.lshift_overflows);
  EXPECT_EQ(got.saturations, want.saturations);
  EXPECT_EQ(got.nonfinite_inputs, want.nonfinite_inputs);
  EXPECT_EQ(got.zero_inputs, want.zero_inputs);
}

/// Kernel op counts, dedup hits, packet counts and every register of every
/// slot (lane exponents and mantissas, dedup bitmap, completion counter).
void expect_switch_eq(pisa::FpisaSwitch& got, pisa::FpisaSwitch& want) {
  expect_ops_eq(got.op_counters(), want.op_counters());
  EXPECT_EQ(got.dedup_hits(), want.dedup_hits());
  EXPECT_EQ(got.occupied_slots(), want.occupied_slots());
  EXPECT_EQ(got.sim().packets_processed(), want.sim().packets_processed());
  const auto regs = static_cast<int>(want.sim().program().registers.size());
  for (int r = 0; r < regs; ++r) {
    for (std::size_t s = 0; s < want.options().slots; ++s) {
      ASSERT_EQ(got.sim().reg(r).read(s), want.sim().reg(r).read(s))
          << "reg=" << r << " slot=" << s;
    }
  }
}

void expect_bits_eq(std::span<const float> got, std::span<const float> want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(core::fp32_bits(got[i]), core::fp32_bits(want[i])) << "i=" << i;
  }
}

pisa::FpisaSwitch make_switch(bool rsaw, int lanes, std::size_t slots) {
  pisa::SwitchConfig cfg;
  cfg.ext.rsaw = rsaw;
  cfg.ext.two_operand_shift = rsaw;
  pisa::FpisaProgramOptions p;
  p.variant = rsaw ? core::Variant::kFull : core::Variant::kApproximate;
  p.lanes = lanes;
  p.slots = slots;
  return pisa::FpisaSwitch(cfg, p);
}

/// Runs `job` through the engine and through the oracle, each on its own
/// switch and rng stream (seeded alike), and expects identical results,
/// stats, switch state and rng position. Returns the error both sides
/// threw as (phase, slot, worker), or phase -1 when the job completed.
std::tuple<int, int, int> expect_engine_matches_oracle(
    switchml::WaveJob job, bool rsaw, int lanes, std::uint64_t seed) {
  using Outcome = std::tuple<int, int, int>;
  const auto outcome = [](auto&& body) -> Outcome {
    try {
      body();
    } catch (const switchml::RetransmitExhaustedError& e) {
      return {static_cast<int>(e.phase()), e.slot(), e.worker()};
    }
    return {-1, 0, 0};
  };
  const std::size_t n = job.out.size();
  const std::size_t slots = std::max<std::size_t>(24, job.lo + job.wave + 2);
  pisa::FpisaSwitch engine_sw = make_switch(rsaw, lanes, slots);
  pisa::FpisaSwitch oracle_sw = make_switch(rsaw, lanes, slots);
  std::vector<float> engine_out(n), oracle_out(n);
  SessionStats engine_stats{}, oracle_stats{};
  util::Rng engine_rng(seed), oracle_rng(seed);

  job.out = engine_out;
  job.rng = &engine_rng;
  job.stats = &engine_stats;
  switchml::DirectAccess access(engine_sw);
  switchml::WaveEngine engine(lanes);
  const Outcome got = outcome([&] { engine.run(access, job); });
  job.out = oracle_out;
  job.rng = &oracle_rng;
  job.stats = &oracle_stats;
  const Outcome want =
      outcome([&] { oracle::per_packet_run(oracle_sw, job); });

  EXPECT_EQ(got, want);
  // A failed wave is never scattered, so only completed runs compare out.
  if (std::get<0>(want) < 0) expect_bits_eq(engine_out, oracle_out);
  expect_stats_eq(engine_stats, oracle_stats);
  expect_switch_eq(engine_sw, oracle_sw);
  EXPECT_EQ(engine_rng.next_u64(), oracle_rng.next_u64());
  // The scrub leaves the range as a fresh switch's.
  switchml::scrub(access, job.lo, job.wave);
  EXPECT_EQ(engine_sw.occupied_slots(), 0);
  return want;
}

std::vector<std::size_t> iota_chunks(std::size_t n) {
  std::vector<std::size_t> chunks(n);
  std::iota(chunks.begin(), chunks.end(), std::size_t{0});
  return chunks;
}

TEST(WaveEngine, MatchesPerPacketOracle) {
  constexpr int kLanes = 4;
  constexpr std::size_t kN = 203;  // last chunk is partly padding
  const auto data = make_workers(4, kN, 17);
  const std::vector<std::span<const float>> views(data.begin(), data.end());
  const std::vector<std::uint8_t> ids = {5, 0, 9, 3};
  // A permuted chunk list, as a cluster shard receives after routing.
  std::vector<std::size_t> chunks = iota_chunks((kN + kLanes - 1) / kLanes);
  util::Rng shuffle(18);
  for (std::size_t i = chunks.size(); i > 1; --i) {
    std::swap(chunks[i - 1], chunks[shuffle.next_below(i)]);
  }
  std::vector<float> out(kN);
  for (const std::size_t wave : {std::size_t{16}, std::size_t{37}}) {
    for (const double loss : {0.0, 0.2, 0.4}) {
      for (const bool rsaw : {false, true}) {
        for (const std::uint32_t dead_mask : {0u, 0b0100u}) {
          SCOPED_TRACE(testing::Message()
                       << "wave=" << wave << " loss=" << loss
                       << " rsaw=" << rsaw << " dead_mask=" << dead_mask);
          switchml::WaveJob job;
          job.workers = views;
          job.ids = ids;
          job.chunks = chunks;
          job.out = out;
          job.lo = 5;  // a tenant's range in the middle of the switch
          job.wave = wave;
          job.loss_rate = loss;
          job.max_retransmits = 256;
          job.dead_mask = dead_mask;
          EXPECT_EQ(std::get<0>(expect_engine_matches_oracle(job, rsaw,
                                                             kLanes, 71)),
                    -1);
        }
      }
    }
  }
}

TEST(WaveEngine, RejectsLanesBelowOne) {
  // Release builds included: a negative width used to surface as a
  // std::length_error from a buffer allocation, before any switch check.
  EXPECT_THROW(switchml::WaveEngine(0), std::invalid_argument);
  EXPECT_THROW(switchml::WaveEngine(-1), std::invalid_argument);
  cluster::HierarchyOptions opts;
  opts.lanes = -1;
  EXPECT_THROW(cluster::HierarchicalAggregator{opts}, std::invalid_argument);
}

TEST(WaveEngine, FailsWhereAndAsTheOracleDoes) {
  // Each phase of the protocol exhausting its budget mid-job: the engine
  // throws the oracle's error (phase, slot, worker) and leaves identical
  // books and switch state behind. Seeds are searched, not chosen: every
  // phase must be hit at least once.
  const auto data = make_workers(3, 160, 27);
  const std::vector<std::span<const float>> views(data.begin(), data.end());
  const std::vector<std::size_t> chunks = iota_chunks(80);
  std::vector<float> out(160);
  for (const std::size_t wave : {std::size_t{8}, std::size_t{40}}) {
    int phases_seen[3] = {};
    for (std::uint64_t seed = 0; seed < 128; ++seed) {
      SCOPED_TRACE(testing::Message() << "wave=" << wave << " seed=" << seed);
      switchml::WaveJob job;
      // One worker makes the collect phases as likely to give up as adds.
      job.workers = std::span(views).first(seed % 2 == 0 ? 1 : 3);
      job.chunks = chunks;
      job.out = out;
      job.lo = 3;
      job.wave = wave;
      job.loss_rate = 0.1;
      job.max_retransmits = static_cast<int>(seed / 2 % 3);
      const int phase =
          std::get<0>(expect_engine_matches_oracle(job, false, 2, seed));
      if (phase >= 0) ++phases_seen[phase];
      if (HasFailure()) return;
    }
    EXPECT_GT(phases_seen[0], 0) << "no add exhaustion";
    EXPECT_GT(phases_seen[1], 0) << "no read exhaustion";
    EXPECT_GT(phases_seen[2], 0) << "no reset exhaustion";
  }
}

TEST(WaveEngine, LosslessWireMatchesZeroLossDraws) {
  // A job without an rng is a lossless wire: it draws nothing, and its
  // results, books and switch state are those of a zero-loss run that
  // draws every packet's schedule.
  constexpr int kLanes = 3;
  constexpr std::size_t kN = 100;  // last chunk is partly padding
  const auto data = make_workers(3, kN, 51);
  const std::vector<std::span<const float>> views(data.begin(), data.end());
  const std::vector<std::size_t> chunks =
      iota_chunks((kN + kLanes - 1) / kLanes);
  std::vector<float> drawn_out(kN), lossless_out(kN);
  SessionStats drawn_stats{}, lossless_stats{};
  util::Rng rng(52);
  pisa::FpisaSwitch drawn_sw = make_switch(false, kLanes, 16);
  pisa::FpisaSwitch lossless_sw = make_switch(false, kLanes, 16);
  switchml::WaveEngine engine(kLanes);
  switchml::WaveJob job;
  job.workers = views;
  job.chunks = chunks;
  job.lo = 2;
  job.wave = 8;
  job.max_retransmits = 4;

  job.out = drawn_out;
  job.rng = &rng;
  job.stats = &drawn_stats;
  switchml::DirectAccess drawn_access(drawn_sw);
  engine.run(drawn_access, job);
  job.out = lossless_out;
  job.rng = nullptr;
  job.stats = &lossless_stats;
  switchml::DirectAccess lossless_access(lossless_sw);
  engine.run(lossless_access, job);

  expect_bits_eq(lossless_out, drawn_out);
  expect_stats_eq(lossless_stats, drawn_stats);
  expect_switch_eq(lossless_sw, drawn_sw);
}

TEST(WaveEngine, RejectsJobsWithoutStatsOrRng) {
  // A job the engine cannot book, or a lossy or faulty wire with no loss
  // stream, is a typed error raised before the switch sees anything.
  const auto data = make_workers(2, 32, 53);
  const std::vector<std::span<const float>> views(data.begin(), data.end());
  const std::vector<std::size_t> chunks = iota_chunks(16);
  std::vector<float> out(32);
  util::Rng rng(54);
  SessionStats stats{};
  fault::FaultOptions fo;
  fo.enabled = true;
  fault::FaultEngine faults(fo, 1);
  pisa::FpisaSwitch sw = make_switch(false, 2, 8);
  switchml::DirectAccess access(sw);
  switchml::WaveEngine engine(2);
  const auto base_job = [&] {
    switchml::WaveJob job;
    job.workers = views;
    job.chunks = chunks;
    job.out = out;
    job.wave = 8;
    job.max_retransmits = 4;
    job.rng = &rng;
    job.stats = &stats;
    return job;
  };

  switchml::WaveJob no_stats = base_job();
  no_stats.stats = nullptr;
  EXPECT_THROW(engine.run(access, no_stats), std::invalid_argument);
  switchml::WaveJob lossy = base_job();
  lossy.rng = nullptr;
  lossy.loss_rate = 0.1;
  EXPECT_THROW(engine.run(access, lossy), std::invalid_argument);
  switchml::WaveJob faulty = base_job();
  faulty.rng = nullptr;
  faulty.faults = &faults;
  EXPECT_THROW(engine.run(access, faulty), std::invalid_argument);
  EXPECT_THROW(switchml::draw_collect_schedule(4, 0.1, 4, nullptr, stats),
               std::invalid_argument);

  EXPECT_EQ(sw.sim().packets_processed(), 0u);
  EXPECT_EQ(sw.occupied_slots(), 0);
  EXPECT_EQ(sw.op_counters().adds, 0u);
  EXPECT_EQ(stats.packets_sent, 0u);
  const std::uint64_t untouched = util::Rng(54).next_u64();
  EXPECT_EQ(rng.next_u64(), untouched);
}

/// Records every finished wave's timing.
struct RecordingHooks final : switchml::WaveHooks {
  void end_wave(const switchml::WaveTiming& t) override { waves.push_back(t); }
  std::vector<switchml::WaveTiming> waves;
};

/// Counts finished waves; kills the collect of wave `kill_collect`.
struct FailingHooks final : switchml::WaveHooks {
  bool kill_mid_collect(std::size_t wave) override {
    return wave == kill_collect;
  }
  void end_wave(const switchml::WaveTiming&) override { ++finished; }
  std::size_t kill_collect = SIZE_MAX;
  std::size_t finished = 0;
};

TEST(WaveEngine, FailedWaveLeavesOutAlone) {
  // A wave whose collect gives up -- read exhausted, reset exhausted, or
  // killed mid-collect -- writes nothing into out, not even the slots its
  // cleared prefix did read and reset; neither does any later wave. Seeds
  // are searched, not chosen: each read/reset case must fail with a
  // non-empty cleared prefix.
  constexpr int kLanes = 2;
  constexpr std::size_t kN = 95;  // the last chunk is short
  constexpr std::uint16_t kLo = 3;
  constexpr std::size_t kWave = 8;
  constexpr std::uint32_t kSentinel = 0x7FC0DEADu;
  const auto data = make_workers(1, kN, 55);
  const std::vector<std::span<const float>> views(data.begin(), data.end());
  const std::vector<std::size_t> chunks =
      iota_chunks((kN + kLanes - 1) / kLanes);
  // Runs one job; returns the failing wave, or SIZE_MAX when the run
  // completed or failed anywhere but in a collect with a cleared prefix.
  const auto run = [&](std::uint64_t seed, double loss, std::size_t kill,
                       std::vector<float>& out, int& phase) {
    pisa::FpisaSwitch sw = make_switch(false, kLanes, 16);
    switchml::DirectAccess access(sw);
    util::Rng rng(seed);
    SessionStats stats{};
    FailingHooks hooks;
    hooks.kill_collect = kill;
    switchml::WaveJob job;
    job.workers = views;
    job.chunks = chunks;
    job.out = out;
    job.lo = kLo;
    job.wave = kWave;
    job.loss_rate = loss;
    job.max_retransmits = 1;
    job.rng = &rng;
    job.stats = &stats;
    job.hooks = &hooks;
    phase = -1;
    try {
      switchml::WaveEngine(kLanes).run(access, job);
    } catch (const switchml::RetransmitExhaustedError& e) {
      phase = static_cast<int>(e.phase());
      if (e.slot() == kLo) return SIZE_MAX;  // nothing was cleared
    } catch (const std::runtime_error&) {
      phase = 3;  // killed mid-collect
    }
    return phase > 0 ? hooks.finished : SIZE_MAX;
  };
  const auto expect_untouched_from = [&](const std::vector<float>& out,
                                         std::size_t wave) {
    for (std::size_t i = wave * kWave * kLanes; i < kN; ++i) {
      ASSERT_EQ(core::fp32_bits(out[i]), kSentinel) << "i=" << i;
    }
    for (std::size_t i = 0; i < wave * kWave * kLanes; ++i) {
      ASSERT_NE(core::fp32_bits(out[i]), kSentinel) << "i=" << i;
    }
  };
  bool seen[4] = {};
  for (std::uint64_t seed = 0; seed < 512 && !(seen[1] && seen[2]); ++seed) {
    std::vector<float> out(kN, core::fp32_value(kSentinel));
    int phase = -1;
    const std::size_t wave = run(seed, 0.25, SIZE_MAX, out, phase);
    if (wave == SIZE_MAX || seen[phase]) continue;
    SCOPED_TRACE(testing::Message() << "seed=" << seed << " phase=" << phase);
    seen[phase] = true;
    expect_untouched_from(out, wave);
  }
  EXPECT_TRUE(seen[1]) << "no read exhaustion after a cleared slot";
  EXPECT_TRUE(seen[2]) << "no reset exhaustion after a cleared slot";
  for (const std::size_t kill : {std::size_t{0}, std::size_t{5}}) {
    SCOPED_TRACE(testing::Message() << "kill mid-collect of wave " << kill);
    std::vector<float> out(kN, core::fp32_value(kSentinel));
    int phase = -1;
    ASSERT_EQ(run(0, 0.0, kill, out, phase), kill);
    expect_untouched_from(out, kill);
  }
}

TEST(WaveEngine, WaveWindowsTile) {
  // One wave order: a wave's add window opens no earlier than the previous
  // wave's collect window closed, and its collect window opens no earlier
  // than its own add window closed. Plain and guarded.
  constexpr int kLanes = 32;
  constexpr std::size_t kSlots = 64;
  constexpr std::size_t kWaves = 6;
  const auto data = make_workers(8, kWaves * kSlots * kLanes, 33);
  const std::vector<std::span<const float>> views(data.begin(), data.end());
  const std::vector<std::size_t> chunks = iota_chunks(kWaves * kSlots);
  std::vector<float> out(data[0].size());
  for (const bool guarded : {false, true}) {
    SCOPED_TRACE(testing::Message() << "guarded=" << guarded);
    pisa::FpisaSwitch sw = make_switch(false, kLanes, kSlots);
    fault::FaultOptions fo;
    fo.enabled = true;
    fault::FaultEngine faults(fo, 1);
    util::Rng rng(34);
    SessionStats stats{};
    RecordingHooks hooks;
    switchml::WaveJob job;
    job.workers = views;
    job.chunks = chunks;
    job.out = out;
    job.wave = kSlots;
    job.loss_rate = 0.01;
    job.max_retransmits = 64;
    job.rng = &rng;
    job.stats = &stats;
    job.faults = guarded ? &faults : nullptr;
    job.hooks = &hooks;
    switchml::DirectAccess access(sw);
    const auto start = std::chrono::steady_clock::now();
    switchml::WaveEngine(kLanes).run(access, job);
    const auto end = std::chrono::steady_clock::now();
    ASSERT_EQ(hooks.waves.size(), kWaves);
    for (std::size_t k = 0; k < kWaves; ++k) {
      SCOPED_TRACE(k);
      const switchml::WaveTiming& t = hooks.waves[k];
      EXPECT_EQ(t.wave, k);
      if (k > 0) {
        EXPECT_GE(t.add_end - std::chrono::nanoseconds(t.add_ns),
                  hooks.waves[k - 1].collect_end);
      }
      EXPECT_GE(t.collect_end - std::chrono::nanoseconds(t.collect_ns),
                t.add_end);
    }
    // Every window lies inside the run.
    EXPECT_GE(hooks.waves[0].add_end -
                  std::chrono::nanoseconds(hooks.waves[0].add_ns),
              start);
    EXPECT_LE(hooks.waves.back().collect_end, end);
  }
}

// --- the tree against its per-slot oracle ------------------------------------

void expect_tree_matches_oracle(const cluster::HierarchyOptions& opts,
                                int killed_leaf, std::size_t n) {
  cluster::HierarchicalAggregator tree(opts);
  oracle::TreeOracle ref(opts);
  if (killed_leaf >= 0) {
    tree.kill_leaf(killed_leaf);
    ref.kill_leaf(killed_leaf);
  }
  for (std::uint64_t rep = 0; rep < 2; ++rep) {  // slots recycle cleanly
    const auto data = make_workers(tree.total_workers(), n, 40 + rep);
    const std::vector<std::span<const float>> views(data.begin(), data.end());
    std::vector<float> got(n);
    std::vector<float> want(n);
    tree.reduce_into(views, got);
    const cluster::HierarchyTiming timing = ref.reduce(views, want);
    expect_bits_eq(got, want);
    EXPECT_EQ(tree.timing().packets, timing.packets);
    EXPECT_EQ(tree.timing().wire_bytes, timing.wire_bytes);
    EXPECT_EQ(tree.timing().done_s, timing.done_s);
    EXPECT_EQ(tree.timing().leaf_done_s, timing.leaf_done_s);
  }
  for (int j = 0; j < opts.leaves; ++j) {
    SCOPED_TRACE(j);
    expect_ops_eq(tree.leaf(j).op_counters(), ref.leaf(j).op_counters());
    EXPECT_EQ(tree.leaf(j).occupied_slots(), 0);
  }
  expect_ops_eq(tree.spine().op_counters(), ref.spine().op_counters());
  EXPECT_EQ(tree.spine().occupied_slots(), 0);
}

TEST(TreeOracle, FourByTwoTreeMatchesPerSlotLoop) {
  cluster::HierarchyOptions opts;
  opts.leaves = 4;
  opts.workers_per_leaf = 2;
  opts.slots = 16;
  opts.lanes = 4;
  expect_tree_matches_oracle(opts, -1, 301);
}

TEST(TreeOracle, EightLeafTreeMatchesPerSlotLoop) {
  cluster::HierarchyOptions opts;
  opts.leaves = 8;
  opts.workers_per_leaf = 3;
  opts.slots = 8;
  opts.lanes = 2;
  opts.full_fpisa_spine = false;
  expect_tree_matches_oracle(opts, -1, 157);
}

TEST(TreeOracle, KilledLeafMatchesPerSlotLoop) {
  cluster::HierarchyOptions opts;
  opts.leaves = 4;
  opts.workers_per_leaf = 2;
  opts.slots = 16;
  opts.lanes = 4;
  expect_tree_matches_oracle(opts, 2, 250);
}

// --- the tree's concurrent leaves --------------------------------------------

/// Every SessionStats field.
void expect_all_stats_eq(const SessionStats& got, const SessionStats& want) {
  expect_stats_eq(got, want);
  EXPECT_EQ(got.shard_failures, want.shard_failures);
  EXPECT_EQ(got.chunks_rerouted, want.chunks_rerouted);
  EXPECT_EQ(got.failover_retries, want.failover_retries);
  EXPECT_EQ(got.faults.corrupt_rejected, want.faults.corrupt_rejected);
  EXPECT_EQ(got.faults.stale_dups_rejected, want.faults.stale_dups_rejected);
  EXPECT_EQ(got.faults.epoch_bumps, want.faults.epoch_bumps);
  EXPECT_EQ(got.faults.workers_declared_dead,
            want.faults.workers_declared_dead);
  EXPECT_EQ(got.faults.waves_replayed, want.faults.waves_replayed);
  EXPECT_EQ(got.dead_workers, want.dead_workers);
  expect_ops_eq(got.ops, want.ops);
}

TEST(TreeConcurrency, FiveHundredReducesAcrossShapesAndAKillMatchOracle) {
  // One long-lived tree whose leaves run concurrently: chunk counts change
  // every reduce (so does the slot-range tail), and a leaf dies halfway.
  // Each reduce must equal the per-slot oracle's answer for its inputs,
  // bits and wire books. The oracle runs once per distinct (inputs, live
  // leaves) and its answer is reused: the tree's result may depend on
  // nothing else, neither its history nor the threads' schedule.
  cluster::HierarchyOptions opts;
  opts.leaves = 4;
  opts.workers_per_leaf = 2;
  opts.slots = 8;
  opts.lanes = 4;
  constexpr std::size_t kSizes[] = {37, 101, 8};  // 10, 26 and 2 chunks
  constexpr int kReduces = 500;
  constexpr int kKillAt = kReduces / 2;
  constexpr int kKilledLeaf = 1;
  cluster::HierarchicalAggregator tree(opts);
  oracle::TreeOracle ref(opts);
  struct Case {
    std::vector<std::vector<float>> data;
    std::vector<float> want[2];  ///< [leaf killed]
    SessionStats stats[2];
    bool known[2] = {};
  };
  std::vector<Case> cases;
  for (std::size_t c = 0; c < 2 * std::size(kSizes); ++c) {
    cases.emplace_back().data =
        make_workers(tree.total_workers(), kSizes[c % 3], 700 + c);
  }
  for (int r = 0; r < kReduces; ++r) {
    SCOPED_TRACE(testing::Message() << "reduce " << r);
    if (r == kKillAt) {
      tree.kill_leaf(kKilledLeaf);
      ref.kill_leaf(kKilledLeaf);
    }
    const int killed = r >= kKillAt ? 1 : 0;
    Case& c = cases[static_cast<std::size_t>(r) % cases.size()];
    const std::vector<std::span<const float>> views(c.data.begin(),
                                                    c.data.end());
    if (!c.known[killed]) {
      c.want[killed].resize(views.front().size());
      ref.reduce(views, c.want[killed]);
      c.stats[killed] = ref.stats();
      c.known[killed] = true;
    }
    std::vector<float> got(views.front().size());
    tree.reduce_into(views, got);
    expect_bits_eq(got, c.want[killed]);
    expect_all_stats_eq(tree.stats(), c.stats[killed]);
    if (HasFailure()) return;
  }
  for (int j = 0; j < opts.leaves; ++j) {
    EXPECT_EQ(tree.leaf(j).occupied_slots(), 0) << j;
  }
  EXPECT_EQ(tree.spine().occupied_slots(), 0);
}

// --- range-local sessions against the per-range oracle ----------------------

pisa::SwitchConfig switch_config(bool rsaw) {
  pisa::SwitchConfig cfg;
  cfg.ext.rsaw = rsaw;
  cfg.ext.two_operand_shift = rsaw;
  return cfg;
}

/// Streams seeded as a session seeds its ranges' (oracle::range_seed).
std::vector<util::Rng> range_streams(std::uint64_t seed, std::size_t slots) {
  std::vector<util::Rng> rngs;
  for (std::size_t r = 0; r < (slots + 15) / 16; ++r) {
    rngs.emplace_back(oracle::range_seed(seed, r));
  }
  return rngs;
}

TEST(RangeSessions, FiftySlotSessionMatchesPerRangeOracle) {
  // Ranges of 16, 16, 16 and 2 slots, each over its own chunk block with
  // its own stream, run at once on the datapath pool: results, every
  // SessionStats field, op counts, every register of every slot and each
  // range's stream position equal one per_packet_run per range, over two
  // reduces (the streams carry over).
  constexpr std::size_t kN = 607;  // 152 chunks: blocks of 48, 49, 48, 7
  constexpr int kLanes = 4;
  const std::vector<std::size_t> chunks = iota_chunks((kN + kLanes - 1) / 4);
  for (const double loss : {0.0, 0.2, 0.4}) {
    for (const bool rsaw : {false, true}) {
      SCOPED_TRACE(testing::Message() << "loss=" << loss << " rsaw=" << rsaw);
      switchml::SessionOptions opts;
      opts.num_workers = 4;
      opts.slots = 50;
      opts.lanes = kLanes;
      opts.loss_rate = loss;
      opts.loss_seed = 31;
      opts.max_retransmits = 256;
      switchml::AggregationSession session(switch_config(rsaw), opts);
      pisa::FpisaSwitch oracle_sw = make_switch(rsaw, kLanes, opts.slots);
      std::vector<util::Rng> rngs = range_streams(opts.loss_seed, opts.slots);
      SessionStats want_stats{};
      for (std::uint64_t rep = 0; rep < 2; ++rep) {
        const auto data = make_workers(opts.num_workers, kN, 40 + rep);
        const std::vector<std::span<const float>> views(data.begin(),
                                                        data.end());
        std::vector<float> got(kN), want(kN);
        session.reduce_into(views, got);
        switchml::WaveJob job;
        job.workers = views;
        job.chunks = chunks;
        job.out = want;
        job.wave = opts.slots;
        job.loss_rate = loss;
        job.max_retransmits = opts.max_retransmits;
        job.stats = &want_stats;
        oracle::per_range_run(oracle_sw, job, rngs);
        expect_bits_eq(got, want);
        expect_stats_eq(session.stats(), want_stats);
        expect_switch_eq(session.fpisa_switch(), oracle_sw);
        for (std::size_t r = 0; r < rngs.size(); ++r) {
          util::Rng stream = session.loss_stream(r);
          util::Rng expected = rngs[r];
          EXPECT_EQ(stream.next_u64(), expected.next_u64()) << "range " << r;
        }
      }
      if (loss > 0.0) {
        EXPECT_GT(want_stats.packets_lost, 0u);
        EXPECT_GT(want_stats.duplicates_absorbed, 0u);
      }
    }
  }
}

TEST(RangeSessions, LossBooksMatchTheGlobalStreamInDistribution) {
  // A session's ranges draw from their own streams, not from one stream in
  // the job's packet order, so its books move per seed; over 200 seeds its
  // packets_lost and retransmissions per job have the global-stream
  // oracle's means (within 3 standard errors).
  constexpr std::size_t kSeeds = 200;
  constexpr int kLanes = 4;
  constexpr std::size_t kN = 50 * kLanes * 3;  // three waves of 50 slots
  const auto data = make_workers(4, kN, 52);
  const std::vector<std::span<const float>> views(data.begin(), data.end());
  const std::vector<std::size_t> chunks = iota_chunks(kN / kLanes);
  std::vector<float> out(kN);
  pisa::FpisaSwitch oracle_sw = make_switch(false, kLanes, 50);
  std::vector<double> session_lost, session_retx, oracle_lost, oracle_retx;
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    switchml::SessionOptions opts;
    opts.num_workers = 4;
    opts.slots = 50;
    opts.lanes = kLanes;
    opts.loss_rate = 0.1;
    opts.loss_seed = seed;
    switchml::AggregationSession session(switch_config(false), opts);
    session.reduce_into(views, out);
    session_lost.push_back(static_cast<double>(session.stats().packets_lost));
    session_retx.push_back(
        static_cast<double>(session.stats().retransmissions));
    util::Rng rng(seed);
    SessionStats stats{};
    switchml::WaveJob job;
    job.workers = views;
    job.chunks = chunks;
    job.out = out;
    job.wave = opts.slots;
    job.loss_rate = opts.loss_rate;
    job.max_retransmits = opts.max_retransmits;
    job.rng = &rng;
    job.stats = &stats;
    oracle::per_packet_run(oracle_sw, job);
    oracle_lost.push_back(static_cast<double>(stats.packets_lost));
    oracle_retx.push_back(static_cast<double>(stats.retransmissions));
  }
  const auto expect_same_mean = [](const std::vector<double>& a,
                                   const std::vector<double>& b,
                                   const char* what) {
    const auto moments = [](const std::vector<double>& x) {
      double mean = 0.0;
      for (const double v : x) mean += v;
      mean /= static_cast<double>(x.size());
      double var = 0.0;
      for (const double v : x) var += (v - mean) * (v - mean);
      var /= static_cast<double>(x.size() - 1);
      return std::pair{mean, var / static_cast<double>(x.size())};
    };
    const auto [ma, va] = moments(a);
    const auto [mb, vb] = moments(b);
    EXPECT_GT(mb, 0.0) << what;
    EXPECT_LE(std::abs(ma - mb), 3.0 * std::sqrt(va + vb))
        << what << ": session mean " << ma << ", oracle mean " << mb;
  };
  expect_same_mean(session_lost, oracle_lost, "packets_lost");
  expect_same_mean(session_retx, oracle_retx, "retransmissions");
}

/// The guarded session's reference: its ranges run one after another on
/// one thread through the engine, each with the loss stream and fault
/// stream its session gives it (range 0's fault stream is fault.seed).
void serial_guarded_ranges(pisa::FpisaSwitch& sw,
                           const switchml::SessionOptions& opts,
                           std::span<const std::span<const float>> views,
                           std::span<float> out, std::span<util::Rng> rngs,
                           SessionStats& stats) {
  const std::vector<std::size_t> chunks =
      iota_chunks((out.size() + static_cast<std::size_t>(opts.lanes) - 1) /
                  static_cast<std::size_t>(opts.lanes));
  const auto ranges = oracle::session_ranges(opts.slots, chunks.size());
  switchml::DirectAccess access(sw);
  switchml::WaveEngine engine(opts.lanes);
  for (std::size_t r = 0; r < ranges.size(); ++r) {
    fault::FaultEngine faults(opts.fault,
                              oracle::range_seed(opts.fault.seed, r));
    switchml::WaveJob job;
    job.workers = views;
    job.chunks = std::span(chunks).subspan(ranges[r].first,
                                           ranges[r].last - ranges[r].first);
    job.out = out;
    job.lo = ranges[r].lo;
    job.wave = ranges[r].slots;
    job.loss_rate = opts.loss_rate;
    job.max_retransmits = opts.max_retransmits;
    job.rng = &rngs[r];
    job.stats = &stats;
    job.faults = &faults;
    engine.run(access, job);
  }
}

TEST(RangeSessions, ConcurrentSessionsKeepTheirSwitchBooks) {
  // A 64-slot lossy session and a 50-slot guarded one (no wipe) reduce at
  // once from two threads, each fanning its ranges out over the datapath
  // pool, so several ranges bump one switch's books at once. Each switch's
  // occupancy, dedup hits, packets and op counts, and the switches'
  // registry series, equal the oracles' sums: nothing is lost to a race.
  constexpr int kReduces = 20;
  switchml::SessionOptions lossy;
  lossy.num_workers = 4;
  lossy.slots = 64;
  lossy.lanes = 4;
  lossy.loss_rate = 0.05;
  lossy.loss_seed = 11;
  lossy.max_retransmits = 256;
  switchml::SessionOptions guarded;
  guarded.num_workers = 3;
  guarded.slots = 50;
  guarded.lanes = 4;
  guarded.loss_rate = 0.02;
  guarded.loss_seed = 12;
  guarded.fault.enabled = true;
  guarded.fault.seed = 13;
  guarded.fault.corrupt_rate = 0.05;
  guarded.fault.reorder_rate = 0.3;
  guarded.fault.dup_rate = 0.1;
  guarded.fault.stale_dup_rate = 0.1;
  const auto ldata = make_workers(lossy.num_workers, 1027, 14);
  const auto gdata = make_workers(guarded.num_workers, 997, 15);
  const std::vector<std::span<const float>> lviews(ldata.begin(), ldata.end());
  const std::vector<std::span<const float>> gviews(gdata.begin(), gdata.end());

  // The oracles, outside the registry window below.
  pisa::FpisaSwitch lossy_sw = make_switch(false, lossy.lanes, lossy.slots);
  pisa::FpisaSwitch guarded_sw =
      make_switch(false, guarded.lanes, guarded.slots);
  std::vector<float> lwant(1027), gwant(997);
  SessionStats lstats{}, gstats{};
  {
    std::vector<util::Rng> lrngs = range_streams(lossy.loss_seed, lossy.slots);
    std::vector<util::Rng> grngs =
        range_streams(guarded.loss_seed, guarded.slots);
    const std::vector<std::size_t> chunks = iota_chunks((1027 + 3) / 4);
    for (int k = 0; k < kReduces; ++k) {
      switchml::WaveJob job;
      job.workers = lviews;
      job.chunks = chunks;
      job.out = lwant;
      job.wave = lossy.slots;
      job.loss_rate = lossy.loss_rate;
      job.max_retransmits = lossy.max_retransmits;
      job.stats = &lstats;
      oracle::per_range_run(lossy_sw, job, lrngs);
      serial_guarded_ranges(guarded_sw, guarded, gviews, gwant, grngs,
                            gstats);
    }
  }
  EXPECT_GT(gstats.faults.corrupt_rejected, 0u);
  EXPECT_GT(gstats.faults.stale_dups_rejected, 0u);

  switchml::AggregationSession lsession(switch_config(false), lossy);
  switchml::AggregationSession gsession(switch_config(false), guarded);
  cluster::datapath_pool();
  const telemetry::Snapshot before = telemetry::snapshot();
  std::vector<float> lgot(1027), ggot(997);
  {
    std::thread a([&] {
      for (int k = 0; k < kReduces; ++k) lsession.reduce_into(lviews, lgot);
    });
    std::thread b([&] {
      for (int k = 0; k < kReduces; ++k) gsession.reduce_into(gviews, ggot);
    });
    a.join();
    b.join();
  }
  const telemetry::Snapshot after = telemetry::snapshot();

  const std::pair<switchml::AggregationSession*, pisa::FpisaSwitch*> pairs[] =
      {{&lsession, &lossy_sw}, {&gsession, &guarded_sw}};
  for (const auto& [session, want] : pairs) {
    pisa::FpisaSwitch& got = session->fpisa_switch();
    EXPECT_EQ(got.occupied_slots(), want->occupied_slots());
    EXPECT_EQ(got.dedup_hits(), want->dedup_hits());
    EXPECT_EQ(got.sim().packets_processed(), want->sim().packets_processed());
    expect_ops_eq(got.op_counters(), want->op_counters());
  }
  expect_bits_eq(lgot, lwant);
  expect_bits_eq(ggot, gwant);
  expect_stats_eq(lsession.stats(), lstats);
  expect_stats_eq(gsession.stats(), gstats);

  if (!telemetry::enabled()) return;
  const auto delta = [&](const char* name, const telemetry::Labels& labels) {
    return after.counter_total(name, labels) -
           before.counter_total(name, labels);
  };
  const auto occupancy = [](const telemetry::Snapshot& snap) {
    double sum = 0.0;
    for (const auto& g : snap.gauges) {
      if (g.name == "fpisa_switch_occupied_slots") sum += g.value;
    }
    return sum;
  };
  EXPECT_EQ(delta("fpisa_switch_packets_total", {}),
            lossy_sw.sim().packets_processed() +
                guarded_sw.sim().packets_processed());
  EXPECT_EQ(delta("fpisa_switch_dedup_hits_total", {}),
            lossy_sw.dedup_hits() + guarded_sw.dedup_hits());
  EXPECT_EQ(delta("fpisa_switch_corrupt_rejected_total", {}),
            gstats.faults.corrupt_rejected);
  EXPECT_EQ(delta("fpisa_switch_stale_dups_rejected_total", {}),
            gstats.faults.stale_dups_rejected);
  EXPECT_EQ(delta("fpisa_switch_ops_total", {{"op", "adds"}}),
            lossy_sw.op_counters().adds + guarded_sw.op_counters().adds);
  EXPECT_EQ(delta("fpisa_switch_ops_total", {{"op", "rounded_adds"}}),
            lossy_sw.op_counters().rounded_adds +
                guarded_sw.op_counters().rounded_adds);
  EXPECT_EQ(occupancy(after), occupancy(before));
}

// --- the shared datapath pool ------------------------------------------------

TEST(DatapathPool, ThousandSessionsAndTreesStartNoThreads) {
  // Sessions and trees share the process's datapath pool and start no
  // thread of their own: once the pool is up, building, reducing through
  // and dropping a session and a tree per iteration for 1,000 iterations
  // (eight of each alive at once every 100th) never moves the process's
  // thread count, and every output equals the first.
  cluster::datapath_pool();
  const long baseline = process_threads();
  ASSERT_GT(baseline, 0);
  switchml::SessionOptions sopts;
  sopts.num_workers = 3;
  sopts.slots = 50;  // four datapath ranges, the last a part
  sopts.lanes = 4;
  sopts.loss_rate = 0.01;
  cluster::HierarchyOptions topts;
  topts.leaves = 4;
  topts.workers_per_leaf = 2;
  topts.slots = 4;
  topts.lanes = 4;
  const auto sdata = make_workers(sopts.num_workers, 299, 19);
  const auto tdata = make_workers(topts.leaves * topts.workers_per_leaf, 29, 9);
  const std::vector<std::span<const float>> sviews(sdata.begin(), sdata.end());
  const std::vector<std::span<const float>> tviews(tdata.begin(), tdata.end());
  std::vector<float> sfirst;
  std::vector<float> tfirst;
  std::vector<float> sout(299);
  std::vector<float> tout(29);
  for (int t = 0; t < 1000; ++t) {
    SCOPED_TRACE(t);
    const int alive = t % 100 == 0 ? 8 : 1;
    std::vector<std::unique_ptr<switchml::AggregationSession>> sessions;
    std::vector<std::unique_ptr<cluster::HierarchicalAggregator>> trees;
    for (int k = 0; k < alive; ++k) {
      sessions.push_back(std::make_unique<switchml::AggregationSession>(
          pisa::SwitchConfig{}, sopts));
      trees.push_back(std::make_unique<cluster::HierarchicalAggregator>(topts));
    }
    for (int k = 0; k < alive; ++k) {
      sessions[static_cast<std::size_t>(k)]->reduce_into(sviews, sout);
      trees[static_cast<std::size_t>(k)]->reduce_into(tviews, tout);
      if (sfirst.empty()) {
        sfirst = sout;
        tfirst = tout;
      }
      expect_bits_eq(sout, sfirst);
      expect_bits_eq(tout, tfirst);
    }
    EXPECT_EQ(process_threads(), baseline);
    if (HasFailure()) return;
  }
  EXPECT_EQ(process_threads(), baseline);
}

TEST(DatapathPool, SessionsAndTreeShareThePoolFromThreeCallers) {
  // A lossy session, a guarded session and a tree reduce at once, each
  // from its own thread, all through the one datapath pool. Each object's
  // outputs and books, reduce by reduce, equal its single-caller run: who
  // ran which range or leaf, and whose task a helper was busy with, never
  // shows.
  constexpr int kReduces = 200;
  constexpr std::size_t kN = 1000;  // five waves of 50 slots x 4 lanes
  switchml::SessionOptions lossy;
  lossy.num_workers = 4;
  lossy.slots = 50;
  lossy.lanes = 4;
  lossy.loss_rate = 0.02;
  lossy.loss_seed = 3;
  switchml::SessionOptions guarded = lossy;
  guarded.loss_seed = 4;
  guarded.fault.enabled = true;
  guarded.fault.seed = 5;
  guarded.fault.corrupt_rate = 0.05;
  guarded.fault.reorder_rate = 0.3;
  guarded.fault.dup_rate = 0.1;
  guarded.fault.stale_dup_rate = 0.1;
  guarded.fault.wipe_switch = true;
  guarded.fault.wipe_wave = 2;
  cluster::HierarchyOptions topts;
  topts.leaves = 4;
  topts.workers_per_leaf = 2;
  topts.slots = 8;
  topts.lanes = 4;
  const auto sdata = make_workers(lossy.num_workers, kN, 81);
  const auto tdata =
      make_workers(topts.leaves * topts.workers_per_leaf, kN, 82);
  const std::vector<std::span<const float>> sviews(sdata.begin(), sdata.end());
  const std::vector<std::span<const float>> tviews(tdata.begin(), tdata.end());

  struct Run {
    std::vector<std::vector<float>> out;
    std::vector<SessionStats> books;
  };
  const auto session_run = [&](const switchml::SessionOptions& opts) {
    Run run;
    switchml::AggregationSession session(pisa::SwitchConfig{}, opts);
    for (int r = 0; r < kReduces; ++r) {
      session.reduce_into(sviews, run.out.emplace_back(kN));
      run.books.push_back(session.stats());
    }
    return run;
  };
  const auto tree_run = [&] {
    Run run;
    cluster::HierarchicalAggregator tree(topts);
    for (int r = 0; r < kReduces; ++r) {
      tree.reduce_into(tviews, run.out.emplace_back(kN));
      run.books.push_back(tree.stats());
    }
    return run;
  };
  const Run want[3] = {session_run(lossy), session_run(guarded), tree_run()};
  Run got[3];
  {
    std::thread a([&] { got[0] = session_run(lossy); });
    std::thread b([&] { got[1] = session_run(guarded); });
    std::thread c([&] { got[2] = tree_run(); });
    a.join();
    b.join();
    c.join();
  }
  EXPECT_GT(want[1].books.back().faults.waves_replayed, 0u);
  for (std::size_t k = 0; k < 3; ++k) {
    ASSERT_EQ(got[k].out.size(), static_cast<std::size_t>(kReduces));
    for (std::size_t r = 0; r < got[k].out.size(); ++r) {
      SCOPED_TRACE(testing::Message() << "object " << k << " reduce " << r);
      expect_bits_eq(got[k].out[r], want[k].out[r]);
      expect_all_stats_eq(got[k].books[r], want[k].books[r]);
      if (HasFailure()) return;
    }
  }
}

// --- the tree's closed-form timing against its event-queue replay ----------

// Every leaf count 1-8 x workers per leaf 1-4 x lanes {1, 5, 32}, the
// three lane counts running with 0, 1 and 2 dead leaves. Pipe rates sit on
// both sides of the spine-pipe bottleneck (below and above the spine's
// fan-in times the link rate) or equal the link rate: with one worker per
// leaf and zero latency (odd leaf counts), a dead leaf's direct packets
// then tie exactly with earlier chunks' partials at the spine. Chunk
// counts never fill a whole number of waves.
TEST(TreeTiming, ClosedFormMatchesEventQueueBitForBit) {
  util::Rng rng(16);
  constexpr int kLanes[] = {1, 5, 32};
  constexpr double kLinkGbps[] = {10.0, 100.0, 400.0, 12800.0};
  constexpr double kPipeOverFanIn[] = {0.5, 2.0, 4.0};
  for (int leaves = 1; leaves <= 8; ++leaves) {
    for (int wpl = 1; wpl <= 4; ++wpl) {
      for (int i = 0; i < 3; ++i) {
        const int dead = std::min(i, leaves - 1);
        const int rate_case = (leaves + wpl) % 4;
        cluster::HierarchyOptions opts;
        opts.leaves = leaves;
        opts.workers_per_leaf = wpl;
        opts.lanes = kLanes[i];
        opts.slots = 4;
        opts.link_gbps = kLinkGbps[rng.next_below(4)];
        const int fan_in = leaves - dead + dead * wpl;
        opts.pipeline_gbps =
            rate_case == 0
                ? opts.link_gbps
                : opts.link_gbps * fan_in * kPipeOverFanIn[rate_case - 1];
        opts.link_latency_us = leaves % 2 == 1 ? 0.0 : 1.0;
        const std::size_t chunks =
            4 * (1 + rng.next_below(3)) + 1 + rng.next_below(3);
        const std::size_t n =
            (chunks - 1) * static_cast<std::size_t>(opts.lanes) + 1;
        SCOPED_TRACE(testing::Message()
                     << leaves << "x" << wpl << " lanes " << opts.lanes
                     << " dead " << dead << " link " << opts.link_gbps
                     << " pipe " << opts.pipeline_gbps << " latency "
                     << opts.link_latency_us << " chunks " << chunks);

        cluster::HierarchicalAggregator tree(opts);
        for (int j = 0; j < dead; ++j) tree.kill_leaf(j * 2 % leaves);
        std::vector<bool> alive;
        for (int j = 0; j < leaves; ++j) alive.push_back(tree.leaf_alive(j));
        const auto data =
            make_workers(tree.total_workers(), n, rng.next_u64());
        const std::vector<std::span<const float>> views(data.begin(),
                                                        data.end());
        std::vector<float> out(n);
        tree.reduce_into(views, out);
        const cluster::HierarchyTiming want =
            oracle::tree_timing(opts, alive, chunks);
        const cluster::HierarchyTiming& got = tree.timing();
        EXPECT_EQ(got.done_s, want.done_s);
        EXPECT_EQ(got.leaf_done_s, want.leaf_done_s);
        EXPECT_EQ(got.packets, want.packets);
        EXPECT_EQ(got.wire_bytes, want.wire_bytes);
      }
    }
  }
}

void expect_timing_eq(const cluster::HierarchyTiming& got,
                      const cluster::HierarchyTiming& want) {
  EXPECT_EQ(got.done_s, want.done_s);
  EXPECT_EQ(got.leaf_done_s, want.leaf_done_s);
  EXPECT_EQ(got.packets, want.packets);
  EXPECT_EQ(got.wire_bytes, want.wire_bytes);
}

TEST(TreeTiming, ModelRunsOncePerShape) {
  // The timing model depends only on the chunk count and the live leaves:
  // a repeated shape reuses it, and every reduce still books it. A killed
  // leaf changes the shape, and the timing then matches a tree built
  // with that leaf dead from the start.
  cluster::HierarchyOptions opts;
  opts.leaves = 4;
  opts.workers_per_leaf = 2;
  opts.slots = 8;
  opts.lanes = 4;
  constexpr std::size_t kN = 203;
  cluster::HierarchicalAggregator tree(opts);
  const auto reduce = [&](cluster::HierarchicalAggregator& t,
                          std::size_t n, std::uint64_t seed) {
    const auto data = make_workers(t.total_workers(), n, seed);
    const std::vector<std::span<const float>> views(data.begin(), data.end());
    std::vector<float> out(n);
    t.reduce_into(views, out);
    return t.timing();
  };
  const cluster::HierarchyTiming first = reduce(tree, kN, 60);
  const double leaf_s = tree.phase_breakdown().add_s;
  const cluster::HierarchyTiming second = reduce(tree, kN, 61);
  expect_timing_eq(second, first);
  if (telemetry::enabled()) {
    EXPECT_EQ(tree.phase_breakdown().add_s, 2 * leaf_s);
    EXPECT_EQ(leaf_s, first.leaf_done_s);
  }

  tree.kill_leaf(1);
  cluster::HierarchicalAggregator fresh(opts);
  fresh.kill_leaf(1);
  const cluster::HierarchyTiming killed = reduce(tree, kN, 62);
  expect_timing_eq(killed, reduce(fresh, kN, 62));
  EXPECT_NE(killed.done_s, first.done_s);
  // Another chunk count is another shape.
  EXPECT_LT(reduce(tree, kN / 2, 63).done_s, killed.done_s);
  expect_timing_eq(reduce(tree, kN, 64), killed);
}

}  // namespace
}  // namespace fpisa
