// Chaos soak: hundreds of seeded fault mixes through the session and the
// cluster fabric. Every recoverable run must end bit-identical to its
// fault-free reference; every unrecoverable run (kAbort worker death) must
// raise the typed error with the failure books intact; no run may leak
// switch state (occupied slots / dedup bits) behind it.
//
// Each scenario is expanded from its seed by fault::draw_chaos_mix — the
// SAME function example_chaos_demo uses — so any failure printed here
// replays exactly with `example_chaos_demo --seed N`. The seed count
// defaults to 200 and can be lowered for smoke runs (or raised for nightly
// soaks) via the FPISA_CHAOS_SEEDS environment variable.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "cluster/aggregation_service.h"
#include "core/packed.h"
#include "fault/fault.h"
#include "switchml/session.h"
#include "util/rng.h"
#include "testkit.h"

namespace fpisa {
namespace {

constexpr std::size_t kVectorLen = 96;  // 48 chunks @ 2 lanes -> 3 waves

int soak_seeds() {
  const char* env = std::getenv("FPISA_CHAOS_SEEDS");
  if (env == nullptr) return 200;
  const int n = std::atoi(env);
  return n > 0 ? n : 200;
}

std::string repro(std::uint64_t seed) {
  return "chaos seed " + std::to_string(seed) +
         " -- reproduce with: example_chaos_demo --seed " +
         std::to_string(seed);
}

// One-binade integers: every FPISA add is exact, so "recovered correctly"
// is checkable as bit-identity, not a tolerance.
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

std::vector<std::vector<float>> survivors_of(
    const std::vector<std::vector<float>>& workers, int dead) {
  std::vector<std::vector<float>> out;
  for (std::size_t w = 0; w < workers.size(); ++w) {
    if (static_cast<int>(w) != dead) out.push_back(workers[w]);
  }
  return out;
}

void expect_bits_equal(const std::vector<float>& got,
                       const std::vector<float>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(core::fp32_bits(got[i]), core::fp32_bits(want[i])) << "i=" << i;
  }
}

// Folds a run's observable outcome into one 64-bit digest (FNV-1a over
// 64-bit words), so a golden table can pin the guarded path's books.
struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void fold(std::uint64_t v) { h = (h ^ v) * 0x100000001b3ULL; }
  void fold(const std::vector<float>& result) {
    fold(result.size());
    for (const float v : result) fold(core::fp32_bits(v));
  }
  void fold(const fault::WorkerDeadError& e) {
    fold(0xDEADu);
    fold(static_cast<std::uint64_t>(e.worker()));
  }
  void fold(const switchml::SessionStats& s) {
    for (const std::uint64_t v :
         {s.packets_sent, s.packets_lost, s.retransmissions,
          s.duplicates_absorbed, s.slot_reuses, s.shard_failures,
          s.chunks_rerouted, s.failover_retries, s.faults.corrupt_rejected,
          s.faults.stale_dups_rejected, s.faults.epoch_bumps,
          s.faults.workers_declared_dead, s.faults.waves_replayed,
          std::uint64_t{s.dead_workers}, s.ops.adds, s.ops.rounded_adds,
          s.ops.overwrites, s.ops.lshift_overflows, s.ops.saturations,
          s.ops.nonfinite_inputs, s.ops.zero_inputs}) {
      fold(v);
    }
  }
};

bool expects_abort(const fault::ChaosMix& mix) {
  return mix.fault.dead_worker >= 0 &&
         mix.fault.dead_worker_policy == fault::DeadWorkerPolicy::kAbort;
}

// Runs one seed through a session; returns the run's digest: the result
// bits (or the typed error), every SessionStats field, and the switch's
// dedup hits and packet count.
std::uint64_t run_session_seed(std::uint64_t seed, const fault::ChaosMix& mix,
                               fault::FaultCounters& totals) {
  Digest d;
  const auto workers =
      make_exact_workers(mix.num_workers, kVectorLen, seed * 7 + 1);

  switchml::SessionOptions opts;
  opts.num_workers = mix.num_workers;
  opts.slots = 16;
  opts.lanes = 2;
  switchml::AggregationSession clean(pisa::SwitchConfig{}, opts);
  const auto want_full = testkit::reduce(clean, workers);

  opts.loss_rate = mix.loss_rate;
  opts.loss_seed = seed * 11 + 3;
  opts.fault = mix.fault;
  switchml::AggregationSession session(pisa::SwitchConfig{}, opts);

  if (expects_abort(mix)) {
    try {
      (void)testkit::reduce(session, workers);
      ADD_FAILURE() << "kAbort worker death must surface WorkerDeadError";
    } catch (const fault::WorkerDeadError& e) {
      EXPECT_EQ(e.worker(), mix.fault.dead_worker);
      d.fold(e);
    }
    // Books intact after the typed failure.
    EXPECT_EQ(session.stats().dead_workers,
              1u << static_cast<unsigned>(mix.fault.dead_worker));
    EXPECT_GE(session.stats().faults.workers_declared_dead, 1u);
  } else {
    const auto got = testkit::reduce(session, workers);
    d.fold(got);
    if (mix.fault.dead_worker >= 0) {
      // Degrade: the survivors' clean sum, bit for bit.
      switchml::SessionOptions ref = opts;
      ref.num_workers = mix.num_workers - 1;
      ref.loss_rate = 0.0;
      ref.fault = {};
      switchml::AggregationSession survivor_ref(pisa::SwitchConfig{}, ref);
      expect_bits_equal(
          got, testkit::reduce(survivor_ref, survivors_of(workers,
                                                mix.fault.dead_worker)));
    } else {
      expect_bits_equal(got, want_full);
    }
    // No leaked dedup bits or partial sums behind a recovered run.
    EXPECT_EQ(session.fpisa_switch().occupied_slots(), 0);
  }
  totals += session.stats().faults;
  d.fold(session.stats());
  d.fold(session.fpisa_switch().dedup_hits());
  d.fold(session.fpisa_switch().sim().packets_processed());
  return d.h;
}

// Runs one seed through the cluster fabric; returns the run's digest: the
// result bits (or the typed error), every SessionStats field of the job
// and of each shard, and the fabric's cumulative books.
std::uint64_t run_cluster_seed(std::uint64_t seed, const fault::ChaosMix& mix,
                               fault::FaultCounters& totals) {
  Digest d;
  const auto workers =
      make_exact_workers(mix.num_workers, kVectorLen, seed * 7 + 1);

  cluster::ClusterOptions opts;
  opts.num_shards = mix.num_shards;
  opts.slots_per_shard = 16;
  opts.slots_per_job = 8;
  opts.lanes = 2;

  const auto clean_run = [&opts](const std::vector<std::vector<float>>& w) {
    cluster::ClusterOptions ref = opts;
    ref.loss_rate = 0.0;
    ref.fault = {};
    cluster::AggregationService svc(ref);
    return testkit::reduce(svc, "soak", w).result;
  };
  const auto want_full = clean_run(workers);

  opts.loss_rate = mix.loss_rate;
  opts.fault = mix.fault;
  cluster::AggregationService svc(opts);
  if (expects_abort(mix)) {
    try {
      (void)testkit::reduce(svc, "soak", workers);
      ADD_FAILURE() << "kAbort worker death must surface WorkerDeadError";
    } catch (const fault::WorkerDeadError& e) {
      EXPECT_EQ(e.worker(), mix.fault.dead_worker);
      d.fold(e);
    }
    // SLO and job books survive the typed failure.
    EXPECT_EQ(svc.jobs_failed(), 1u);
    EXPECT_EQ(svc.jobs_completed(), 0u);
    EXPECT_EQ(svc.tenant_slo("soak").jobs_failed, 1u);
  } else {
    const testkit::JobResult report = testkit::reduce(svc, "soak", workers);
    d.fold(report.result);
    d.fold(report.stats);
    for (const auto& shard : report.per_shard) d.fold(shard);
    if (mix.fault.dead_worker >= 0) {
      expect_bits_equal(report.result,
                        clean_run(survivors_of(workers,
                                               mix.fault.dead_worker)));
      EXPECT_EQ(report.stats.dead_workers,
                1u << static_cast<unsigned>(mix.fault.dead_worker));
    } else {
      expect_bits_equal(report.result, want_full);
    }
    EXPECT_EQ(svc.jobs_failed(), 0u);
    EXPECT_EQ(svc.jobs_completed(), 1u);
    totals += report.stats.faults;
  }
  d.fold(svc.total_stats());
  return d.h;
}

TEST(ChaosSoak, SeededFaultMixesConvergeOrFailTyped) {
  const int seeds = soak_seeds();
  fault::FaultCounters totals{};
  for (int s = 0; s < seeds; ++s) {
    const auto seed = static_cast<std::uint64_t>(s);
    const fault::ChaosMix mix = fault::draw_chaos_mix(seed);
    SCOPED_TRACE(repro(seed));
    if (mix.cluster) {
      run_cluster_seed(seed, mix, totals);
    } else {
      run_session_seed(seed, mix, totals);
    }
  }
  // The soak must actually exercise the machinery, not vacuously pass.
  EXPECT_GT(totals.corrupt_rejected + totals.stale_dups_rejected +
                totals.epoch_bumps + totals.waves_replayed,
            0u)
      << "no fault ever fired across " << seeds << " seeds";
}

// Golden books for chaos seeds 0..63, run exactly as the soak runs them.
// The digests were recorded before the guarded path's packet queue and
// dead-worker declaration were unified; any drift in results, error
// outcomes, SessionStats fields, dedup hits or switch packet counts shows
// up here even where the soak's own checks still pass.
TEST(ChaosSoak, GoldenDigestsPinTheGuardedPathBooks) {
  constexpr std::uint64_t kGolden[64] = {
      0x8c88403db19ebab6ULL, 0xaa692efe52c4bbf4ULL, 0xf7353090a40bcb5eULL,
      0x2839b24736beb7bfULL, 0x21ed6b0f96968b64ULL, 0x24bdcc3c3407d7eaULL,
      0x9487f203ca9bb30dULL, 0x98d0f920d6f38a37ULL, 0x912a2676fc0a2129ULL,
      0xfee0add9fa31370dULL, 0xec62d4bf0f0b2e28ULL, 0xbcada5a127ee9d95ULL,
      0xbab807796128b7ffULL, 0xed5e89fdfc719203ULL, 0xcbd1f5d2a17ee7e6ULL,
      0xa10d72740351da51ULL, 0xc243968075d92ddeULL, 0x53b71ad7fa42c9feULL,
      0xc64232100cc0dca1ULL, 0xfe19bb98aab1dd72ULL, 0x0d68b2cafdf01a09ULL,
      0xc9dac6a0c75115a9ULL, 0x3769f81d69ea02caULL, 0x3acf02bd20375fddULL,
      0x5e8b22388b2708fdULL, 0x6218ca0c06e010c6ULL, 0x42ad76b9be5e2b03ULL,
      0xc459d04049574182ULL, 0xbdcf73429ef8fdb3ULL, 0x61042478b5506fb3ULL,
      0xbedf342a0543f432ULL, 0x81dce8a109666a1cULL, 0x96517bf8d43df9edULL,
      0x41a7689ee3992337ULL, 0xadd251eb12c2f037ULL, 0xf36ecc85e94e21ddULL,
      0xba49d5106d54e3caULL, 0x6dff9e608246b305ULL, 0x3c6491b4a480b8b1ULL,
      0x2b655c5654df6537ULL, 0x9bbd1b43cc84425aULL, 0x9ba604060ac6f8a2ULL,
      0x5de157d37d00e66aULL, 0x9fa2cbb193595c3cULL, 0x3b61d71f95552abdULL,
      0x6225bea88b04ec72ULL, 0xe31023b5adf5d9c9ULL, 0x4b193ce1fc8f0ee2ULL,
      0xd7642a383c486359ULL, 0xba8914c76c802320ULL, 0x86a109f6cfbffe82ULL,
      0x7f3e6f4a45ffd1a0ULL, 0xe2449e999d74c5a8ULL, 0x7be6d72625a58a0bULL,
      0xe06a44e2f622ad9eULL, 0x284b809a139605a0ULL, 0x6315b9e627955436ULL,
      0x3dc7864dfa025609ULL, 0x1461fc9840c4ff80ULL, 0x597289798bb6dc49ULL,
      0xb32093947f2913a9ULL, 0x21d00771a2230846ULL, 0x5cb6707fca286c67ULL,
      0xa7ba3ef190fcba22ULL,
  };
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    const fault::ChaosMix mix = fault::draw_chaos_mix(seed);
    SCOPED_TRACE(repro(seed));
    fault::FaultCounters totals{};
    const std::uint64_t got = mix.cluster ? run_cluster_seed(seed, mix, totals)
                                          : run_session_seed(seed, mix, totals);
    EXPECT_EQ(got, kGolden[seed]) << "0x" << std::hex << got;
  }
}

// Replaying one seed twice is bit-for-bit stable — the property the
// "reproduce with example_chaos_demo --seed N" workflow depends on.
TEST(ChaosSoak, AnySeedReplaysIdentically) {
  for (const std::uint64_t seed : {2u, 3u}) {
    const fault::ChaosMix mix = fault::draw_chaos_mix(seed);
    if (expects_abort(mix)) continue;  // typed-throw path has no result
    SCOPED_TRACE(repro(seed));
    fault::FaultCounters t0{}, t1{};
    if (mix.cluster) {
      run_cluster_seed(seed, mix, t0);
      run_cluster_seed(seed, mix, t1);
    } else {
      run_session_seed(seed, mix, t0);
      run_session_seed(seed, mix, t1);
    }
    EXPECT_EQ(t0.corrupt_rejected, t1.corrupt_rejected);
    EXPECT_EQ(t0.stale_dups_rejected, t1.stale_dups_rejected);
    EXPECT_EQ(t0.waves_replayed, t1.waves_replayed);
  }
}

}  // namespace
}  // namespace fpisa
