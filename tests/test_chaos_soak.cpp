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

bool expects_abort(const fault::ChaosMix& mix) {
  return mix.fault.dead_worker >= 0 &&
         mix.fault.dead_worker_policy == fault::DeadWorkerPolicy::kAbort;
}

void run_session_seed(std::uint64_t seed, const fault::ChaosMix& mix,
                      fault::FaultCounters& totals) {
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
      FAIL() << "kAbort worker death must surface WorkerDeadError";
    } catch (const fault::WorkerDeadError& e) {
      EXPECT_EQ(e.worker(), mix.fault.dead_worker);
    }
    // Books intact after the typed failure.
    EXPECT_EQ(session.stats().dead_workers,
              1u << static_cast<unsigned>(mix.fault.dead_worker));
    EXPECT_GE(session.stats().faults.workers_declared_dead, 1u);
  } else {
    const auto got = testkit::reduce(session, workers);
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
}

void run_cluster_seed(std::uint64_t seed, const fault::ChaosMix& mix,
                      fault::FaultCounters& totals) {
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
      FAIL() << "kAbort worker death must surface WorkerDeadError";
    } catch (const fault::WorkerDeadError& e) {
      EXPECT_EQ(e.worker(), mix.fault.dead_worker);
    }
    // SLO and job books survive the typed failure.
    EXPECT_EQ(svc.jobs_failed(), 1u);
    EXPECT_EQ(svc.jobs_completed(), 0u);
    EXPECT_EQ(svc.tenant_slo("soak").jobs_failed, 1u);
  } else {
    const testkit::JobResult report = testkit::reduce(svc, "soak", workers);
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
