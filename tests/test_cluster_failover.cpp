// Shard-failure failover: a dead or straggling shard must not stall every
// tenant's job. The matrix kills a shard before the job, mid-add-wave and
// mid-collect-wave and asserts (a) the job completes with a sum
// bit-identical to the no-failure run, (b) the re-route is visible in the
// failover counters and per-tenant SLO stats, (c) the corpse's ranges are
// scrubbed clean for the next tenant, and (d) jobs after the death route
// around it (degraded N-1 mode) without another retry pass.
#include <gtest/gtest.h>

#include <stdexcept>

#include "cluster/aggregation_service.h"
#include "cluster/hierarchy.h"
#include "cluster/shard_health.h"
#include "core/packed.h"
#include "util/rng.h"
#include "testkit.h"

namespace fpisa::cluster {
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

void expect_bits_eq(const std::vector<float>& got,
                    const std::vector<float>& want, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(core::fp32_bits(got[i]), core::fp32_bits(want[i]))
        << what << " i=" << i;
  }
}

ClusterOptions failover_options() {
  ClusterOptions opts;
  opts.num_shards = 4;
  opts.slots_per_shard = 16;
  opts.slots_per_job = 8;
  opts.lanes = 2;
  opts.failover.enabled = true;
  return opts;
}

// --- ShardHealth -----------------------------------------------------------

TEST(ShardHealth, ConsecutiveFailuresCrossThreshold) {
  ShardHealth health(3, /*max_consecutive_failures=*/2);
  EXPECT_EQ(health.num_alive(), 3);
  EXPECT_FALSE(health.record_failure(1));  // 1 of 2
  health.record_success(1);                // streak broken
  EXPECT_FALSE(health.record_failure(1));  // 1 of 2 again
  EXPECT_TRUE(health.record_failure(1));   // dead
  EXPECT_FALSE(health.alive(1));
  EXPECT_EQ(health.num_alive(), 2);
  EXPECT_EQ(health.deaths(), 1u);
  EXPECT_EQ(health.total_failures(1), 3u);
  EXPECT_EQ(health.alive_shards(), (std::vector<int>{0, 2}));

  health.mark_dead(0);
  EXPECT_EQ(health.deaths(), 2u);
  health.mark_dead(0);  // idempotent
  EXPECT_EQ(health.deaths(), 2u);
}

// --- failover matrix -------------------------------------------------------

TEST(Failover, KillMatrixBitIdenticalToHealthyRun) {
  const auto workers = make_workers(4, 200, 7);
  for (const FaultPhase phase :
       {FaultPhase::kBeforeJob, FaultPhase::kMidAdd,
        FaultPhase::kMidCollect}) {
    ClusterOptions healthy = failover_options();
    AggregationService ref(healthy);
    const auto want = testkit::reduce(ref, "t", workers);

    ClusterOptions opts = failover_options();
    opts.failover.faults = {ShardFault{1, FaultKind::kKill, phase, 0, 0.0}};
    AggregationService svc(opts);
    const auto got = testkit::reduce(svc, "t", workers);

    expect_bits_eq(got.result, want.result, "failover vs healthy");
    EXPECT_EQ(got.stats.shard_failures, 1u) << static_cast<int>(phase);
    EXPECT_EQ(got.stats.failover_retries, 1u) << static_cast<int>(phase);
    EXPECT_GT(got.stats.chunks_rerouted, 0u) << static_cast<int>(phase);
    EXPECT_FALSE(svc.health().alive(1));
    EXPECT_EQ(svc.health().deaths(), 1u);
    EXPECT_EQ(svc.jobs_completed(), 1u);
    EXPECT_EQ(svc.jobs_failed(), 0u);

    const TenantSlo slo = svc.tenant_slo("t");
    EXPECT_EQ(slo.jobs_completed, 1u);
    EXPECT_EQ(slo.jobs_failed, 0u);
    EXPECT_EQ(slo.jobs_failed_over, 1u);
    EXPECT_GT(slo.p50_wall_s, 0.0);
    EXPECT_GE(slo.p99_wall_s, slo.p50_wall_s);

    // Both cumulative surfaces must agree on the failover counters: the
    // job-level delta lands in total_stats() and the tenant books alike.
    EXPECT_EQ(svc.total_stats().failover_retries, 1u);
    EXPECT_EQ(svc.total_stats().shard_failures, 1u);
    EXPECT_EQ(svc.tenant_stats("t").failover_retries, 1u);
    EXPECT_EQ(svc.total_stats().chunks_rerouted,
              svc.tenant_stats("t").chunks_rerouted);

    // Degraded steady state: the next job routes around the corpse at
    // partition time — rerouted chunks, but no failure and no retry pass.
    const auto again = testkit::reduce(svc, "t", workers);
    expect_bits_eq(again.result, want.result, "degraded vs healthy");
    EXPECT_EQ(again.stats.shard_failures, 0u);
    EXPECT_EQ(again.stats.failover_retries, 0u);
    EXPECT_GT(again.stats.chunks_rerouted, 0u);
    EXPECT_EQ(svc.jobs_completed(), 2u);
    EXPECT_EQ(svc.tenant_slo("t").jobs_failed_over, 1u);
  }
}

TEST(Failover, FailoverUnderPacketLossStaysBitIdentical) {
  // Loss on every link AND a shard death: the retried chunks still land
  // bit-identical (per-chunk adds are worker-ordered and dedup'd on any
  // shard), and the healthy comparison run sees the identical loss
  // schedule on the surviving shards.
  const auto workers = make_workers(4, 160, 17);
  ClusterOptions opts = failover_options();
  opts.loss_rate = 0.2;
  opts.loss_seed = 18;
  opts.max_retransmits = 256;

  AggregationService ref(opts);
  const auto want = testkit::reduce(ref, "t", workers);

  opts.failover.faults = {
      ShardFault{2, FaultKind::kKill, FaultPhase::kMidAdd, 0, 0.0}};
  AggregationService svc(opts);
  const auto got = testkit::reduce(svc, "t", workers);

  expect_bits_eq(got.result, want.result, "lossy failover vs healthy");
  EXPECT_GT(got.stats.packets_lost, 0u);
  EXPECT_EQ(got.stats.failover_retries, 1u);
}

TEST(Failover, MidCollectThrowNeverLeaksDedupBitsIntoReusedRange) {
  // Regression: a mid-collect death leaves the wave's uncollected slots
  // with partial sums AND set dedup-bitmap bits. Whether the job fails
  // (failover off) or fails over, the range must be scrubbed before the
  // next tenant reuses it — otherwise that tenant's adds are silently
  // swallowed as duplicates.
  const auto workers = make_workers(2, 24, 27);
  for (const bool failover_on : {false, true}) {
    ClusterOptions opts;
    opts.num_shards = 2;
    opts.slots_per_shard = 4;
    opts.slots_per_job = 4;  // next tenant must land on the same slots
    opts.failover.enabled = failover_on;
    opts.failover.faults = {
        ShardFault{0, FaultKind::kKill, FaultPhase::kMidCollect, 0, 0.0}};
    AggregationService svc(opts);
    if (failover_on) {
      (void)testkit::reduce(svc, "doomed", workers);  // completes via failover
      EXPECT_EQ(svc.jobs_failed(), 0u);
    } else {
      EXPECT_THROW(testkit::reduce(svc, "doomed", workers), std::runtime_error);
      EXPECT_EQ(svc.jobs_failed(), 1u);
    }

    const auto next = make_workers(2, 24, 28);
    const auto got = testkit::reduce(svc, "fresh", next).result;
    ClusterOptions clean_opts = opts;
    clean_opts.failover.faults.clear();
    AggregationService clean(clean_opts);
    if (failover_on) clean.kill_shard(0);  // same degraded topology
    const auto want = testkit::reduce(clean, "fresh", next).result;
    expect_bits_eq(got, want, failover_on ? "failover reuse" : "fail reuse");
  }
}

TEST(Failover, FailedJobStatsInvariant) {
  // Satellite: the error path used to merge the failed job's per-shard
  // traffic into tenant/shard cumulative stats while never counting the
  // job anywhere. Invariant now pinned: failed jobs count in
  // jobs_failed(), their packets stay in the cumulative stats (they did
  // cross the wire), and tenant totals equal shard totals.
  const auto workers = make_workers(2, 48, 37);
  ClusterOptions opts;
  opts.num_shards = 2;
  opts.slots_per_shard = 8;
  opts.slots_per_job = 4;
  opts.failover.enabled = false;  // no recovery: the job must fail
  opts.failover.faults = {
      ShardFault{0, FaultKind::kKill, FaultPhase::kMidAdd, 0, 0.0}};
  AggregationService svc(opts);
  EXPECT_THROW(testkit::reduce(svc, "t", workers), std::runtime_error);

  EXPECT_EQ(svc.jobs_completed(), 0u);
  EXPECT_EQ(svc.jobs_failed(), 1u);
  const auto total = svc.total_stats();
  EXPECT_GT(total.packets_sent, 0u) << "failed traffic must stay accounted";
  EXPECT_EQ(svc.tenant_stats("t").packets_sent, total.packets_sent);
  EXPECT_EQ(svc.tenant_slo("t").jobs_failed, 1u);
  EXPECT_EQ(svc.tenant_slo("t").jobs_completed, 0u);

  // A later successful job keeps both books consistent.
  ClusterOptions ok_opts = opts;
  ok_opts.failover.faults.clear();
  AggregationService ok(ok_opts);
  (void)testkit::reduce(ok, "t", workers);
  EXPECT_EQ(ok.jobs_completed(), 1u);
  EXPECT_EQ(ok.jobs_failed(), 0u);
}

TEST(Failover, SlowdownStragglerCompletesWithoutDeath) {
  const auto workers = make_workers(3, 96, 47);
  ClusterOptions opts = failover_options();
  AggregationService ref(opts);
  const auto want = testkit::reduce(ref, "t", workers);

  opts.failover.faults = {ShardFault{
      0, FaultKind::kSlowdown, FaultPhase::kBeforeJob, 0, /*ms=*/15.0}};
  AggregationService svc(opts);
  const auto got = testkit::reduce(svc, "t", workers);

  expect_bits_eq(got.result, want.result, "straggler vs healthy");
  EXPECT_TRUE(svc.health().alive(0)) << "a straggler is slow, not dead";
  EXPECT_EQ(got.stats.failover_retries, 0u);
  const TenantSlo slo = svc.tenant_slo("t");
  EXPECT_EQ(slo.jobs_completed, 1u);
  EXPECT_EQ(slo.jobs_failed_over, 0u);
  EXPECT_GE(slo.p99_wall_s, 0.010)
      << "the injected per-wave stall must show up in job wall time";
}

TEST(Failover, AllShardsDeadFailsLoudly) {
  const auto workers = make_workers(2, 32, 57);
  ClusterOptions opts;
  opts.num_shards = 2;
  opts.failover.enabled = true;
  opts.failover.faults = {
      ShardFault{0, FaultKind::kKill, FaultPhase::kBeforeJob, 0, 0.0},
      ShardFault{1, FaultKind::kKill, FaultPhase::kBeforeJob, 0, 0.0}};
  AggregationService svc(opts);
  EXPECT_THROW(testkit::reduce(svc, "t", workers), std::runtime_error);
  EXPECT_EQ(svc.health().num_alive(), 0);
  EXPECT_EQ(svc.jobs_failed(), 1u);
  // With no fabric left, later jobs fail fast instead of hanging — and
  // the per-tenant SLO book must agree with the service-level counter.
  EXPECT_THROW(testkit::reduce(svc, "t", workers), std::runtime_error);
  EXPECT_EQ(svc.jobs_failed(), 2u);
  EXPECT_EQ(svc.tenant_slo("t").jobs_failed, 2u);
  EXPECT_EQ(svc.tenant_slo("t").jobs_completed, 0u);
}

TEST(Failover, KillShardRequiresFailoverAndValidates) {
  ClusterOptions opts;
  opts.num_shards = 2;
  {
    AggregationService svc(opts);
    EXPECT_THROW(svc.kill_shard(0), std::logic_error);
  }
  opts.failover.enabled = true;
  AggregationService svc(opts);
  EXPECT_THROW(svc.kill_shard(7), std::invalid_argument);
  svc.kill_shard(1);
  EXPECT_FALSE(svc.health().alive(1));

  // Degraded N-1 service still completes jobs, bit-identical.
  const auto workers = make_workers(2, 40, 67);
  const auto got = testkit::reduce(svc, "t", workers);
  AggregationService ref(opts);
  const auto want = testkit::reduce(ref, "t", workers);
  expect_bits_eq(got.result, want.result, "N-1 vs N");
  EXPECT_GT(got.stats.chunks_rerouted, 0u);
}

TEST(Failover, ConcurrentTenantsSurviveAShardDeath) {
  // A shard dies while many tenants contend for a tight slot pool: the
  // victim's retry releases every held range before re-acquiring (no
  // hold-and-wait), so the fleet drains — and every job, failed-over or
  // not, returns the same bits as a healthy run.
  const auto workers = make_workers(3, 120, 87);
  ClusterOptions opts = failover_options();
  opts.slots_per_shard = 8;  // one job's range fills a shard: real contention
  opts.slots_per_job = 8;
  opts.job_runner_threads = 4;
  opts.failover.faults = {
      ShardFault{0, FaultKind::kKill, FaultPhase::kMidAdd, 0, 0.0}};
  AggregationService svc(opts);

  AggregationService ref(failover_options());
  const auto want = testkit::reduce(ref, "t", workers).result;

  constexpr int kJobs = 16;
  std::vector<testkit::PendingJob> futures;
  futures.reserve(kJobs);
  for (int j = 0; j < kJobs; ++j) {
    futures.push_back(
        testkit::submit(svc, "tenant-" + std::to_string(j % 4), workers));
  }
  for (auto& f : futures) {
    expect_bits_eq(f.get().result, want, "concurrent failover");
  }
  EXPECT_EQ(svc.jobs_completed(), static_cast<std::uint64_t>(kJobs));
  EXPECT_EQ(svc.jobs_failed(), 0u);
  EXPECT_FALSE(svc.health().alive(0));
  EXPECT_EQ(svc.health().deaths(), 1u);
  EXPECT_EQ(svc.total_stats().shard_failures, 1u);
}

TEST(Failover, FaultTargetingUnknownShardIsRejected) {
  ClusterOptions opts;
  opts.num_shards = 2;
  opts.failover.faults = {
      ShardFault{5, FaultKind::kKill, FaultPhase::kBeforeJob, 0, 0.0}};
  EXPECT_THROW(AggregationService svc(opts), std::invalid_argument);
}

// --- hierarchy dead-leaf collapse ------------------------------------------

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

TEST(HierarchyFailover, DeadLeafCollapsesIntoSpineFanIn) {
  HierarchyOptions opts;
  opts.leaves = 4;
  opts.workers_per_leaf = 2;
  opts.slots = 8;
  opts.lanes = 2;
  const auto workers = make_exact_workers(8, 72, 77);
  const std::vector<std::span<const float>> views(workers.begin(),
                                                  workers.end());

  HierarchicalAggregator healthy(opts);
  std::vector<float> want(72);
  healthy.reduce_into(views, want);

  HierarchicalAggregator degraded(opts);
  degraded.kill_leaf(2);
  EXPECT_FALSE(degraded.leaf_alive(2));
  EXPECT_EQ(degraded.alive_leaves(), 3);
  std::vector<float> got(72);
  degraded.reduce_into(views, got);
  expect_bits_eq(got, want, "dead-leaf tree vs healthy tree");

  // The collapse is visible in the timing model: the same packets arrive,
  // and the spine still completes every chunk.
  EXPECT_GT(degraded.timing().done_s, 0.0);
  EXPECT_EQ(degraded.timing().packets, healthy.timing().packets - 72u / 2u)
      << "a dead ToR forwards no partials (one per chunk saved)";
}

TEST(HierarchyFailover, KillLeafValidates) {
  HierarchyOptions opts;
  opts.leaves = 2;
  opts.workers_per_leaf = 2;
  HierarchicalAggregator tree(opts);
  EXPECT_THROW(tree.kill_leaf(-1), std::invalid_argument);
  EXPECT_THROW(tree.kill_leaf(2), std::invalid_argument);
  tree.kill_leaf(0);
  tree.kill_leaf(0);  // idempotent
  EXPECT_THROW(tree.kill_leaf(1), std::invalid_argument)
      << "cannot kill the last leaf";

  // Spine bitmap capacity: 31 leaf-partial ids + 2 direct senders > 32.
  HierarchyOptions wide;
  wide.leaves = 31;
  wide.workers_per_leaf = 2;
  wide.slots = 4;
  HierarchicalAggregator big(wide);
  EXPECT_THROW(big.kill_leaf(0), std::invalid_argument);
}

}  // namespace
}  // namespace fpisa::cluster
