// Rack-scale aggregation: chunk->shard routing, slot-range isolation,
// the multi-tenant service runtime, and the two-level ToR->spine tree —
// including the acceptance property that the hierarchy is bit-identical
// to single-switch FPISA aggregation on the same inputs.
#include <gtest/gtest.h>

#include <cmath>
#include <future>
#include <limits>
#include <set>
#include <stdexcept>
#include <utility>

#include "cluster/aggregation_service.h"
#include "cluster/hierarchy.h"
#include "cluster/shard_router.h"
#include "core/packed.h"
#include "switchml/session.h"
#include "util/rng.h"
#include "wave_oracle.h"
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

/// Integer-valued magnitudes from one binade ([256, 512)): every FPISA-A
/// add is exact (alignment never drops set bits, exponent gaps stay inside
/// the left-shift headroom), so ANY grouping of the additions — flat,
/// sharded, or two-level tree — must produce bit-identical results.
std::vector<std::vector<float>> make_exact_workers(int w, std::size_t n,
                                                   std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::vector<float>> out(static_cast<std::size_t>(w),
                                      std::vector<float>(n));
  for (auto& vec : out) {
    for (auto& v : vec) {
      v = static_cast<float>(256 + rng.next_below(256));
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

// --- routing ---------------------------------------------------------------

TEST(ShardRouter, PartitionCoversEveryChunkExactlyOnce) {
  for (const RoutingPolicy policy :
       {RoutingPolicy::kHash, RoutingPolicy::kRange}) {
    for (const int shards : {1, 3, 4, 8}) {
      ShardRouter router(shards, policy, 7);
      const std::size_t total = 103;
      const auto parts = router.partition(total);
      ASSERT_EQ(parts.size(), static_cast<std::size_t>(shards));
      std::set<std::size_t> seen;
      for (int s = 0; s < shards; ++s) {
        for (const std::size_t c : parts[static_cast<std::size_t>(s)]) {
          EXPECT_EQ(router.route(c, total), s);
          EXPECT_TRUE(seen.insert(c).second) << "chunk assigned twice: " << c;
        }
      }
      EXPECT_EQ(seen.size(), total);
    }
  }
}

TEST(ShardRouter, RangePolicyIsContiguousAndBalanced) {
  ShardRouter router(4, RoutingPolicy::kRange);
  const auto parts = router.partition(10);  // 3,3,2,2
  ASSERT_EQ(parts.size(), 4u);
  std::size_t next = 0;
  for (const auto& p : parts) {
    ASSERT_FALSE(p.empty());
    EXPECT_GE(p.size(), 2u);
    EXPECT_LE(p.size(), 3u);
    for (const std::size_t c : p) EXPECT_EQ(c, next++);
  }
}

TEST(ShardRouter, HashPolicySpreadsChunks) {
  ShardRouter router(4, RoutingPolicy::kHash, 99);
  const auto parts = router.partition(4000);
  for (const auto& p : parts) {
    EXPECT_GT(p.size(), 700u);   // roughly balanced
    EXPECT_LT(p.size(), 1300u);
  }
}

// --- slot-range allocation -------------------------------------------------

TEST(SlotRangeAllocator, RangesAreDisjointAndCoalesceOnRelease) {
  SlotRangeAllocator alloc(16);
  const auto a = alloc.allocate(8);
  const auto b = alloc.allocate(8);
  ASSERT_TRUE(a && b);
  EXPECT_EQ(a->size() + b->size(), 16u);
  EXPECT_TRUE(a->hi <= b->lo || b->hi <= a->lo);
  EXPECT_FALSE(alloc.allocate(1));  // exhausted

  alloc.release(*a);
  EXPECT_EQ(alloc.free_slots(), 8u);
  alloc.release(*b);
  EXPECT_EQ(alloc.free_slots(), 16u);
  const auto all = alloc.allocate(16);  // coalesced back into one block
  ASSERT_TRUE(all);
  EXPECT_EQ(all->size(), 16u);
  alloc.release(*all);
}

TEST(SlotRangeAllocator, ShrinksRequestsRatherThanFailing) {
  SlotRangeAllocator alloc(8);
  const auto a = alloc.allocate(6);
  ASSERT_TRUE(a);
  const auto b = alloc.allocate(6);  // only 2 left: allocator hands them out
  ASSERT_TRUE(b);
  EXPECT_EQ(b->size(), 2u);
}

// --- service ---------------------------------------------------------------

TEST(ClusterService, MatchesSingleSwitchBitExactOnAnyInput) {
  // Per element, the service performs the same add sequence (worker order,
  // one register) as a single switch — results must be bit-identical even
  // on inputs where FPISA rounds.
  const auto workers = make_workers(4, 120, 91);

  switchml::SessionOptions sopts;
  sopts.num_workers = 4;
  sopts.slots = 16;
  sopts.lanes = 2;
  switchml::AggregationSession single(pisa::SwitchConfig{}, sopts);
  const auto want = testkit::reduce(single, workers);

  ClusterOptions copts;
  copts.num_shards = 4;
  copts.lanes = 2;
  copts.slots_per_shard = 16;
  copts.slots_per_job = 8;
  AggregationService service(copts);
  const auto report = testkit::reduce(service, "tenant-a", workers);

  ASSERT_EQ(report.result.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(core::fp32_bits(report.result[i]), core::fp32_bits(want[i]))
        << i;
  }
  EXPECT_EQ(report.stats.packets_lost, 0u);
  EXPECT_EQ(report.stats.retransmissions, 0u);
}

TEST(ClusterService, RoutingPoliciesAgreeBitwise) {
  const auto workers = make_workers(3, 77, 92);
  std::vector<float> results[2];
  int r = 0;
  for (const RoutingPolicy policy :
       {RoutingPolicy::kHash, RoutingPolicy::kRange}) {
    ClusterOptions opts;
    opts.num_shards = 4;
    opts.routing = policy;
    AggregationService service(opts);
    results[r++] = testkit::reduce(service, "t", workers).result;
  }
  for (std::size_t i = 0; i < results[0].size(); ++i) {
    EXPECT_EQ(core::fp32_bits(results[0][i]), core::fp32_bits(results[1][i]))
        << i;
  }
}

TEST(ClusterService, PerShardStatsSumToJobTotals) {
  ClusterOptions opts;
  opts.num_shards = 4;
  opts.slots_per_shard = 8;
  opts.slots_per_job = 4;
  AggregationService service(opts);
  const auto report = testkit::reduce(service, "t", make_workers(2, 64, 93));

  switchml::SessionStats sum{};
  int active_shards = 0;
  for (const auto& s : report.per_shard) {
    sum.packets_sent += s.packets_sent;
    sum.slot_reuses += s.slot_reuses;
    if (s.packets_sent) ++active_shards;
  }
  EXPECT_EQ(sum.packets_sent, report.stats.packets_sent);
  EXPECT_EQ(sum.slot_reuses, report.stats.slot_reuses);
  EXPECT_GT(active_shards, 1) << "sharding should engage multiple switches";
  EXPECT_EQ(service.jobs_completed(), 1u);
  EXPECT_EQ(service.total_stats().packets_sent, report.stats.packets_sent);
}

TEST(ClusterService, LossInjectionIsBitExactVsLossless) {
  const auto workers = make_exact_workers(4, 48, 94);
  ClusterOptions opts;
  opts.num_shards = 3;
  opts.slots_per_shard = 8;
  opts.slots_per_job = 4;

  AggregationService clean(opts);
  const auto want = testkit::reduce(clean, "t", workers).result;

  opts.loss_rate = 0.25;
  opts.loss_seed = 95;
  AggregationService lossy(opts);
  const auto report = testkit::reduce(lossy, "t", workers);

  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(core::fp32_bits(report.result[i]), core::fp32_bits(want[i]))
        << i;
  }
  EXPECT_GT(report.stats.packets_lost, 0u);
  EXPECT_GT(report.stats.retransmissions, 0u);
}

TEST(ClusterService, ShardTasksMatchPerPacketOracle) {
  // Every shard task must be observably indistinguishable from the
  // per-packet, per-slot protocol oracle run over the shard's planned chunk
  // list and slot range with the task's own loss stream: identical
  // results, per-shard protocol stats and kernel op counts, with and
  // without loss.
  const auto workers = make_workers(4, 150, 190);
  const std::vector<std::span<const float>> views(workers.begin(),
                                                  workers.end());
  for (const double loss : {0.0, 0.2, 0.4}) {
    SCOPED_TRACE(testing::Message() << "loss=" << loss);
    ClusterOptions opts;
    opts.num_shards = 3;
    opts.slots_per_shard = 16;
    opts.slots_per_job = 8;
    opts.lanes = 2;
    opts.loss_rate = loss;
    opts.loss_seed = 191;
    opts.max_retransmits = 256;
    AggregationService fast(opts);
    const auto got = testkit::reduce(fast, "t", workers);

    std::vector<float> want(150);
    const JobPlan plan = fast.planner().plan(75, std::vector<int>{0, 1, 2});
    for (int s = 0; s < opts.num_shards; ++s) {
      SCOPED_TRACE(s);
      pisa::FpisaProgramOptions p;
      p.variant = core::Variant::kApproximate;
      p.lanes = opts.lanes;
      p.slots = opts.slots_per_shard;
      pisa::FpisaSwitch sw(opts.switch_config, p);
      util::Rng rng(task_seed(opts.loss_seed, got.job_id, s, 0));
      switchml::SessionStats stats{};
      switchml::WaveJob job;
      job.workers = views;
      job.chunks = plan.chunks[static_cast<std::size_t>(s)];
      job.out = want;
      job.lo = 0;  // a fresh service hands its first job each range's start
      job.wave = plan.slots[static_cast<std::size_t>(s)];
      job.loss_rate = loss;
      job.max_retransmits = opts.max_retransmits;
      job.rng = &rng;
      job.stats = &stats;
      oracle::per_packet_run(sw, job);
      const auto& shard = got.per_shard[static_cast<std::size_t>(s)];
      EXPECT_EQ(shard.packets_sent, stats.packets_sent);
      EXPECT_EQ(shard.packets_lost, stats.packets_lost);
      EXPECT_EQ(shard.retransmissions, stats.retransmissions);
      EXPECT_EQ(shard.duplicates_absorbed, stats.duplicates_absorbed);
      EXPECT_EQ(shard.slot_reuses, stats.slot_reuses);
      EXPECT_EQ(fast.shard_stats(s).ops.adds, sw.op_counters().adds);
      EXPECT_EQ(fast.shard_stats(s).ops.rounded_adds,
                sw.op_counters().rounded_adds);
      EXPECT_EQ(fast.shard_stats(s).ops.overwrites,
                sw.op_counters().overwrites);
    }
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(core::fp32_bits(got.result[i]), core::fp32_bits(want[i]))
          << "i=" << i;
    }
  }
}

TEST(ClusterService, RejectsShardSwitchesTheWireCannotAddress) {
  // Release builds included: each shard switch checks its own shape.
  ClusterOptions opts;
  opts.lanes = 0;
  EXPECT_THROW(AggregationService{opts}, std::invalid_argument);
  opts.lanes = 1;
  opts.slots_per_shard = 0;
  EXPECT_THROW(AggregationService{opts}, std::invalid_argument);
  opts.slots_per_shard = 65537;  // slot ids are 16 bits on the wire
  EXPECT_THROW(AggregationService{opts}, std::invalid_argument);
}

TEST(ClusterService, RejectsLossParametersOutsideTheirRange) {
  // Release builds included, for the service's options and for a job's
  // overrides alike. A negative override still inherits the service's
  // value; NaN is not negative and is rejected rather than inherited.
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double bad : {kNaN, kInf, -0.1, 1.5}) {
    SCOPED_TRACE(bad);
    ClusterOptions opts;
    opts.loss_rate = bad;
    EXPECT_THROW(AggregationService{opts}, std::invalid_argument);
    opts = {};
    opts.fault.dup_rate = bad;
    EXPECT_THROW(AggregationService{opts}, std::invalid_argument);
  }
  ClusterOptions opts;
  opts.max_retransmits = -1;
  EXPECT_THROW(AggregationService{opts}, std::invalid_argument);

  AggregationService service(ClusterOptions{});
  const auto workers = make_workers(2, 32, 97);
  for (const double bad : {kNaN, kInf, 1.5}) {
    SCOPED_TRACE(bad);
    EXPECT_THROW(testkit::reduce(service, "t", workers, bad),
                 std::invalid_argument);
  }
  EXPECT_EQ(service.total_stats().packets_sent, 0u)
      << "rejected before the wire";
  EXPECT_NO_THROW(testkit::reduce(service, "t", workers, -1.0, -1));
  EXPECT_NO_THROW(testkit::reduce(service, "t", workers, 0.0, 0));
}

TEST(ClusterService, RetransmitExhaustionFailsLoudly) {
  ClusterOptions opts;
  opts.num_shards = 2;
  opts.loss_rate = 1.0;  // nothing ever gets through
  opts.max_retransmits = 2;
  AggregationService service(opts);
  EXPECT_THROW(testkit::reduce(service, "t", make_workers(2, 8, 96)),
               std::runtime_error);
}

TEST(ClusterService, FailedJobDoesNotPoisonNextTenant) {
  // A job that dies mid-flight has delivered some adds: its slots hold
  // partial sums and set dedup-bitmap bits. The service must scrub the
  // slot range before the next tenant reuses it, or that tenant's adds
  // get silently swallowed as duplicates.
  ClusterOptions opts;
  opts.num_shards = 2;
  opts.slots_per_shard = 4;
  opts.slots_per_job = 4;
  AggregationService service(opts);

  // Per-tenant override: terrible fabric (loss 0.5) and no patience
  // (max_retransmits 0): dies on first loss.
  EXPECT_THROW(testkit::reduce(service, "flaky",
                               make_exact_workers(2, 24, 120), 0.5, 0),
               std::runtime_error);

  const auto workers = make_exact_workers(2, 24, 121);
  const auto got = testkit::reduce(service, "stable", workers).result;
  AggregationService fresh(opts);
  const auto want = testkit::reduce(fresh, "stable", workers).result;
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(core::fp32_bits(got[i]), core::fp32_bits(want[i])) << i;
  }
}

TEST(ClusterService, ConcurrentTenantsAreIsolated) {
  // Three tenants race over 2 shards with a slot pool sized so they must
  // share: results must match each tenant's own exact sum, and per-tenant
  // accounting must see all three.
  ClusterOptions opts;
  opts.num_shards = 2;
  opts.slots_per_shard = 8;
  opts.slots_per_job = 4;
  AggregationService service(opts);

  const auto wa = make_workers(3, 60, 97);
  const auto wb = make_workers(4, 45, 98);
  const auto wc = make_workers(2, 80, 99);
  auto fa = testkit::submit(service, "alice", wa);
  auto fb = testkit::submit(service, "bob", wb);
  auto fc = testkit::submit(service, "carol", wc);
  const auto ra = fa.get();
  const auto rb = fb.get();
  const auto rc = fc.get();

  const auto check = [](const testkit::JobResult& r,
                        const std::vector<std::vector<float>>& w) {
    const auto ref = exact_sum(w);
    ASSERT_EQ(r.result.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i) {
      EXPECT_NEAR(r.result[i], ref[i], std::fabs(ref[i]) * 1e-5 + 1e-6) << i;
    }
  };
  check(ra, wa);
  check(rb, wb);
  check(rc, wc);

  EXPECT_EQ(service.jobs_completed(), 3u);
  const auto tenants = service.tenants();
  EXPECT_EQ(tenants.size(), 3u);
  EXPECT_GT(service.tenant_stats("alice").packets_sent, 0u);
  EXPECT_GT(service.tenant_stats("bob").packets_sent, 0u);
  EXPECT_GT(service.tenant_stats("carol").packets_sent, 0u);
  const auto total = service.total_stats();
  EXPECT_EQ(total.packets_sent, service.tenant_stats("alice").packets_sent +
                                    service.tenant_stats("bob").packets_sent +
                                    service.tenant_stats("carol").packets_sent);
}

TEST(ClusterService, BurstOf64SubmitsIsBoundedAndDeterministic) {
  // 64 concurrent submissions may never grow the thread count: the control
  // loops run on the bounded job-runner pool (here 3 threads), so the
  // job-concurrency high-water mark is capped at 3 no matter the burst
  // size — and every report must be identical to a lone job on a fresh
  // service (lossless fabric: results and stats are schedule-independent).
  ClusterOptions opts;
  opts.num_shards = 2;
  opts.slots_per_shard = 16;
  opts.slots_per_job = 8;
  opts.job_runner_threads = 3;
  AggregationService service(opts);
  ASSERT_EQ(service.job_runner_threads(), 3);

  const auto workers = make_workers(4, 96, 140);
  AggregationService fresh(opts);
  const auto want = testkit::reduce(fresh, "t", workers);

  constexpr int kBurst = 64;
  std::vector<testkit::PendingJob> futures;
  futures.reserve(kBurst);
  for (int j = 0; j < kBurst; ++j) {
    futures.push_back(testkit::submit(service, "t", workers));
  }
  for (auto& f : futures) {
    const testkit::JobResult got = f.get();
    ASSERT_EQ(got.result.size(), want.result.size());
    for (std::size_t i = 0; i < want.result.size(); ++i) {
      ASSERT_EQ(core::fp32_bits(got.result[i]),
                core::fp32_bits(want.result[i]))
          << i;
    }
    EXPECT_EQ(got.stats.packets_sent, want.stats.packets_sent);
    EXPECT_EQ(got.stats.slot_reuses, want.stats.slot_reuses);
    EXPECT_EQ(got.stats.packets_lost, 0u);
  }
  EXPECT_EQ(service.jobs_completed(), static_cast<std::uint64_t>(kBurst));
  EXPECT_GE(service.peak_concurrent_jobs(), 1u);
  EXPECT_LE(service.peak_concurrent_jobs(), 3u)
      << "burst must not run more jobs at once than the runner pool has "
         "threads";
}

TEST(ClusterService, ViewReduceIsBitExactVsOwningReduceWithoutCopies) {
  // The zero-copy JobView entry: gradients live in one flat caller buffer,
  // results land in a caller span, and the bits match a job over separate
  // per-worker vectors exactly — with and without loss.
  for (const double loss : {0.0, 0.2}) {
    ClusterOptions opts;
    opts.num_shards = 3;
    opts.slots_per_shard = 16;
    opts.slots_per_job = 8;
    opts.lanes = 2;
    opts.loss_rate = loss;
    opts.loss_seed = 150;
    opts.max_retransmits = 256;

    const auto workers = make_workers(4, 130, 151);
    AggregationService legacy_service(opts);
    const auto want = testkit::reduce(legacy_service, "t", workers);

    std::vector<float> flat;
    for (const auto& w : workers) flat.insert(flat.end(), w.begin(), w.end());
    std::vector<std::span<const float>> views;
    for (std::size_t w = 0; w < workers.size(); ++w) {
      views.push_back({flat.data() + w * 130, 130});
    }
    AggregationService service(opts);
    std::vector<float> out(130);
    const JobReport got = service.reduce(JobView{"t", views}, out);
    EXPECT_EQ(got.stats.packets_sent, want.stats.packets_sent) << loss;
    for (std::size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(core::fp32_bits(out[i]), core::fp32_bits(want.result[i]))
          << "loss=" << loss << " i=" << i;
    }
  }
}

TEST(ClusterService, ModeledSecondsGuardsDegenerateInputs) {
  // Satellite regression: empty shard lists, all-zero packet counts or a
  // non-positive line rate model no traffic — the answer is 0 seconds,
  // never NaN/inf/garbage.
  EXPECT_EQ(modeled_shard_parallel_seconds({}, 64, 100.0, 1.0), 0.0);
  const std::vector<switchml::SessionStats> idle(3);  // zero-packet shards
  EXPECT_EQ(modeled_shard_parallel_seconds(idle, 64, 100.0, 1.0), 0.0);
  switchml::SessionStats busy{};
  busy.packets_sent = 1000;
  const std::vector<switchml::SessionStats> mixed{busy, {}, {}};
  EXPECT_EQ(modeled_shard_parallel_seconds(mixed, 64, 0.0, 1.0), 0.0);
  EXPECT_EQ(modeled_shard_parallel_seconds(mixed, 0, 100.0, 1.0), 0.0);
  const double t = modeled_shard_parallel_seconds(mixed, 64, 100.0, 1.0);
  EXPECT_GT(t, 0.0);
  EXPECT_TRUE(std::isfinite(t));
}

TEST(ClusterService, TenantLookupIsHeterogeneous) {
  // Satellite: string_view / literal lookups must hit the tenant books
  // without materializing a temporary std::string (std::less<> map).
  ClusterOptions opts;
  opts.num_shards = 2;
  AggregationService service(opts);
  (void)testkit::reduce(service, "alice", make_workers(2, 16, 321));
  const std::string_view sv = "alice";
  EXPECT_GT(service.tenant_stats(sv).packets_sent, 0u);
  EXPECT_EQ(service.tenant_slo(sv).jobs_completed, 1u);
  EXPECT_EQ(service.tenant_stats("nobody").packets_sent, 0u);
  EXPECT_EQ(service.tenant_slo("nobody").jobs_completed, 0u);
}

// --- hierarchy -------------------------------------------------------------

TEST(Hierarchy, BitIdenticalToSingleSwitchWithFourLeaves) {
  // Acceptance property: a 2-level tree with 4 leaf shards produces the
  // exact bits of single-switch FPISA aggregation on the same inputs.
  HierarchyOptions opts;
  opts.leaves = 4;
  opts.workers_per_leaf = 2;
  opts.slots = 8;
  opts.lanes = 2;
  HierarchicalAggregator tree(opts);

  const auto workers = make_exact_workers(8, 72, 100);
  const std::vector<std::span<const float>> views(workers.begin(),
                                                  workers.end());
  std::vector<float> got(72);
  tree.reduce_into(views, got);

  switchml::SessionOptions sopts;
  sopts.num_workers = 8;
  sopts.slots = 8;
  sopts.lanes = 2;
  switchml::AggregationSession single(pisa::SwitchConfig{}, sopts);
  const auto want = testkit::reduce(single, workers);

  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(core::fp32_bits(got[i]), core::fp32_bits(want[i])) << i;
  }
  // And both equal the exact sum (these inputs make every add exact).
  const auto ref = exact_sum(workers);
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(static_cast<double>(got[i]), ref[i]) << i;
  }
}

TEST(Hierarchy, CloseToExactOnGaussianGradients) {
  HierarchyOptions opts;
  opts.leaves = 4;
  opts.workers_per_leaf = 2;
  opts.slots = 16;
  HierarchicalAggregator tree(opts);

  const auto workers = make_workers(8, 96, 101);
  const std::vector<std::span<const float>> views(workers.begin(),
                                                  workers.end());
  std::vector<float> got(96);
  tree.reduce_into(views, got);
  const auto ref = exact_sum(workers);
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_NEAR(got[i], ref[i], std::fabs(ref[i]) * 1e-4 + 1e-5) << i;
  }
}

TEST(Hierarchy, TimingModelIsConsistent) {
  HierarchyOptions opts;
  opts.leaves = 4;
  opts.workers_per_leaf = 2;
  opts.slots = 16;
  HierarchicalAggregator tree(opts);
  const auto workers = make_workers(8, 64, 102);
  const std::vector<std::span<const float>> views(workers.begin(),
                                                  workers.end());
  std::vector<float> out(64);
  tree.reduce_into(views, out);

  const HierarchyTiming& t = tree.timing();
  EXPECT_GT(t.leaf_done_s, 0.0);
  EXPECT_GT(t.done_s, t.leaf_done_s);  // spine + return hop come after
  EXPECT_GT(t.packets, 0u);
  EXPECT_EQ(t.wire_bytes, t.packets * tree.packet_bytes());
  EXPECT_GT(t.values_per_s(64), 0.0);

  // The tree's worker uplink load equals the flat switch's, so completion
  // times are comparable; the tree only adds the ToR->spine hop.
  const HierarchyTiming flat = flat_baseline_timing(opts, 64);
  EXPECT_GT(flat.done_s, 0.0);
  EXPECT_LT(t.done_s, flat.done_s * 3.0);
  // The spine terminates `leaves` flows instead of every worker's: the
  // tree moves fewer request packets into its root than the flat switch.
  EXPECT_LT(t.packets, flat.packets * 2);
}

TEST(Hierarchy, FullFpisaSpineSurvivesCancelledLeafPartials) {
  // Composition hazard: leaf 0's workers nearly cancel, so its partial
  // (2^-10) pins the spine's FPISA-A register exponent; the other leaves'
  // partials (-0.125, exponent gap exactly 7 = the headroom) left-shift
  // into the register and their sum wraps 32 bits — a value-scale error.
  // The default full-FPISA spine right-shifts the stored mantissa instead.
  const std::vector<std::vector<float>> workers = {
      {1.0009765625f}, {-1.0f},  // leaf 0: partial = 2^-10
      {-0.0625f}, {-0.0625f},    // leaf 1: partial = -0.125
      {-0.0625f}, {-0.0625f},    // leaf 2
      {-0.0625f}, {-0.0625f},    // leaf 3
  };
  const double ref = -0.375 + 0.0009765625;
  const std::vector<std::span<const float>> views(workers.begin(),
                                                  workers.end());

  HierarchyOptions opts;
  opts.leaves = 4;
  opts.workers_per_leaf = 2;
  opts.slots = 4;

  opts.full_fpisa_spine = false;  // FPISA-A spine: register wraps
  HierarchicalAggregator wrapping(opts);
  float bad = 0;
  wrapping.reduce_into(views, {&bad, 1});
  EXPECT_GT(std::fabs(static_cast<double>(bad) - ref), 0.1)
      << "expected the FPISA-A spine to wrap on this input";

  opts.full_fpisa_spine = true;  // extended spine: exact
  HierarchicalAggregator safe(opts);
  float good = 0;
  safe.reduce_into(views, {&good, 1});
  EXPECT_EQ(static_cast<double>(good), ref);
}

TEST(Hierarchy, RejectsZeroLanesAndBrokenTimingModels) {
  // Release builds included: zero lanes used to reach a division by zero
  // in reduce_into, and a bad rate makes every modeled time NaN or inf.
  const auto rejects = [](auto tweak) {
    HierarchyOptions opts;
    tweak(opts);
    EXPECT_THROW(HierarchicalAggregator{opts}, std::invalid_argument);
  };
  rejects([](HierarchyOptions& o) { o.lanes = 0; });
  rejects([](HierarchyOptions& o) { o.slots = 65537; });
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  for (const double bad : {0.0, -100.0, kInf, kNaN}) {
    SCOPED_TRACE(bad);
    rejects([bad](HierarchyOptions& o) { o.link_gbps = bad; });
    rejects([bad](HierarchyOptions& o) { o.pipeline_gbps = bad; });
  }
  for (const double bad : {-1.0, kInf, kNaN}) {
    SCOPED_TRACE(bad);
    rejects([bad](HierarchyOptions& o) { o.link_latency_us = bad; });
  }
  HierarchyOptions zero_latency;
  zero_latency.link_latency_us = 0.0;
  EXPECT_NO_THROW(HierarchicalAggregator{zero_latency});
}

TEST(Hierarchy, ScalesToEightLeaves) {
  HierarchyOptions opts;
  opts.leaves = 8;
  opts.workers_per_leaf = 2;
  opts.slots = 8;
  HierarchicalAggregator tree(opts);
  const auto workers = make_exact_workers(16, 40, 103);
  const std::vector<std::span<const float>> views(workers.begin(),
                                                  workers.end());
  std::vector<float> got(40);
  tree.reduce_into(views, got);
  const auto ref = exact_sum(workers);
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(static_cast<double>(got[i]), ref[i]) << i;
  }
}

}  // namespace
}  // namespace fpisa::cluster
