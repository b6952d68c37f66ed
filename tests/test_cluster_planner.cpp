// The cluster job planner, with no service and no threads: the plans a
// table of job shapes must get, the invariants every plan keeps (each
// chunk routed exactly once, no dead shard used, slot requests within
// slots_per_job), the replans after a shard death, and the typed errors
// for bad router, planner and allocator input in every build.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>
#include <vector>

#include "cluster/aggregation_service.h"
#include "cluster/shard_router.h"

namespace fpisa::cluster {
namespace {

using Lists = std::vector<std::vector<std::size_t>>;

std::vector<int> all_shards(int n) {
  std::vector<int> out;
  for (int s = 0; s < n; ++s) out.push_back(s);
  return out;
}

/// Invariants every plan of `total` chunks over `live` keeps.
void expect_sound(const JobPlan& plan, std::size_t total,
                  const std::vector<int>& live, std::size_t slots_per_job) {
  ASSERT_EQ(plan.chunks.size(), plan.slots.size());
  std::set<std::size_t> seen;
  for (std::size_t s = 0; s < plan.chunks.size(); ++s) {
    const auto& list = plan.chunks[s];
    EXPECT_TRUE(std::is_sorted(list.begin(), list.end())) << "shard " << s;
    if (std::find(live.begin(), live.end(), static_cast<int>(s)) ==
        live.end()) {
      EXPECT_TRUE(list.empty()) << "dead shard " << s << " used";
    }
    EXPECT_EQ(plan.slots[s], list.empty() ? 0u : slots_per_job)
        << "shard " << s;
    for (const std::size_t c : list) {
      EXPECT_LT(c, total);
      EXPECT_TRUE(seen.insert(c).second) << "chunk planned twice: " << c;
    }
  }
  EXPECT_EQ(seen.size(), total);
}

// --- first plans --------------------------------------------------------

struct Shape {
  std::size_t chunks;
  int shards;
  RoutingPolicy policy;
  std::uint64_t salt;
  std::vector<int> live;
  Lists want;
  std::size_t rerouted;
};

TEST(JobPlanner, TableOfShapesGetsTheirPlans) {
  // Recorded from the partition-then-fold placement the service used
  // before the planner existed; a shard outside `live` is hash-folded.
  const std::vector<Shape> table = {
      {10, 4, RoutingPolicy::kRange, 0x5eed, {0, 1, 2, 3},
       {{0, 1, 2}, {3, 4, 5}, {6, 7}, {8, 9}}, 0},
      {10, 4, RoutingPolicy::kRange, 0x5eed, {0, 1, 3},
       {{0, 1, 2}, {3, 4, 5, 7}, {}, {6, 8, 9}}, 2},
      {12, 3, RoutingPolicy::kHash, 7, {0, 1, 2},
       {{0, 4, 11}, {3, 5, 7, 10}, {1, 2, 6, 8, 9}}, 0},
      {12, 3, RoutingPolicy::kHash, 7, {1},
       {{}, {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, {}}, 8},
      {5, 8, RoutingPolicy::kRange, 0x5eed, {0, 1, 2, 3, 4, 5, 6, 7},
       {{0}, {1}, {2}, {3}, {4}, {}, {}, {}}, 0},
      {9, 4, RoutingPolicy::kHash, 0x5eed, {0, 2},
       {{0, 1, 2, 6}, {}, {3, 4, 5, 7, 8}, {}}, 3},
      {0, 2, RoutingPolicy::kHash, 0x5eed, {0, 1}, {{}, {}}, 0},
      {3, 1, RoutingPolicy::kHash, 0x5eed, {0}, {{0, 1, 2}}, 0},
  };
  for (const Shape& row : table) {
    SCOPED_TRACE(testing::Message()
                 << row.chunks << " chunks, " << row.shards << " shards, "
                 << routing_policy_name(row.policy) << ", "
                 << row.live.size() << " live");
    const JobPlanner planner(ShardRouter(row.shards, row.policy, row.salt),
                             8);
    const JobPlan plan = planner.plan(row.chunks, row.live);
    EXPECT_EQ(plan.chunks, row.want);
    EXPECT_EQ(plan.rerouted, row.rerouted);
    expect_sound(plan, row.chunks, row.live, 8);
  }
}

TEST(JobPlanner, EveryPlanRoutesEachChunkOnceOnLiveShardsOnly) {
  // Every live set of a 5-shard service, both policies, several sizes.
  for (const RoutingPolicy policy :
       {RoutingPolicy::kHash, RoutingPolicy::kRange}) {
    for (const std::size_t total : {1u, 7u, 64u, 333u}) {
      const JobPlanner planner(ShardRouter(5, policy, 11), 16);
      const Lists primary = ShardRouter(5, policy, 11).partition(total);
      for (unsigned mask = 1; mask < 32; ++mask) {
        std::vector<int> live;
        std::size_t off_live = 0;
        for (int s = 0; s < 5; ++s) {
          if (mask & (1u << s)) {
            live.push_back(s);
          } else {
            off_live += primary[static_cast<std::size_t>(s)].size();
          }
        }
        const JobPlan plan = planner.plan(total, live);
        expect_sound(plan, total, live, 16);
        EXPECT_EQ(plan.rerouted, off_live);
        if (off_live == 0) {
          EXPECT_EQ(plan.chunks, primary);
        }
      }
    }
  }
}

TEST(JobPlanner, SlotRequestsNeverExceedSlotsPerJob) {
  for (const std::size_t budget : {1u, 3u, 64u}) {
    const JobPlanner planner(ShardRouter(4, RoutingPolicy::kHash, 5),
                             budget);
    const JobPlan plan = planner.plan(1000, all_shards(4));
    for (const std::size_t want : plan.slots) {
      EXPECT_GT(want, 0u);
      EXPECT_LE(want, budget);
    }
  }
  EXPECT_THROW(JobPlanner(ShardRouter(4, RoutingPolicy::kHash), 0),
               std::invalid_argument);
}

// --- replans --------------------------------------------------------------

TEST(JobPlanner, FailoverAfterKillShardCoversOnlyTheUnfinishedChunks) {
  const JobPlanner planner(ShardRouter(4, RoutingPolicy::kHash, 0x5eed), 8);
  // Shard 3 was dead before the job; shard 1 dies in its first pass.
  const JobPlan first = planner.plan(12, std::vector<int>{0, 1, 2});
  EXPECT_EQ(first.chunks, (Lists{{0, 1, 2, 4, 6, 9}, {8, 10, 11}, {3, 5, 7},
                                 {}}));
  EXPECT_EQ(first.rerouted, 4u);

  const JobPlan retry = planner.failover(first, std::vector<int>{1},
                                         std::vector<int>{0, 2});
  EXPECT_EQ(retry.chunks, (Lists{{}, {}, {8, 10, 11}, {}}));
  EXPECT_EQ(retry.rerouted, 3u);
  EXPECT_EQ(retry.slots, (std::vector<std::size_t>{0, 0, 8, 0}));

  // Every shape: the retry runs exactly the dead shards' chunks, on
  // survivors only, and nothing the survivors already finished.
  for (const std::size_t total : {5u, 40u, 257u}) {
    const JobPlan plan = planner.plan(total, all_shards(4));
    for (int dead = 0; dead < 4; ++dead) {
      std::vector<int> live;
      for (int s = 0; s < 4; ++s) {
        if (s != dead) live.push_back(s);
      }
      const JobPlan next =
          planner.failover(plan, std::vector<int>{dead}, live);
      const auto& unfinished = plan.chunks[static_cast<std::size_t>(dead)];
      std::vector<std::size_t> got;
      for (std::size_t s = 0; s < next.chunks.size(); ++s) {
        if (static_cast<int>(s) == dead) {
          EXPECT_TRUE(next.chunks[s].empty());
        }
        got.insert(got.end(), next.chunks[s].begin(), next.chunks[s].end());
      }
      std::sort(got.begin(), got.end());
      EXPECT_EQ(got, unfinished);
      EXPECT_EQ(next.rerouted, unfinished.size());
    }
  }
}

TEST(JobPlanner, FailoverIsSaltStableAndPolicyIndependent) {
  // The fold depends on (chunk, salt, dead shard, live set) only: two
  // routing policies with one salt agree on where a corpse's chunks go.
  const JobPlanner a(ShardRouter(4, RoutingPolicy::kHash, 42), 8);
  const JobPlanner b(ShardRouter(4, RoutingPolicy::kRange, 42), 8);
  JobPlan last;
  last.chunks.assign(4, {});
  for (std::size_t c = 0; c < 61; ++c) last.chunks[2].push_back(c * 3);
  const std::vector<int> died{2};
  const std::vector<int> live{0, 1, 3};
  const JobPlan ra = a.failover(last, died, live);
  EXPECT_EQ(ra.chunks, b.failover(last, died, live).chunks);
  EXPECT_TRUE(ra.chunks[2].empty()) << "nothing may land on the corpse";
  EXPECT_EQ(ra.rerouted, 61u);
  // Survivors absorb the load roughly evenly (61 chunks over 3 shards).
  for (const int s : {0, 1, 3}) {
    EXPECT_GT(ra.chunks[static_cast<std::size_t>(s)].size(), 8u);
  }
  // A restricted survivor set: only the listed shards receive chunks.
  const JobPlan rr = a.failover(last, died, std::vector<int>{1, 3});
  EXPECT_TRUE(rr.chunks[0].empty());
  EXPECT_EQ(rr.chunks[1].size() + rr.chunks[3].size(), 61u);
}

TEST(JobPlanner, ReplayReplansTheWholeJobAndCountsOnlyNewDeaths) {
  const JobPlanner planner(ShardRouter(4, RoutingPolicy::kHash, 0x5eed), 8);
  // Shard 3 was already routed around; shard 1 died in the last pass.
  const JobPlan plan = planner.replay(12, std::vector<int>{0, 2},
                                      std::vector<int>{1});
  EXPECT_EQ(plan.chunks,
            (Lists{{0, 1, 2, 6, 9, 10}, {}, {3, 4, 5, 7, 8, 11}, {}}));
  EXPECT_EQ(plan.rerouted, 2u);  // shard 1's primary chunks only
  expect_sound(plan, 12, {0, 2}, 8);
  // No new death: the whole job again, nothing counted.
  const JobPlan again = planner.replay(12, all_shards(4), {});
  EXPECT_EQ(again.chunks, planner.plan(12, all_shards(4)).chunks);
  EXPECT_EQ(again.rerouted, 0u);
}

// --- typed input errors (every build) ---------------------------------------

TEST(JobPlanner, EmptyLiveSetIsATypedError) {
  const JobPlanner planner(ShardRouter(2, RoutingPolicy::kHash), 4);
  EXPECT_THROW(planner.plan(8, {}), NoLiveShardsError);
  EXPECT_THROW(planner.replay(8, {}, std::vector<int>{0, 1}),
               NoLiveShardsError);
  const JobPlan first = planner.plan(8, all_shards(2));
  EXPECT_THROW(planner.failover(first, std::vector<int>{0, 1}, {}),
               NoLiveShardsError);
}

TEST(JobPlanner, RejectsBadShardLists) {
  const JobPlanner planner(ShardRouter(4, RoutingPolicy::kHash), 4);
  const JobPlan first = planner.plan(32, all_shards(4));
  // Outside [0, num_shards), duplicated, or out of order.
  for (const std::vector<int>& live :
       {std::vector<int>{0, 4}, std::vector<int>{-1, 2},
        std::vector<int>{1, 1, 2}, std::vector<int>{2, 1}}) {
    EXPECT_THROW(planner.plan(32, live), std::invalid_argument);
    EXPECT_THROW(planner.failover(first, std::vector<int>{3}, live),
                 std::invalid_argument);
  }
  // The dead shard listed as live.
  EXPECT_THROW(planner.failover(first, std::vector<int>{1},
                                std::vector<int>{0, 1, 2}),
               std::invalid_argument);
  EXPECT_THROW(planner.replay(32, std::vector<int>{0, 1, 2},
                              std::vector<int>{2, 3}),
               std::invalid_argument);
  EXPECT_THROW(planner.failover(first, std::vector<int>{5},
                                std::vector<int>{0, 1}),
               std::invalid_argument);
}

TEST(ShardRouter, ChunkOutsideTheJobIsOutOfRange) {
  for (const RoutingPolicy policy :
       {RoutingPolicy::kHash, RoutingPolicy::kRange}) {
    const ShardRouter router(4, policy, 3);
    EXPECT_NO_THROW(router.route(9, 10));
    EXPECT_THROW(router.route(10, 10), std::out_of_range);
    EXPECT_THROW(router.route(0, 0), std::out_of_range);
  }
}

TEST(SlotRangeAllocator, ReleasePastThePoolIsOutOfRange) {
  SlotRangeAllocator alloc(8);
  const auto r = alloc.allocate(8);
  ASSERT_TRUE(r);
  EXPECT_THROW(alloc.release(SlotRange{6, 9}), std::out_of_range);
  EXPECT_EQ(alloc.free_slots(), 0u) << "a rejected release frees nothing";
  alloc.release(*r);
  EXPECT_EQ(alloc.free_slots(), 8u);
}

TEST(ClusterOptions, RejectsValuesThatWereSilentlyRewritten) {
  const auto rejects = [](auto edit) {
    ClusterOptions opts;
    opts.num_shards = 2;
    edit(opts);
    EXPECT_THROW(AggregationService{opts}, std::invalid_argument);
  };
  rejects([](ClusterOptions& o) { o.slots_per_job = 0; });
  rejects([](ClusterOptions& o) { o.job_runner_threads = -1; });
  rejects([](ClusterOptions& o) { o.failover.max_consecutive_failures = 0; });
  rejects([](ClusterOptions& o) { o.failover.max_reroutes_per_job = -1; });
  EXPECT_THROW(ShardHealth(2, 0), std::invalid_argument);
  // The boundary values themselves still construct.
  ClusterOptions ok;
  ok.num_shards = 2;
  ok.slots_per_job = 1;
  ok.job_runner_threads = 0;
  ok.failover.max_consecutive_failures = 1;
  ok.failover.max_reroutes_per_job = 0;
  EXPECT_NO_THROW(AggregationService{ok});
}

}  // namespace
}  // namespace fpisa::cluster
