// The multi-core execution engine must be an invisible optimization: a
// pass's shard tasks claimed by the job's thread and the process's
// datapath pool (kWorkers, the default) produce bit-identical results,
// SessionStats, and switch state to the inline reference that runs every
// shard task on the job's own thread (kInline) — across loss rates up to
// 0.99, Byzantine fault mixes, mid-wave shard kills, and a 64-job
// concurrent burst. Also pins the CPU budget: a service starts only its
// job runners, a one-shard pass and an inline one post nothing to the
// pool, a wider pass posts a helper per shard past the first. The
// fork-join pool is tested on its own: concurrent callers posting
// overlapping worker sets (each task runs once, no join returns early),
// idle workers that are never woken and zero spurious wakeups, the
// 0-thread and idle pools, FanOut's back-off from a helper that kept its
// caller waiting, its claim loop (every item once, on any pool, behind a
// blocked worker and with no pool), and the mailbox under a
// multi-producer stress and across ring wraps (the TSan leg runs all of
// it).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cluster/aggregation_service.h"
#include "cluster/mailbox.h"
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

/// Full field-by-field SessionStats comparison — "bit-identical" covers the
/// protocol books, not just the sums.
void expect_stats_eq(const switchml::SessionStats& got,
                     const switchml::SessionStats& want, const char* what) {
  EXPECT_EQ(got.packets_sent, want.packets_sent) << what;
  EXPECT_EQ(got.packets_lost, want.packets_lost) << what;
  EXPECT_EQ(got.retransmissions, want.retransmissions) << what;
  EXPECT_EQ(got.duplicates_absorbed, want.duplicates_absorbed) << what;
  EXPECT_EQ(got.slot_reuses, want.slot_reuses) << what;
  EXPECT_EQ(got.shard_failures, want.shard_failures) << what;
  EXPECT_EQ(got.chunks_rerouted, want.chunks_rerouted) << what;
  EXPECT_EQ(got.failover_retries, want.failover_retries) << what;
  EXPECT_EQ(got.dead_workers, want.dead_workers) << what;
  EXPECT_EQ(got.faults.corrupt_rejected, want.faults.corrupt_rejected) << what;
  EXPECT_EQ(got.faults.stale_dups_rejected, want.faults.stale_dups_rejected)
      << what;
  EXPECT_EQ(got.faults.epoch_bumps, want.faults.epoch_bumps) << what;
  EXPECT_EQ(got.faults.workers_declared_dead,
            want.faults.workers_declared_dead)
      << what;
  EXPECT_EQ(got.faults.waves_replayed, want.faults.waves_replayed) << what;
}

/// Reference configuration: every shard task on the calling thread.
ClusterOptions serial_reference(ClusterOptions opts) {
  opts.dispatch = ClusterOptions::DispatchMode::kInline;
  return opts;
}

/// Runs one job under `opts` and under the serial reference, asserting
/// job-level AND cumulative observables are bit-identical.
void expect_matches_serial(const ClusterOptions& opts,
                           const std::vector<std::vector<float>>& workers,
                           const char* what) {
  AggregationService svc(opts);
  AggregationService ref(serial_reference(opts));
  const testkit::JobResult got = testkit::reduce(svc, "t", workers);
  const testkit::JobResult want = testkit::reduce(ref, "t", workers);
  expect_bits_eq(got.result, want.result, what);
  expect_stats_eq(got.stats, want.stats, what);
  ASSERT_EQ(got.per_shard.size(), want.per_shard.size()) << what;
  for (std::size_t s = 0; s < want.per_shard.size(); ++s) {
    expect_stats_eq(got.per_shard[s], want.per_shard[s], what);
  }
  // Switch-state / cumulative books: per-shard cumulative traffic and the
  // service totals must agree too (dispatch may not shift accounting
  // between shards).
  for (int s = 0; s < opts.num_shards; ++s) {
    expect_stats_eq(svc.shard_stats(s), ref.shard_stats(s), what);
  }
  expect_stats_eq(svc.total_stats(), ref.total_stats(), what);
}

// --- bit-exactness across the loss sweep -----------------------------------

TEST(ClusterPipeline, LossSweepBitIdenticalToSerial) {
  const auto workers = make_workers(4, 300, 11);
  for (const double loss : {0.0, 0.3, 0.9, 0.99}) {
    ClusterOptions opts;
    opts.num_shards = 4;
    opts.slots_per_shard = 16;
    opts.slots_per_job = 8;
    opts.lanes = 2;
    opts.loss_rate = loss;
    opts.loss_seed = 21;
    // Round-trip success probability is (1-loss)^2 — at 0.99 that is 1e-4
    // per try, so the budget must scale with the loss rate to keep the
    // per-packet exhaustion probability negligible.
    opts.max_retransmits = loss > 0.95 ? 500000 : 4096;
    opts.dispatch = ClusterOptions::DispatchMode::kWorkers;
    SCOPED_TRACE(loss);
    expect_matches_serial(opts, workers, "loss sweep");
  }
}

TEST(ClusterPipeline, DefaultShapeWorkersMatchesSerial) {
  // Mailbox workers at the default slot ranges and lanes.
  const auto workers = make_workers(3, 200, 31);
  ClusterOptions opts;
  opts.num_shards = 4;
  opts.loss_rate = 0.25;
  opts.loss_seed = 5;
  opts.max_retransmits = 256;
  opts.dispatch = ClusterOptions::DispatchMode::kWorkers;
  expect_matches_serial(opts, workers, "workers, default shape");
}

TEST(ClusterPipeline, AutoDispatchMatchesSerial) {
  // The default dispatch, whatever the datapath pool's size on this host:
  // the results are the same.
  const auto workers = make_workers(4, 160, 41);
  ClusterOptions opts;
  opts.num_shards = 4;
  opts.loss_rate = 0.1;
  opts.max_retransmits = 128;
  expect_matches_serial(opts, workers, "auto dispatch");
}

// --- fault mixes ------------------------------------------------------------

TEST(ClusterPipeline, ByzantineFaultMixBitIdenticalToSerial) {
  // Under the guarded protocol, mailbox dispatch, shard-local stats and
  // the join protocol must not move a single counter.
  const auto workers = make_workers(4, 240, 51);
  ClusterOptions opts;
  opts.num_shards = 4;
  opts.slots_per_shard = 16;
  opts.slots_per_job = 8;
  opts.lanes = 2;
  opts.loss_rate = 0.1;
  opts.max_retransmits = 512;
  opts.dispatch = ClusterOptions::DispatchMode::kWorkers;
  opts.fault.enabled = true;
  opts.fault.seed = 9;
  opts.fault.corrupt_rate = 0.05;
  opts.fault.dup_rate = 0.05;
  opts.fault.stale_dup_rate = 0.02;
  opts.fault.reorder_rate = 0.1;
  opts.fault.wipe_switch = true;
  opts.fault.wipe_wave = 1;
  expect_matches_serial(opts, workers, "byzantine mix");
}

// --- mid-wave shard kill ----------------------------------------------------

TEST(ClusterPipeline, MidWaveKillFailoverBitIdenticalToSerialAndHealthy) {
  const auto workers = make_workers(4, 200, 61);
  for (const FaultPhase phase : {FaultPhase::kMidAdd, FaultPhase::kMidCollect}) {
    for (const std::size_t wave : {std::size_t{0}, std::size_t{1}}) {
      ClusterOptions opts;
      opts.num_shards = 4;
      opts.slots_per_shard = 16;
      opts.slots_per_job = 8;
      opts.lanes = 2;
      opts.loss_rate = 0.15;
      opts.max_retransmits = 256;
      opts.dispatch = ClusterOptions::DispatchMode::kWorkers;
      opts.failover.enabled = true;
      opts.failover.faults = {
          ShardFault{1, FaultKind::kKill, phase, wave, 0.0}};
      SCOPED_TRACE(static_cast<int>(phase));
      SCOPED_TRACE(wave);
      expect_matches_serial(opts, workers, "mid-wave kill");

      // And the failed-over sum equals the healthy fabric's sum.
      AggregationService svc(opts);
      ClusterOptions healthy = opts;
      healthy.failover.faults.clear();
      AggregationService ref(healthy);
      const auto got = testkit::reduce(svc, "t", workers);
      expect_bits_eq(got.result, testkit::reduce(ref, "t", workers).result,
                     "failover vs healthy");
      EXPECT_EQ(got.stats.shard_failures, 1u);
      EXPECT_FALSE(svc.health().alive(1));
    }
  }
}

TEST(ClusterPipeline, MidWaveKillWithoutFailoverFailsIdentically) {
  // No failover: both engines must throw, and the partial traffic that did
  // cross the wire must be identically accounted.
  const auto workers = make_workers(2, 96, 71);
  ClusterOptions opts;
  opts.num_shards = 2;
  opts.slots_per_shard = 8;
  opts.slots_per_job = 4;
  opts.dispatch = ClusterOptions::DispatchMode::kWorkers;
  opts.failover.enabled = false;
  opts.failover.faults = {
      ShardFault{0, FaultKind::kKill, FaultPhase::kMidCollect, 1, 0.0}};
  AggregationService svc(opts);
  AggregationService ref(serial_reference(opts));
  EXPECT_THROW(testkit::reduce(svc, "t", workers), std::runtime_error);
  EXPECT_THROW(testkit::reduce(ref, "t", workers), std::runtime_error);
  expect_stats_eq(svc.total_stats(), ref.total_stats(), "failed-job books");
  EXPECT_EQ(svc.jobs_failed(), 1u);
  EXPECT_EQ(ref.jobs_failed(), 1u);
}

// --- concurrent burst -------------------------------------------------------

TEST(ClusterPipeline, SixtyFourJobBurstBitIdentical) {
  const auto workers = make_workers(4, 220, 81);
  ClusterOptions opts;
  opts.num_shards = 4;
  opts.slots_per_shard = 32;
  opts.slots_per_job = 8;
  opts.lanes = 2;
  opts.loss_rate = 0.2;
  opts.max_retransmits = 256;
  opts.job_runner_threads = 4;
  opts.dispatch = ClusterOptions::DispatchMode::kWorkers;
  AggregationService svc(opts);
  AggregationService ref(serial_reference(opts));

  // Each job's loss stream is seeded by its job_id, and the burst assigns
  // ids in whatever order the runners pick jobs up — so individual jobs
  // can't be paired with a reference job. But the SET of ids {0..63} is
  // deterministic, so the cumulative books must equal a serial 64-job run
  // exactly; and every result is bit-identical regardless of the draws.
  constexpr int kJobs = 64;
  const auto want = testkit::reduce(ref, "t", workers);
  for (int j = 1; j < kJobs; ++j) (void)testkit::reduce(ref, "t", workers);

  std::vector<testkit::PendingJob> futures;
  futures.reserve(kJobs);
  for (int j = 0; j < kJobs; ++j) {
    futures.push_back(
        testkit::submit(svc, "tenant-" + std::to_string(j % 8), workers));
  }
  for (auto& f : futures) {
    expect_bits_eq(f.get().result, want.result, "burst job");
  }
  EXPECT_EQ(svc.jobs_completed(), static_cast<std::uint64_t>(kJobs));
  EXPECT_EQ(svc.jobs_failed(), 0u);
  expect_stats_eq(svc.total_stats(), ref.total_stats(), "burst books");
  for (int s = 0; s < opts.num_shards; ++s) {
    expect_stats_eq(svc.shard_stats(s), ref.shard_stats(s), "burst shard");
  }
}

// --- one CPU budget: shard passes on the datapath pool ---------------------

/// Tickets ever posted to the process's datapath pool, all workers.
std::uint64_t datapath_tickets() {
  const ForkJoinPool& pool = datapath_pool();
  std::uint64_t n = 0;
  for (int w = 0; w < pool.size(); ++w) n += pool.stats(w).enqueued;
  return n;
}

TEST(ClusterPipeline, ServiceStartsOnlyItsJobRunners) {
  // Once the datapath pool is up, a service adds its job runners to the
  // process and nothing else: its passes run on the job's thread and the
  // shared pool, under either dispatch mode, synchronous or submitted.
  (void)datapath_pool();
  const auto workers = make_workers(4, 300, 61);
  for (const auto mode : {ClusterOptions::DispatchMode::kWorkers,
                          ClusterOptions::DispatchMode::kInline}) {
    SCOPED_TRACE(mode == ClusterOptions::DispatchMode::kWorkers ? "workers"
                                                                : "inline");
    const long baseline = testkit::process_threads();
    ASSERT_GT(baseline, 0);
    {
      ClusterOptions opts;
      opts.num_shards = 4;
      opts.slots_per_shard = 16;
      opts.slots_per_job = 8;
      opts.lanes = 2;
      opts.dispatch = mode;
      AggregationService svc(opts);
      const long runners = svc.job_runner_threads();
      EXPECT_EQ(testkit::process_threads(), baseline + runners);
      for (int j = 0; j < 4; ++j) (void)testkit::reduce(svc, "t", workers);
      std::vector<testkit::PendingJob> futures;
      for (int j = 0; j < 4; ++j) {
        futures.push_back(testkit::submit(svc, "t", workers));
      }
      for (auto& f : futures) (void)f.get();
      EXPECT_EQ(testkit::process_threads(), baseline + runners);
    }
    EXPECT_EQ(testkit::process_threads(), baseline);
  }
}

TEST(ClusterPipeline, PassPostsAHelperPerActiveShardPastTheFirst) {
  // kRange routing with a one-chunk vector puts every pass on shard 0: the
  // job's thread runs it and the pool gets no ticket. A four-shard pass
  // posts a helper for each shard past the first, up to the pool's size,
  // and the helpers' workers never wake to an empty cell. The passes run
  // on a fresh thread: each calling thread keeps its own helper count, and
  // this one's has not backed off.
  ClusterOptions opts;
  opts.num_shards = 4;
  opts.lanes = 4;
  opts.routing = RoutingPolicy::kRange;
  opts.dispatch = ClusterOptions::DispatchMode::kWorkers;
  AggregationService svc(opts);

  const std::uint64_t before = datapath_tickets();
  const auto one_chunk = make_workers(2, 4, 91);
  const auto four_shards = make_workers(2, 256, 92);  // 64 chunks
  std::uint64_t after_one_chunk = 0;
  testkit::JobResult r;
  std::thread caller([&] {
    for (int j = 0; j < 8; ++j) (void)testkit::reduce(svc, "t", one_chunk);
    after_one_chunk = datapath_tickets();
    r = testkit::reduce(svc, "t", four_shards);
  });
  caller.join();
  EXPECT_EQ(after_one_chunk, before) << "a one-shard pass posted";
  for (int s = 0; s < opts.num_shards; ++s) {
    ASSERT_GT(r.per_shard[static_cast<std::size_t>(s)].packets_sent, 0u)
        << "shard " << s << " ran no pass";
  }
  const auto helpers = static_cast<std::uint64_t>(
      std::min(opts.num_shards - 1, datapath_pool().size()));
  EXPECT_EQ(datapath_tickets(), before + helpers);
  for (int w = 0; w < datapath_pool().size(); ++w) {
    EXPECT_EQ(datapath_pool().stats(w).spurious_wakeups, 0u) << "worker " << w;
  }
}

TEST(ClusterPipeline, InlineDispatchPostsNoTicket) {
  ClusterOptions opts;
  opts.num_shards = 4;
  opts.lanes = 2;
  opts.dispatch = ClusterOptions::DispatchMode::kInline;
  AggregationService svc(opts);
  const std::uint64_t before = datapath_tickets();
  const auto workers = make_workers(2, 300, 101);
  (void)testkit::reduce(svc, "t", workers);
  EXPECT_EQ(datapath_tickets(), before);
  // A service owns no mailbox: every per-shard count reads zero.
  for (int s = 0; s < opts.num_shards; ++s) {
    const MailboxStats m = svc.mailbox_stats(s);
    EXPECT_EQ(m.enqueued + m.wakeups + m.spurious_wakeups, 0u);
  }
  EXPECT_THROW(svc.mailbox_stats(-1), std::invalid_argument);
  EXPECT_THROW(svc.mailbox_stats(4), std::invalid_argument);
}

// --- SPSC mailbox stress (TSan target) --------------------------------------

TEST(ClusterPipeline, MailboxMultiProducerStress) {
  // Many producers hammer one consumer through the ring (the service's
  // real shape: concurrent job runners posting to one shard worker). Every
  // ticket must arrive exactly once; per-producer sequences stay ordered
  // (the ticket fetch_add linearizes producers; the ring is FIFO).
  constexpr int kProducers = 4;
  constexpr std::uint64_t kPerProducer = 20000;
  ShardMailbox<std::uint64_t> box(64);  // small ring: exercise the full-spin
  std::vector<std::uint64_t> last_seen(kProducers, 0);
  std::uint64_t received = 0;
  std::thread consumer([&] {
    const std::uint64_t total = kPerProducer * kProducers;
    while (received < total) {
      const std::uint64_t v = box.pop_wait();
      const auto p = static_cast<std::size_t>(v >> 32);
      const std::uint64_t seq = v & 0xffffffffu;
      ASSERT_LT(p, static_cast<std::size_t>(kProducers));
      ASSERT_EQ(seq, last_seen[p] + 1) << "producer " << p << " reordered";
      last_seen[p] = seq;
      ++received;
    }
  });
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&box, p] {
      for (std::uint64_t i = 1; i <= kPerProducer; ++i) {
        box.push((static_cast<std::uint64_t>(p) << 32) | i);
      }
    });
  }
  for (auto& t : producers) t.join();
  consumer.join();
  EXPECT_EQ(received, kPerProducer * kProducers);
  const MailboxStats stats = box.stats();
  EXPECT_EQ(stats.enqueued, kPerProducer * kProducers);
  for (std::size_t p = 0; p < last_seen.size(); ++p) {
    EXPECT_EQ(last_seen[p], kPerProducer);
  }
}

TEST(ClusterPipeline, MailboxRingWrapAndCapacityCheck) {
  // A capacity that is not a power of two >= 2 is a caller error.
  for (const std::size_t bad : {0u, 1u, 3u, 6u, 100u}) {
    EXPECT_THROW(ShardMailbox<int>{bad}, std::invalid_argument) << bad;
  }
  EXPECT_THROW(ForkJoinPool(2, 3), std::invalid_argument);
  // Three laps of a 4-cell ring through pop_wait, filling it each lap:
  // every cell is recycled and FIFO order holds across the wrap. A
  // non-empty ring never parks the consumer.
  ShardMailbox<int> box(4);
  int next = 0;
  for (int lap = 0; lap < 3; ++lap) {
    for (int i = 0; i < 4; ++i) box.push(lap * 4 + i);
    for (int i = 0; i < 4; ++i) ASSERT_EQ(box.pop_wait(), next++);
  }
  // Interleaved: one in, one out, across the wrap point again.
  for (int i = 0; i < 9; ++i) {
    box.push(next);
    ASSERT_EQ(box.pop_wait(), next++);
  }
  const MailboxStats stats = box.stats();
  EXPECT_EQ(stats.enqueued, 21u);
  EXPECT_EQ(stats.wakeups, 0u);
}

// --- the fork-join pool (TSan target) ---------------------------------------

TEST(ForkJoinPool, ConcurrentCallersOverlappingWorkersRunEachTaskOnce) {
  // Several callers post to overlapping worker sets of one pool at once,
  // as concurrent job runners do. Every task must run exactly once per
  // post, and a join must not return before its tasks are done: each task
  // writes a plain (non-atomic) word the caller reads after the join, so a
  // join that returned early reads a stale word here and races under TSan.
  constexpr int kWorkers = 4;
  constexpr int kCallers = 4;
  constexpr int kRounds = 3000;
  ForkJoinPool pool(kWorkers, 2);  // 2-cell rings: posts spin when full
  ASSERT_EQ(pool.size(), kWorkers);
  struct Round {
    int id = 0;
    std::atomic<int> runs[kWorkers] = {};
    int seen[kWorkers] = {};
  };
  const ForkJoinPool::Fn task = [](void* ctx, int w) noexcept {
    auto& r = *static_cast<Round*>(ctx);
    if (w % 2 == 1) std::this_thread::yield();  // finish late
    r.seen[w] = r.id;
    r.runs[w].fetch_add(1, std::memory_order_relaxed);
  };
  std::atomic<int> errors{0};
  std::vector<std::uint64_t> posted(kCallers * kWorkers, 0);
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      util::Rng rng(static_cast<std::uint64_t>(c) + 1);
      for (int i = 1; i <= kRounds; ++i) {
        Round r;
        r.id = i;
        const std::uint64_t mask = rng.next_below(1u << kWorkers);
        ForkJoinPool::Join join;
        for (int w = 0; w < kWorkers; ++w) {
          if ((mask >> w & 1u) == 0) continue;
          pool.post(w, join, task, &r, w);
          ++posted[static_cast<std::size_t>(c * kWorkers + w)];
        }
        pool.wait(join);
        for (int w = 0; w < kWorkers; ++w) {
          const bool want = (mask >> w & 1u) != 0;
          if (r.runs[w].load(std::memory_order_relaxed) != (want ? 1 : 0) ||
              r.seen[w] != (want ? i : 0)) {
            errors.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(errors.load(), 0);
  for (int w = 0; w < kWorkers; ++w) {
    std::uint64_t want = 0;
    for (int c = 0; c < kCallers; ++c) {
      want += posted[static_cast<std::size_t>(c * kWorkers + w)];
    }
    const MailboxStats stats = pool.stats(w);
    EXPECT_EQ(stats.enqueued, want) << "worker " << w;
    // No wait returns with the worker's next cell still empty.
    EXPECT_EQ(stats.spurious_wakeups, 0u) << "worker " << w;
  }
}

TEST(ForkJoinPool, IdleWorkersAreNeverWokenAndNoSpuriousWakeups) {
  // Tasks posted to worker 0 alone: the other workers sleep through every
  // round. Per-cell futex parking notifies a worker only for a ticket it
  // is about to consume, so no wakeup finds its cell still empty.
  constexpr int kWorkers = 4;
  constexpr int kRounds = 8;
  ForkJoinPool pool(kWorkers, 4);
  std::atomic<int> runs{0};
  const ForkJoinPool::Fn task = [](void* n, int) noexcept {
    static_cast<std::atomic<int>*>(n)->fetch_add(1);
  };
  for (int i = 0; i < kRounds; ++i) {
    ForkJoinPool::Join join;
    pool.post(0, join, task, &runs, 0);
    pool.wait(join);
  }
  EXPECT_EQ(runs.load(), kRounds);
  EXPECT_EQ(pool.stats(0).enqueued, static_cast<std::uint64_t>(kRounds));
  for (int w = 1; w < kWorkers; ++w) {
    EXPECT_EQ(pool.stats(w).enqueued, 0u) << "idle worker " << w;
    EXPECT_EQ(pool.stats(w).wakeups, 0u) << "idle worker " << w;
  }
  for (int w = 0; w < kWorkers; ++w) {
    EXPECT_EQ(pool.stats(w).spurious_wakeups, 0u) << "worker " << w;
  }
}

TEST(ForkJoinPool, ZeroThreadPoolJoinsAtOnce) {
  // The datapath pool is one on a one-CPU host: the caller runs
  // everything.
  const long baseline = testkit::process_threads();
  ForkJoinPool pool(0, 4);
  EXPECT_EQ(pool.size(), 0);
  EXPECT_EQ(testkit::process_threads(), baseline);
  ForkJoinPool::Join join;
  pool.wait(join);  // nothing posted: returns without parking
}

TEST(ForkJoinPool, IdlePoolStopsAndJoinsItsThreads) {
  const long baseline = testkit::process_threads();
  ASSERT_GT(baseline, 0);
  {
    ForkJoinPool pool(3, 4);
    EXPECT_EQ(testkit::process_threads(), baseline + 3);
    for (int w = 0; w < pool.size(); ++w) {
      EXPECT_EQ(pool.stats(w).enqueued, 0u);
    }
  }
  EXPECT_EQ(testkit::process_threads(), baseline);
}

TEST(FanOut, PostsNoHelperAfterOneKeptTheCallerWaitingUntilCalm) {
  // The one worker is busy with another caller's task, so the fan-out's
  // helper keeps the caller waiting far longer than its own share took:
  // the next fan-outs run on the caller alone, and after eight of those a
  // helper is posted again.
  ForkJoinPool pool(1, 4);
  std::atomic<bool> release{false};
  const ForkJoinPool::Fn block = [](void* flag, int) noexcept {
    while (!static_cast<std::atomic<bool>*>(flag)->load()) {
      std::this_thread::yield();
    }
  };
  ForkJoinPool::Join other;
  pool.post(0, other, block, &release, 0);
  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    release = true;
  });
  std::atomic<int> helpers{0};
  const ForkJoinPool::Fn count = [](void* n, int member) noexcept {
    if (member > 0) static_cast<std::atomic<int>*>(n)->fetch_add(1);
  };
  FanOut fan;
  fan.run(pool, 1, count, &helpers);
  releaser.join();
  pool.wait(other);
  EXPECT_EQ(helpers.load(), 1);
  for (int i = 0; i < 8; ++i) fan.run(pool, 1, count, &helpers);
  EXPECT_EQ(helpers.load(), 1);
  fan.run(pool, 1, count, &helpers);
  EXPECT_EQ(helpers.load(), 2);
}

TEST(FanOut, TwoFanOutsPostTheirFirstHelpersToDifferentWorkers) {
  // Each FanOut starts its helpers at a worker of its own, so two callers'
  // one-helper fan-outs do not queue on one worker while the others idle.
  ForkJoinPool pool(3, 4);
  const ForkJoinPool::Fn noop = [](void*, int) noexcept {};
  FanOut a;
  FanOut b;
  a.run(pool, 1, noop, nullptr);
  b.run(pool, 1, noop, nullptr);
  int used = 0;
  for (int w = 0; w < pool.size(); ++w) {
    EXPECT_LE(pool.stats(w).enqueued, 1u) << "worker " << w;
    used += pool.stats(w).enqueued > 0 ? 1 : 0;
  }
  EXPECT_EQ(used, 2);
}

// --- FanOut's claim loop ----------------------------------------------------

/// Counts each for_each item's runs and flags a member id outside
/// [0, pool size] or an item run off the caller when none may be.
struct Tally {
  static constexpr std::size_t kMax = 10;
  std::atomic<int> runs[kMax] = {};
  std::atomic<int> done{0};
  std::atomic<int> bad_members{0};
  std::atomic<int> off_caller{0};
  int pool_size = 0;
  std::thread::id caller = std::this_thread::get_id();
};

const FanOut::Item tally = [](void* ctx, int member,
                              std::size_t item) noexcept {
  Tally& t = *static_cast<Tally*>(ctx);
  if (member < 0 || member > t.pool_size) t.bad_members.fetch_add(1);
  if (std::this_thread::get_id() != t.caller) t.off_caller.fetch_add(1);
  if (item < Tally::kMax) t.runs[item].fetch_add(1);
  t.done.fetch_add(1);
};

void expect_each_once(const Tally& t, std::size_t n, const char* what) {
  for (std::size_t i = 0; i < Tally::kMax; ++i) {
    EXPECT_EQ(t.runs[i].load(), i < n ? 1 : 0)
        << what << ": n " << n << ", item " << i;
  }
  EXPECT_EQ(t.bad_members.load(), 0) << what << ": n " << n;
}

TEST(FanOut, ForEachRunsEveryItemOnceOnAnyPool) {
  // One FanOut across every count, so its helper count moves as it will.
  for (const int workers : {0, 1, 3}) {
    ForkJoinPool pool(workers, 4);
    FanOut fan;
    for (std::size_t n = 0; n < Tally::kMax; ++n) {
      Tally t;
      t.pool_size = workers;
      fan.for_each(&pool, n, static_cast<int>(n) - 1, tally, &t);
      expect_each_once(t, n, workers == 0   ? "0 workers"
                             : workers == 1 ? "1 worker"
                                            : "3 workers");
    }
  }
}

TEST(FanOut, ForEachRunsEveryItemOnceBehindABlockedWorker) {
  // Worker 0 is busy with another caller's task for the whole fan-out:
  // the caller and the other helpers claim every item, and the helper
  // queued behind the block finds none left once it runs.
  const ForkJoinPool::Fn block = [](void* flag, int) noexcept {
    while (!static_cast<std::atomic<bool>*>(flag)->load()) {
      std::this_thread::yield();
    }
  };
  for (const int workers : {1, 3}) {
    ForkJoinPool pool(workers, 4);
    for (std::size_t n = 0; n < Tally::kMax; ++n) {
      std::atomic<bool> release{false};
      ForkJoinPool::Join other;
      pool.post(0, other, block, &release, 0);
      Tally t;
      t.pool_size = workers;
      FanOut fan;  // fresh: posts a helper to every worker it may
      std::thread caller([&] {
        t.caller = std::this_thread::get_id();
        fan.for_each(&pool, n, static_cast<int>(n) - 1, tally, &t);
      });
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(30);
      while (t.done.load() < static_cast<int>(n) &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
      }
      EXPECT_EQ(t.done.load(), static_cast<int>(n))
          << workers << " workers: items left behind the blocked worker";
      release = true;
      caller.join();
      pool.wait(other);
      expect_each_once(t, n, workers == 1 ? "1 worker" : "3 workers");
    }
  }
}

TEST(FanOut, ForEachWithoutAPoolRunsEveryItemOnTheCaller) {
  FanOut fan;
  for (std::size_t n = 0; n < Tally::kMax; ++n) {
    Tally t;
    fan.for_each(nullptr, n, static_cast<int>(n) - 1, tally, &t);
    expect_each_once(t, n, "no pool");
    EXPECT_EQ(t.off_caller.load(), 0) << "n " << n;
  }
}

}  // namespace
}  // namespace fpisa::cluster
