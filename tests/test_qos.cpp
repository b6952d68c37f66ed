// Multi-tenant admission control & QoS: token-bucket determinism under the
// virtual clock, weighted-deficit scheduler properties (priority
// overtaking, starvation-freedom), service-level admission (rate-limit /
// queue-bound / kBlock-deadline backpressure), the rejected-vs-failed SLO
// accounting invariant, bit-identical results with QoS on vs. off, and the
// mixed-workload harness (training + query + telemetry tenants sharing one
// cluster through the Communicator surface). Runs on the TSan CI leg.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <functional>
#include <future>
#include <limits>
#include <thread>
#include <vector>

#include "cluster/aggregation_service.h"
#include "collective/communicator.h"
#include "qos/qos.h"
#include "qos/rate_limiter.h"
#include "qos/scheduler.h"
#include "qos/virtual_clock.h"
#include "util/rng.h"
#include "testkit.h"

namespace fpisa {
namespace {

using cluster::AggregationService;
using cluster::ClusterOptions;
using cluster::JobReport;

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

bool wait_until(const std::function<bool()>& pred, int timeout_ms = 5000) {
  for (int i = 0; i < timeout_ms * 10; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  return pred();
}

// --- token bucket ----------------------------------------------------------

TEST(QosTokenBucket, ExactRefillUnderVirtualClock) {
  // rate 2 jobs/s, burst 2, starts full.
  qos::TokenBucket b(2.0, 2, 0);
  EXPECT_TRUE(b.try_acquire(1, 0));
  EXPECT_TRUE(b.try_acquire(1, 0));
  EXPECT_FALSE(b.try_acquire(1, 0));  // empty
  // One token regenerates in exactly 0.5 s.
  EXPECT_FALSE(b.try_acquire(1, 499'999'999));
  EXPECT_TRUE(b.try_acquire(1, 500'000'000));
  EXPECT_FALSE(b.try_acquire(1, 500'000'000));
  // Capacity clamps: a long sleep refills to burst, not beyond.
  EXPECT_TRUE(b.try_acquire(2, 60'000'000'000ull));
  EXPECT_FALSE(b.try_acquire(1, 60'000'000'000ull));
}

TEST(QosTokenBucket, NsUntilAvailableIsExact) {
  qos::TokenBucket b(4.0, 1, 0);  // 1 token per 250 ms
  EXPECT_TRUE(b.try_acquire(1, 0));
  const std::uint64_t wait = b.ns_until_available(1, 0);
  // The projected wait is exact: one ns early still fails, on time works.
  EXPECT_GT(wait, 0u);
  EXPECT_FALSE(b.try_acquire(1, wait - 1));
  EXPECT_TRUE(b.try_acquire(1, wait));
  // More jobs than capacity can never be served.
  qos::TokenBucket tiny(1.0, 2, 0);
  EXPECT_EQ(tiny.ns_until_available(3, 0),
            std::numeric_limits<std::uint64_t>::max());
}

TEST(QosTokenBucket, DeterministicReplay) {
  // Two buckets fed the same irregular clock script make byte-identical
  // decisions — the seed-reproducibility contract of the admission plane.
  const double rate = 3.7;
  qos::TokenBucket a(rate, 3, 0);
  qos::TokenBucket b(rate, 3, 0);
  util::Rng clock_rng(12345);
  std::uint64_t t = 0;
  int admitted = 0;
  for (int i = 0; i < 2000; ++i) {
    t += clock_rng.next_below(100'000'000);  // 0–100 ms steps
    const bool ra = a.try_acquire(1, t);
    const bool rb = b.try_acquire(1, t);
    ASSERT_EQ(ra, rb) << "diverged at step " << i;
    if (ra) ++admitted;
  }
  // Long-run admitted count is pinned by the rate: burst + rate*T, with no
  // drift from the integer math (allow the one-token boundary).
  const double seconds = static_cast<double>(t) * 1e-9;
  EXPECT_LE(admitted, static_cast<int>(3 + rate * seconds) + 1);
  EXPECT_GE(admitted, static_cast<int>(rate * seconds * 0.99) - 1);
}

TEST(QosTokenBucket, UnlimitedAndTinyRates) {
  qos::TokenBucket unlimited(0.0, 1, 0);
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(unlimited.try_acquire(1, 0));
  EXPECT_EQ(unlimited.ns_until_available(1, 0), 0u);
  // A rate small enough to round to zero in Q32 must still limit, not
  // silently become unlimited.
  qos::TokenBucket tiny(1e-12, 1, 0);
  EXPECT_FALSE(tiny.unlimited());
  EXPECT_TRUE(tiny.try_acquire(1, 0));
  EXPECT_FALSE(tiny.try_acquire(1, 1'000'000'000ull));
}

// --- weighted-deficit scheduler --------------------------------------------

TEST(QosScheduler, PriorityOvertaking) {
  // Telemetry queued first; training pushed later still pops first.
  qos::WeightedScheduler<int> sched({8, 2, 1});
  sched.push(qos::Priority::kTelemetry, 100);
  sched.push(qos::Priority::kTelemetry, 101);
  sched.push(qos::Priority::kQuery, 200);
  sched.push(qos::Priority::kTraining, 300);
  int v = 0;
  qos::Priority cls;
  ASSERT_TRUE(sched.pop(v, &cls));
  EXPECT_EQ(v, 300);
  EXPECT_EQ(cls, qos::Priority::kTraining);
  ASSERT_TRUE(sched.pop(v, &cls));
  EXPECT_EQ(v, 200);
  ASSERT_TRUE(sched.pop(v, &cls));
  EXPECT_EQ(v, 100);  // FIFO within a class
  ASSERT_TRUE(sched.pop(v, &cls));
  EXPECT_EQ(v, 101);
  EXPECT_FALSE(sched.pop(v));
}

TEST(QosScheduler, StarvationFreedomUnderSustainedHighPriorityLoad) {
  // Keep the training queue permanently non-empty; a lone telemetry job
  // must still be picked within one credit cycle (8 training picks + the
  // empty query class), never starved.
  qos::WeightedScheduler<int> sched({8, 2, 1});
  for (int i = 0; i < 64; ++i) sched.push(qos::Priority::kTraining, i);
  sched.push(qos::Priority::kTelemetry, 999);
  int picks_before_telemetry = 0;
  int v = 0;
  qos::Priority cls;
  for (;;) {
    ASSERT_TRUE(sched.pop(v, &cls));
    sched.push(qos::Priority::kTraining, 1000);  // sustained load
    if (cls == qos::Priority::kTelemetry) break;
    ASSERT_LT(++picks_before_telemetry, 12) << "telemetry starved";
  }
  EXPECT_EQ(v, 999);
  EXPECT_LE(picks_before_telemetry, 10);
}

TEST(QosScheduler, WeightsGuaranteeShares) {
  // With both classes saturated, a full cycle serves 8 training to every
  // 1 telemetry — the configured ratio, not strict priority.
  qos::WeightedScheduler<int> sched({8, 2, 1});
  for (int i = 0; i < 90; ++i) sched.push(qos::Priority::kTraining, i);
  for (int i = 0; i < 10; ++i) sched.push(qos::Priority::kTelemetry, i);
  int v = 0;
  for (int i = 0; i < 90; ++i) ASSERT_TRUE(sched.pop(v));
  EXPECT_EQ(sched.picks(qos::Priority::kTraining), 80u);
  EXPECT_EQ(sched.picks(qos::Priority::kTelemetry), 10u);
}

// --- service admission: rate limiting under the virtual clock --------------

ClusterOptions base_opts() {
  ClusterOptions opts;
  opts.num_shards = 4;
  opts.slots_per_shard = 64;
  opts.slots_per_job = 16;
  opts.loss_rate = 0.0;
  return opts;
}

TEST(QosService, RateLimitRejectsDeterministicallyUnderManualClock) {
  qos::ManualClock clock;
  ClusterOptions opts = base_opts();
  opts.qos.enabled = true;
  opts.qos.clock = &clock;
  qos::TenantQosConfig cfg;
  cfg.rate_jobs_per_s = 1.0;
  cfg.burst_jobs = 2;
  cfg.policy = qos::AdmissionPolicy::kReject;
  opts.qos.tenants["metered"] = cfg;
  AggregationService svc(opts);

  const auto workers = make_workers(2, 512, 7);
  const auto run = [&] {
    return testkit::reduce(svc, "metered", workers);
  };
  EXPECT_NO_THROW(run());  // burst token 1
  EXPECT_NO_THROW(run());  // burst token 2
  const auto packets_before = svc.tenant_stats("metered").packets_sent;
  try {
    run();
    FAIL() << "third job should be rate-limited";
  } catch (const qos::AdmissionRejectedError& e) {
    EXPECT_EQ(e.reason(), qos::RejectReason::kRateLimited);
    EXPECT_EQ(e.tenant(), "metered");
  }
  // A rejected job ran no protocol: packet books are untouched.
  EXPECT_EQ(svc.tenant_stats("metered").packets_sent, packets_before);
  clock.advance_s(1.0);  // exactly one token regenerates
  EXPECT_NO_THROW(run());
  EXPECT_THROW(run(), qos::AdmissionRejectedError);
  clock.advance_s(0.5);
  EXPECT_THROW(run(), qos::AdmissionRejectedError);
  clock.advance_s(0.5);
  EXPECT_NO_THROW(run());

  // The accounting invariant: rejections live in their own book — never in
  // jobs_failed (mirrors the PR 5 failed-vs-cumulative invariant).
  EXPECT_EQ(svc.jobs_completed(), 4u);
  EXPECT_EQ(svc.jobs_failed(), 0u);
  EXPECT_EQ(svc.jobs_rejected(), 3u);
  const cluster::TenantSlo slo = svc.tenant_slo("metered");
  EXPECT_EQ(slo.jobs_completed, 4u);
  EXPECT_EQ(slo.jobs_failed, 0u);
  EXPECT_EQ(slo.jobs_rejected, 3u);
}

TEST(QosService, QueueBoundRejectsWhenRunnerSaturated) {
  ClusterOptions opts = base_opts();
  opts.job_runner_threads = 1;
  opts.qos.enabled = true;
  qos::TenantQosConfig flood;
  flood.max_queued_jobs = 2;
  flood.policy = qos::AdmissionPolicy::kReject;
  opts.qos.tenants["flood"] = flood;
  AggregationService svc(opts);

  // Park the lone runner on a long job (high loss => ~25 sim round trips
  // per packet), then flood: with the runner busy, at most 2 flood jobs
  // may sit in the queue — the next submit gets typed backpressure.
  const auto long_workers = make_workers(2, 65536, 11);
  testkit::PendingJob blocker =
      testkit::submit(svc, "blocker", long_workers, 0.8, 512);
  ASSERT_TRUE(wait_until([&] {
    return svc.peak_concurrent_jobs() >= 1 &&
           svc.tenant_queue_depth("blocker") == 0;
  })) << "runner never picked up the blocker";

  const auto small = make_workers(2, 256, 13);
  std::vector<testkit::PendingJob> futs;
  bool rejected = false;
  qos::RejectReason reason = qos::RejectReason::kRateLimited;
  for (int i = 0; i < 20 && !rejected; ++i) {
    try {
      futs.push_back(testkit::submit(svc, "flood", small));
    } catch (const qos::AdmissionRejectedError& e) {
      rejected = true;
      reason = e.reason();
    }
  }
  EXPECT_TRUE(rejected) << "queue bound never enforced";
  EXPECT_EQ(reason, qos::RejectReason::kQueueFull);
  EXPECT_GE(svc.tenant_slo("flood").jobs_rejected, 1u);

  for (auto& f : futs) EXPECT_NO_THROW(f.get());
  EXPECT_NO_THROW(blocker.get());
  EXPECT_EQ(svc.jobs_failed(), 0u);
}

TEST(QosService, BlockPolicyWaitsThenAdmits) {
  ClusterOptions opts = base_opts();
  opts.qos.enabled = true;
  qos::TenantQosConfig cfg;
  cfg.rate_jobs_per_s = 20.0;  // one token per 50 ms
  cfg.burst_jobs = 1;
  cfg.policy = qos::AdmissionPolicy::kBlock;
  cfg.block_deadline_s = 5.0;
  opts.qos.tenants["patient"] = cfg;
  AggregationService svc(opts);

  const auto workers = make_workers(2, 256, 17);
  EXPECT_NO_THROW(testkit::reduce(svc, "patient", workers));
  // Bucket now empty: the second reduce blocks ~50 ms and succeeds.
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_NO_THROW(testkit::reduce(svc, "patient", workers));
  const double waited =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_GE(waited, 0.02);  // really blocked (scheduling slop tolerated)
  EXPECT_EQ(svc.jobs_rejected(), 0u);
  EXPECT_EQ(svc.jobs_completed(), 2u);
}

TEST(QosService, BlockPolicyDeadlineExpiresAsRejection) {
  ClusterOptions opts = base_opts();
  opts.qos.enabled = true;
  qos::TenantQosConfig cfg;
  cfg.rate_jobs_per_s = 0.01;  // next token in 100 s
  cfg.burst_jobs = 1;
  cfg.policy = qos::AdmissionPolicy::kBlock;
  cfg.block_deadline_s = 0.05;
  opts.qos.tenants["impatient"] = cfg;
  AggregationService svc(opts);

  const auto workers = make_workers(2, 256, 19);
  EXPECT_NO_THROW(testkit::reduce(svc, "impatient", workers));
  try {
    testkit::reduce(svc, "impatient", workers);
    FAIL() << "deadline should have expired";
  } catch (const qos::AdmissionRejectedError& e) {
    EXPECT_EQ(e.reason(), qos::RejectReason::kDeadline);
  }
  EXPECT_EQ(svc.jobs_rejected(), 1u);
  EXPECT_EQ(svc.jobs_failed(), 0u);
}

TEST(QosService, ConfigsWithoutANumericMeaningAreRejectedAtConstruction) {
  // Every admission converts block_deadline_s to nanoseconds: a NaN, an
  // infinity or 2^64 ns and more is no deadline (and undefined behaviour
  // to convert), whatever the policy. A NaN rate would read as unlimited.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const bool per_tenant : {false, true}) {
    const auto build = [&](double deadline_s, double rate) {
      ClusterOptions opts = base_opts();
      opts.qos.enabled = true;
      qos::TenantQosConfig cfg;
      cfg.block_deadline_s = deadline_s;
      cfg.rate_jobs_per_s = rate;
      if (per_tenant) {
        opts.qos.tenants["odd"] = cfg;
      } else {
        opts.qos.default_tenant = cfg;
      }
      AggregationService svc(opts);
    };
    for (const double d : {nan, inf, 1.9e10, 1e300}) {
      EXPECT_THROW(build(d, 0.0), std::invalid_argument)
          << "deadline " << d << " per_tenant=" << per_tenant;
    }
    EXPECT_THROW(build(1.0, nan), std::invalid_argument)
        << "per_tenant=" << per_tenant;
    // Still numbers: a negative or -inf deadline means "now", a deadline
    // just under 2^64 ns still converts, and any rate <= 0 is unlimited.
    EXPECT_NO_THROW(build(-inf, 0.0));
    EXPECT_NO_THROW(build(-1.0, -inf));
    EXPECT_NO_THROW(build(1.8e10, 5.0));
    EXPECT_NO_THROW(build(1.0, inf));
  }
  // With QoS off no admission runs, so no config is read.
  ClusterOptions off = base_opts();
  off.qos.default_tenant.block_deadline_s = nan;
  off.qos.tenants["odd"].rate_jobs_per_s = nan;
  EXPECT_NO_THROW(AggregationService svc(off));
}

// --- scheduler integration: overtaking on the job-runner pool ---------------

TEST(QosService, TrainingOvertakesQueuedTelemetry) {
  ClusterOptions opts = base_opts();
  opts.job_runner_threads = 1;
  opts.qos.enabled = true;
  qos::TenantQosConfig train;
  train.priority = qos::Priority::kTraining;
  qos::TenantQosConfig tel;
  tel.priority = qos::Priority::kTelemetry;
  opts.qos.tenants["train"] = train;
  opts.qos.tenants["tel"] = tel;
  AggregationService svc(opts);

  const auto long_workers = make_workers(2, 65536, 23);
  testkit::PendingJob blocker =
      testkit::submit(svc, "blocker", long_workers, 0.8, 512);
  ASSERT_TRUE(wait_until([&] {
    return svc.peak_concurrent_jobs() >= 1 &&
           svc.tenant_queue_depth("blocker") == 0;
  }));

  // Telemetry queued FIRST, training LAST — but job ids are assigned in
  // run order, so overtaking is directly observable.
  const auto small = make_workers(2, 256, 29);
  std::vector<testkit::PendingJob> tel_futs;
  for (int i = 0; i < 3; ++i) {
    tel_futs.push_back(testkit::submit(svc, "tel", small));
  }
  testkit::PendingJob train_fut = testkit::submit(svc, "train", small);
  // If the blocker is still running, nothing has been picked yet and the
  // overtaking assertion below is exact; a (pathologically slow) machine
  // that finished the blocker already only loses the strictness, not the
  // test.
  const bool strict = svc.jobs_completed() == 0;

  const JobReport train_report = train_fut.get();
  std::vector<JobReport> tel_reports;
  tel_reports.reserve(tel_futs.size());
  for (auto& f : tel_futs) tel_reports.push_back(f.get());
  if (strict) {
    for (const JobReport& r : tel_reports) {
      EXPECT_LT(train_report.job_id, r.job_id)
          << "training job did not overtake queued telemetry";
    }
  }
  EXPECT_GE(svc.class_picks(qos::Priority::kTraining), 1u);
  EXPECT_GE(svc.class_picks(qos::Priority::kTelemetry), 3u);
  EXPECT_NO_THROW(blocker.get());
  EXPECT_EQ(svc.jobs_failed(), 0u);
}

// --- bit-identical results with QoS on vs. off ------------------------------

TEST(QosService, ResultsBitIdenticalQosOnVsOff) {
  ClusterOptions off = base_opts();
  off.loss_rate = 0.4;  // exercise the full retransmission protocol
  ClusterOptions on = off;
  on.qos.enabled = true;
  on.qos.default_tenant.priority = qos::Priority::kTraining;
  AggregationService svc_off(off);
  AggregationService svc_on(on);

  for (int job = 0; job < 5; ++job) {
    const auto workers =
        make_workers(3, 2048 + static_cast<std::size_t>(job) * 100,
                     static_cast<std::uint64_t>(100 + job));
    const testkit::JobResult a = testkit::reduce(svc_off, "t", workers);
    const testkit::JobResult b = testkit::reduce(svc_on, "t", workers);
    ASSERT_EQ(a.result.size(), b.result.size());
    EXPECT_EQ(std::memcmp(a.result.data(), b.result.data(),
                          a.result.size() * sizeof(float)),
              0)
        << "job " << job << " diverged with QoS on";
    // The protocol itself is untouched too: same packets, same losses.
    EXPECT_EQ(a.stats.packets_sent, b.stats.packets_sent);
    EXPECT_EQ(a.stats.packets_lost, b.stats.packets_lost);
    EXPECT_EQ(a.stats.retransmissions, b.stats.retransmissions);
  }
}

// --- Communicator surface ---------------------------------------------------

TEST(QosCommunicator, FactoryWiresQosIntoClusterBackend) {
  collective::CommunicatorOptions copts;
  copts.backend = collective::Backend::kCluster;
  copts.cluster = base_opts();
  copts.qos.enabled = true;
  qos::TenantQosConfig cfg;
  cfg.rate_jobs_per_s = 1.0;
  cfg.burst_jobs = 1;
  cfg.policy = qos::AdmissionPolicy::kReject;
  copts.qos.tenants["metered"] = cfg;
  const auto comm = collective::make_communicator(copts);

  ASSERT_NE(comm->qos_options(), nullptr);
  EXPECT_TRUE(comm->qos_options()->enabled);
  // Backends without an admission plane expose none.
  const auto host = collective::make_communicator({});
  EXPECT_EQ(host->qos_options(), nullptr);

  const auto workers = make_workers(2, 512, 31);
  std::vector<float> out(512);
  const collective::WorkerViews views(workers);
  EXPECT_NO_THROW(comm->allreduce(views, out, collective::ReduceOp::kSum,
                                  "metered"));
  // Bucket empty: both the sync and async entry points reject — at call
  // time, with the typed error, not via a poisoned future.
  EXPECT_THROW(comm->allreduce(views, out, collective::ReduceOp::kSum,
                               "metered"),
               qos::AdmissionRejectedError);
  EXPECT_THROW(comm->submit(views, out, collective::ReduceOp::kSum,
                            "metered"),
               qos::AdmissionRejectedError);
  // And the uniform SLO surface carries the distinct rejection book.
  const collective::TenantSlo slo = comm->tenant_slo("metered");
  EXPECT_EQ(slo.jobs_completed, 1u);
  EXPECT_EQ(slo.jobs_failed, 0u);
  EXPECT_EQ(slo.jobs_rejected, 2u);
}

// --- mixed-workload harness -------------------------------------------------

TEST(QosService, MixedWorkloadThreeTenantsShareOneCluster) {
  // Training allreduce + query jobs + streaming telemetry EWMA, three
  // threads through ONE shared 4-shard cluster with QoS on: training gets
  // priority, telemetry is rate-limited with a tight queue bound, and
  // every book must balance when the dust settles.
  collective::CommunicatorOptions copts;
  copts.backend = collective::Backend::kCluster;
  copts.cluster = base_opts();
  copts.cluster.loss_rate = 0.1;
  copts.cluster.job_runner_threads = 2;
  copts.qos.enabled = true;
  qos::TenantQosConfig train;
  train.priority = qos::Priority::kTraining;
  qos::TenantQosConfig query;
  query.priority = qos::Priority::kQuery;
  qos::TenantQosConfig tel;
  tel.priority = qos::Priority::kTelemetry;
  tel.rate_jobs_per_s = 400.0;
  tel.burst_jobs = 4;
  tel.max_queued_jobs = 4;
  tel.policy = qos::AdmissionPolicy::kReject;
  copts.qos.tenants["training"] = train;
  copts.qos.tenants["query"] = query;
  copts.qos.tenants["telemetry"] = tel;
  const auto comm = collective::make_communicator(copts);
  auto& svc =
      dynamic_cast<collective::ClusterCommunicator&>(*comm).service();

  // Loss-free reference fabric with identical routing: sums are a pure
  // function of (workers, chunking), so every concurrent QoS-scheduled
  // result must match it bit for bit.
  AggregationService reference(base_opts());

  constexpr int kTrainJobs = 6;
  constexpr int kQueryJobs = 8;
  constexpr int kTelemetryJobs = 40;
  std::atomic<int> tel_rejected{0};
  std::atomic<bool> mismatch{false};

  std::thread train_thread([&] {
    collective::TenantHandle h = comm->tenant("training");
    for (int j = 0; j < kTrainJobs; ++j) {
      const auto workers =
          make_workers(4, 8192, 1000 + static_cast<std::uint64_t>(j));
      std::vector<float> out(8192);
      h.allreduce(workers, out);
      const testkit::JobResult ref =
          testkit::reduce(reference, "ref", workers);
      if (std::memcmp(out.data(), ref.result.data(),
                      out.size() * sizeof(float)) != 0) {
        mismatch.store(true);
      }
    }
  });
  std::thread query_thread([&] {
    collective::TenantHandle h = comm->tenant("query");
    for (int j = 0; j < kQueryJobs; ++j) {
      // Query-engine flavor: partial GROUP-BY aggregates merged across
      // two sites — an allreduce over the partial sums.
      const auto partials =
          make_workers(2, 1024, 2000 + static_cast<std::uint64_t>(j));
      std::vector<float> merged(1024);
      h.allreduce(partials, merged);
      const testkit::JobResult ref =
          testkit::reduce(reference, "ref", partials);
      if (std::memcmp(merged.data(), ref.result.data(),
                      merged.size() * sizeof(float)) != 0) {
        mismatch.store(true);
      }
    }
  });
  std::thread telemetry_thread([&] {
    collective::TenantHandle h = comm->tenant("telemetry");
    double ewma = 0.0;
    for (int j = 0; j < kTelemetryJobs; ++j) {
      const auto samples =
          make_workers(2, 64, 3000 + static_cast<std::uint64_t>(j));
      std::vector<float> reduced(64);
      try {
        h.allreduce(samples, reduced);
        ewma = 0.9 * ewma + 0.1 * static_cast<double>(reduced[0]);
      } catch (const qos::AdmissionRejectedError&) {
        tel_rejected.fetch_add(1);
      }
    }
    EXPECT_TRUE(std::isfinite(ewma));
  });
  train_thread.join();
  query_thread.join();
  telemetry_thread.join();

  EXPECT_FALSE(mismatch.load())
      << "QoS scheduling changed a job's aggregation result";
  // Books balance exactly: every submission is completed or rejected,
  // never lost, never misfiled as failed.
  EXPECT_EQ(svc.jobs_failed(), 0u);
  EXPECT_EQ(svc.jobs_completed() + svc.jobs_rejected(),
            static_cast<std::uint64_t>(kTrainJobs + kQueryJobs +
                                       kTelemetryJobs));
  EXPECT_EQ(svc.jobs_rejected(),
            static_cast<std::uint64_t>(tel_rejected.load()));
  const cluster::TenantSlo tel_slo = svc.tenant_slo("telemetry");
  EXPECT_EQ(tel_slo.jobs_completed + tel_slo.jobs_rejected,
            static_cast<std::uint64_t>(kTelemetryJobs));
  EXPECT_EQ(svc.tenant_slo("training").jobs_completed,
            static_cast<std::uint64_t>(kTrainJobs));
  EXPECT_EQ(svc.tenant_slo("query").jobs_completed,
            static_cast<std::uint64_t>(kQueryJobs));
}

}  // namespace
}  // namespace fpisa
