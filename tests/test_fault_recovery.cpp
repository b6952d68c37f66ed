// End-to-end recovery coverage for the guarded protocol: corrupted,
// duplicated, reordered and stale-duplicate deliveries never change the
// aggregated bits; a wiped switch is recovered by wave replay; the
// stamps the switch hands back with each collect are the ones its guard
// expects; a dead
// worker either aborts with a typed error or degrades to the survivor sum
// — at the session, cluster and collective layers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "cluster/aggregation_service.h"
#include "collective/communicator.h"
#include "core/packed.h"
#include "fault/fault.h"
#include "switchml/session.h"
#include "util/rng.h"
#include "testkit.h"

namespace fpisa {
namespace {

/// One-binade integer magnitudes: every FPISA add is exact, so any
/// absorbed duplicate or lost contribution shows up as a bit difference.
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

switchml::SessionOptions base_session_opts() {
  switchml::SessionOptions opts;
  opts.num_workers = 4;
  opts.slots = 16;  // chunks = 48 -> 3 waves: slot reuse happens
  opts.lanes = 2;
  return opts;
}

std::vector<float> clean_reduce(const std::vector<std::vector<float>>& workers,
                                switchml::SessionOptions opts) {
  opts.num_workers = static_cast<int>(workers.size());
  opts.loss_rate = 0.0;
  opts.fault = {};
  switchml::AggregationSession session(pisa::SwitchConfig{}, opts);
  return testkit::reduce(session, workers);
}

void expect_bits_equal(const std::vector<float>& got,
                       const std::vector<float>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(core::fp32_bits(got[i]), core::fp32_bits(want[i])) << "i=" << i;
  }
}

TEST(SessionFaults, CorruptionIsDetectedAndRetransmitted) {
  auto opts = base_session_opts();
  const auto workers = make_exact_workers(4, 96, 210);
  const auto want = clean_reduce(workers, opts);

  opts.loss_rate = 0.1;
  opts.fault.enabled = true;
  opts.fault.seed = 21;
  opts.fault.corrupt_rate = 0.3;
  switchml::AggregationSession session(pisa::SwitchConfig{}, opts);
  expect_bits_equal(testkit::reduce(session, workers), want);
  EXPECT_GT(session.stats().faults.corrupt_rejected, 0u);
  EXPECT_EQ(session.fpisa_switch().occupied_slots(), 0);
}

TEST(SessionFaults, DuplicatesAndReorderingAreAbsorbed) {
  auto opts = base_session_opts();
  const auto workers = make_exact_workers(4, 96, 211);
  const auto want = clean_reduce(workers, opts);

  opts.fault.enabled = true;
  opts.fault.seed = 22;
  opts.fault.dup_rate = 0.4;
  opts.fault.reorder_rate = 0.6;
  switchml::AggregationSession session(pisa::SwitchConfig{}, opts);
  expect_bits_equal(testkit::reduce(session, workers), want);
  EXPECT_EQ(session.fpisa_switch().occupied_slots(), 0);
}

// Satellite regression: a delayed duplicate that lands AFTER its slot was
// reset and reused (round-robin) must be rejected by the epoch stamp, not
// absorbed as a fresh contribution.
TEST(SessionFaults, StaleDuplicateAfterSlotReuseIsRejected) {
  auto opts = base_session_opts();
  const auto workers = make_exact_workers(4, 96, 212);
  const auto want = clean_reduce(workers, opts);

  opts.fault.enabled = true;
  opts.fault.seed = 23;
  opts.fault.stale_dup_rate = 1.0;  // every delivery leaves a ghost behind
  switchml::AggregationSession session(pisa::SwitchConfig{}, opts);
  expect_bits_equal(testkit::reduce(session, workers), want);
  // 3 waves: every wave-0 and wave-1 ghost re-arrives one wave later,
  // after its slot's reset bumped the epoch.
  EXPECT_GT(session.stats().faults.stale_dups_rejected, 0u);
  EXPECT_EQ(session.fpisa_switch().occupied_slots(), 0);
}

// The half of the regression that pins WHY the stamp exists: the plain
// (unguarded) admit absorbs exactly this stale duplicate, because the
// slot reset cleared the dedup bit that would have caught it.
TEST(SessionFaults, PlainAdmitWouldAbsorbTheStaleDuplicate) {
  pisa::FpisaProgramOptions p;
  p.lanes = 1;
  p.slots = 2;
  pisa::SwitchConfig cfg;
  cfg.ext.rsaw = true;  // full FPISA needs the RSAW extension
  cfg.ext.two_operand_shift = true;
  pisa::FpisaSwitch sw(cfg, p);

  const std::vector<std::uint16_t> slots{0};
  const std::vector<std::uint8_t> workers{1};
  const std::vector<std::uint32_t> values{core::fp32_bits(5.0f)};
  const std::uint32_t stamp = sw.slot_stamp(0);
  const std::vector<std::uint32_t> stamps{stamp};
  const std::vector<std::uint16_t> sums{
      pisa::fpisa_checksum(0, 1, stamp, values)};

  // Epoch e: worker 1 contributes, the slot completes and is recycled.
  const std::vector<const std::byte*> payloads{
      std::as_bytes(std::span(values)).data()};
  testkit::admit_and_gather(sw, slots, workers, payloads);
  std::vector<std::uint32_t> drained(1);
  testkit::release_and_drain(sw, 0, drained);
  ASSERT_EQ(sw.occupied_slots(), 0);

  // Epoch e+1: the delayed duplicate of the epoch-e packet arrives.
  // Unguarded: the cleared bitmap treats it as fresh — state changes.
  testkit::admit_and_gather(sw, slots, workers, payloads);
  EXPECT_EQ(sw.occupied_slots(), 1)
      << "baseline: the plain path DOES absorb the stale duplicate";
  testkit::release_and_drain(sw, 0, drained);

  // Guarded: the stamp pins the packet to epoch e; the slot is now at a
  // later epoch, so the duplicate is dropped before touching registers.
  pisa::FpisaSwitch::GuardStats guard;
  testkit::guarded_ingress(sw, slots, workers, stamps, sums, values, guard);
  EXPECT_EQ(guard.stale_rejected, 1u);
  EXPECT_EQ(sw.occupied_slots(), 0);
}

TEST(SessionFaults, SwitchWipeIsRecoveredByWaveReplay) {
  auto opts = base_session_opts();
  const auto workers = make_exact_workers(4, 96, 213);
  const auto want = clean_reduce(workers, opts);

  opts.fault.enabled = true;
  opts.fault.seed = 24;
  opts.fault.wipe_switch = true;
  opts.fault.wipe_wave = 1;  // state loss after wave 1's adds landed
  switchml::AggregationSession session(pisa::SwitchConfig{}, opts);
  expect_bits_equal(testkit::reduce(session, workers), want);
  EXPECT_GE(session.stats().faults.waves_replayed, 1u);
  EXPECT_GE(session.stats().faults.epoch_bumps, 1u);
  EXPECT_EQ(session.fpisa_switch().occupied_slots(), 0);
}

TEST(SessionFaults, SwitchHandsBackTheStampsTheGuardExpects) {
  // The guard's stamps come back from the switch with every collect. Over
  // 125 waves at 1% loss, with one wipe and no other injection, a stamp
  // the switch did not expect would be rejected and its contribution lost:
  // none is, and the sums and the loss books match the plain run's. Two
  // reduces: the second starts from the epochs the first left behind.
  auto opts = base_session_opts();
  opts.slots = 8;
  opts.lanes = 4;
  opts.loss_rate = 0.01;
  opts.loss_seed = 7;
  const auto workers = make_exact_workers(4, 125 * 8 * 4, 214);
  switchml::AggregationSession plain(pisa::SwitchConfig{}, opts);
  opts.fault.enabled = true;
  opts.fault.wipe_switch = true;
  opts.fault.wipe_wave = 60;
  switchml::AggregationSession guarded(pisa::SwitchConfig{}, opts);
  for (int rep = 0; rep < 2; ++rep) {
    SCOPED_TRACE(rep);
    expect_bits_equal(testkit::reduce(guarded, workers),
                      testkit::reduce(plain, workers));
  }
  const switchml::SessionStats& st = guarded.stats();
  EXPECT_EQ(st.faults.corrupt_rejected, 0u);
  EXPECT_EQ(st.faults.stale_dups_rejected, 0u);
  EXPECT_EQ(st.faults.waves_replayed, 2u);  // one wipe per reduce
  EXPECT_GT(st.retransmissions, 0u);
  EXPECT_EQ(st.packets_sent, plain.stats().packets_sent);
  EXPECT_EQ(st.retransmissions, plain.stats().retransmissions);
}

TEST(SessionFaults, DeadWorkerAbortsWithTypedError) {
  auto opts = base_session_opts();
  const auto workers = make_exact_workers(4, 96, 214);
  opts.fault.enabled = true;
  opts.fault.dead_worker = 2;
  opts.fault.dead_worker_wave = 1;
  opts.fault.dead_worker_policy = fault::DeadWorkerPolicy::kAbort;
  switchml::AggregationSession session(pisa::SwitchConfig{}, opts);
  try {
    (void)testkit::reduce(session, workers);
    FAIL() << "expected WorkerDeadError";
  } catch (const fault::WorkerDeadError& e) {
    EXPECT_EQ(e.worker(), 2);
    EXPECT_GE(e.wave(), 1u);
  }
  EXPECT_EQ(session.stats().faults.workers_declared_dead, 1u);
  EXPECT_EQ(session.stats().dead_workers, 1u << 2);
}

TEST(SessionFaults, DeadWorkerDegradesToSurvivorSum) {
  auto opts = base_session_opts();
  const auto workers = make_exact_workers(4, 96, 215);
  // Reference: the survivors aggregated in the same relative order.
  std::vector<std::vector<float>> survivors;
  for (std::size_t w = 0; w < workers.size(); ++w) {
    if (w != 1) survivors.push_back(workers[w]);
  }
  const auto want = clean_reduce(survivors, opts);

  opts.fault.enabled = true;
  opts.fault.seed = 25;
  opts.fault.dead_worker = 1;
  opts.fault.dead_worker_wave = 1;  // wave 0 lands, then the worker dies
  opts.fault.dead_worker_policy = fault::DeadWorkerPolicy::kDegrade;
  switchml::AggregationSession session(pisa::SwitchConfig{}, opts);
  expect_bits_equal(testkit::reduce(session, workers), want);
  EXPECT_EQ(session.stats().faults.workers_declared_dead, 1u);
  EXPECT_GE(session.stats().faults.epoch_bumps, 1u);
  EXPECT_EQ(session.fpisa_switch().occupied_slots(), 0);
}

// --- cluster ---------------------------------------------------------------

cluster::ClusterOptions base_cluster_opts() {
  cluster::ClusterOptions opts;
  opts.num_shards = 2;
  opts.slots_per_shard = 16;
  opts.slots_per_job = 8;
  opts.lanes = 2;
  return opts;
}

std::vector<float> cluster_reduce(cluster::ClusterOptions opts,
                                  const std::vector<std::vector<float>>& w,
                                  switchml::SessionStats* stats = nullptr) {
  cluster::AggregationService svc(opts);
  const testkit::JobResult report = testkit::reduce(svc, "t", w);
  if (stats) *stats = report.stats;
  return report.result;
}

TEST(ClusterFaults, WireFaultMixIsBitIdenticalToCleanRun) {
  const auto workers = make_exact_workers(4, 96, 220);
  auto opts = base_cluster_opts();
  const auto want = cluster_reduce(opts, workers);

  opts.loss_rate = 0.1;
  opts.fault.enabled = true;
  opts.fault.seed = 31;
  opts.fault.corrupt_rate = 0.25;
  opts.fault.dup_rate = 0.25;
  opts.fault.stale_dup_rate = 0.5;
  opts.fault.reorder_rate = 0.5;
  switchml::SessionStats stats;
  const auto got = cluster_reduce(opts, workers, &stats);
  expect_bits_equal(got, want);
  EXPECT_GT(stats.faults.corrupt_rejected, 0u);
}

TEST(ClusterFaults, SwitchWipeIsRecoveredByWaveReplay) {
  const auto workers = make_exact_workers(3, 96, 221);
  auto opts = base_cluster_opts();
  const auto want = cluster_reduce(opts, workers);

  opts.fault.enabled = true;
  opts.fault.seed = 32;
  opts.fault.wipe_switch = true;
  opts.fault.wipe_wave = 0;
  switchml::SessionStats stats;
  const auto got = cluster_reduce(opts, workers, &stats);
  expect_bits_equal(got, want);
  EXPECT_GE(stats.faults.waves_replayed, 1u);
}

TEST(ClusterFaults, SwitchHandsBackTheStampsTheGuardExpects) {
  // The cluster form of the session test: each shard task runs over 100
  // waves of its 8-slot range at 1% loss and wipes its switch once.
  const auto workers = make_exact_workers(4, 3600, 222);
  auto opts = base_cluster_opts();
  opts.loss_rate = 0.01;
  switchml::SessionStats plain;
  const auto want = cluster_reduce(opts, workers, &plain);

  opts.fault.enabled = true;
  opts.fault.wipe_switch = true;
  opts.fault.wipe_wave = 50;
  switchml::SessionStats stats;
  expect_bits_equal(cluster_reduce(opts, workers, &stats), want);
  EXPECT_EQ(stats.faults.corrupt_rejected, 0u);
  EXPECT_EQ(stats.faults.stale_dups_rejected, 0u);
  EXPECT_EQ(stats.faults.waves_replayed, 2u);  // one wipe per shard
  EXPECT_GT(stats.retransmissions, 0u);
  EXPECT_EQ(stats.packets_sent, plain.packets_sent);
  EXPECT_EQ(stats.retransmissions, plain.retransmissions);
}

TEST(ClusterFaults, DeadWorkerAbortFailsTheJobWithBooksIntact) {
  const auto workers = make_exact_workers(4, 96, 222);
  auto opts = base_cluster_opts();
  opts.fault.enabled = true;
  opts.fault.dead_worker = 3;
  opts.fault.dead_worker_wave = 0;
  opts.fault.dead_worker_policy = fault::DeadWorkerPolicy::kAbort;
  cluster::AggregationService svc(opts);
  EXPECT_THROW((void)testkit::reduce(svc, "t", workers),
               fault::WorkerDeadError);
  EXPECT_EQ(svc.jobs_failed(), 1u);
  EXPECT_EQ(svc.jobs_completed(), 0u);
  const cluster::TenantSlo slo = svc.tenant_slo("t");
  EXPECT_EQ(slo.jobs_failed, 1u);
}

TEST(ClusterFaults, DeadWorkerDegradeReplaysWholeJobOverSurvivors) {
  const auto workers = make_exact_workers(4, 96, 223);
  std::vector<std::vector<float>> survivors;
  for (std::size_t w = 0; w < workers.size(); ++w) {
    if (w != 0) survivors.push_back(workers[w]);
  }
  auto opts = base_cluster_opts();
  const auto want = cluster_reduce(opts, survivors);

  opts.fault.enabled = true;
  opts.fault.seed = 33;
  opts.fault.dead_worker = 0;
  opts.fault.dead_worker_wave = 0;
  opts.fault.dead_worker_policy = fault::DeadWorkerPolicy::kDegrade;
  switchml::SessionStats stats;
  const auto got = cluster_reduce(opts, workers, &stats);
  expect_bits_equal(got, want);
  EXPECT_EQ(stats.faults.workers_declared_dead, 1u);
  EXPECT_EQ(stats.dead_workers, 1u << 0);
}

TEST(ClusterFaults, ShardAndWorkerDeathInOnePassBookBoth) {
  // Pass 0 loses shard 1 (killed before the job) and worker 0 (dead from
  // wave 0). The whole job replays over the survivors on a fresh
  // partition folded around the corpse, and the shard death is booked as
  // a failover would book it — but the replay charges no reroute budget
  // and runs no failover retry.
  const auto workers = make_exact_workers(4, 96, 225);
  const std::vector<std::vector<float>> survivors(workers.begin() + 1,
                                                  workers.end());
  auto opts = base_cluster_opts();
  opts.num_shards = 4;
  opts.dispatch = cluster::ClusterOptions::DispatchMode::kInline;
  const auto want = cluster_reduce(opts, survivors);

  opts.failover.enabled = true;
  opts.failover.faults = {cluster::ShardFault{
      1, cluster::FaultKind::kKill, cluster::FaultPhase::kBeforeJob, 0, 0.0}};
  opts.fault.enabled = true;
  opts.fault.seed = 35;
  opts.fault.dead_worker = 0;
  opts.fault.dead_worker_wave = 0;
  opts.fault.dead_worker_policy = fault::DeadWorkerPolicy::kDegrade;
  cluster::AggregationService svc(opts);
  const std::size_t chunks = workers.front().size() /
                             static_cast<std::size_t>(opts.lanes);
  const std::size_t shard1_chunks =
      svc.planner().plan(chunks, std::vector<int>{0, 1, 2, 3}).chunks[1].size();
  ASSERT_GT(shard1_chunks, 0u);

  const telemetry::Snapshot before = telemetry::snapshot();
  const testkit::JobResult report = testkit::reduce(svc, "t", workers);
  const telemetry::Snapshot after = telemetry::snapshot();

  expect_bits_equal(report.result, want);
  EXPECT_FALSE(svc.health().alive(1));
  EXPECT_EQ(report.stats.faults.workers_declared_dead, 1u);
  EXPECT_EQ(report.stats.shard_failures, 1u);
  EXPECT_EQ(report.stats.chunks_rerouted, shard1_chunks);
  EXPECT_EQ(report.stats.failover_retries, 0u);
  EXPECT_EQ(after.counter_total("cluster_failover_shard_deaths_total") -
                before.counter_total("cluster_failover_shard_deaths_total"),
            1u);
}

// --- caller memory ---------------------------------------------------------

std::vector<std::uint32_t> bits_of(
    const std::vector<std::vector<float>>& workers) {
  std::vector<std::uint32_t> bits;
  for (const auto& w : workers) {
    for (const float v : w) bits.push_back(core::fp32_bits(v));
  }
  return bits;
}

// Wave packets point into the callers' views, so a fault that edits a copy
// must edit a private one. Guarded session and cluster runs with every copy
// (then half the copies) corrupted in flight, duplicates, ghosts, reorder,
// a wipe and its replay, and a zero-padded tail chunk leave every input
// view byte-identical.
TEST(FaultInputs, GuardedRunsNeverWriteTheCallersViews) {
  auto workers = make_exact_workers(4, 97, 230);  // 97 = 48 chunks + a tail
  const std::vector<std::uint32_t> before = bits_of(workers);
  const auto want = clean_reduce(workers, base_session_opts());
  for (const double corrupt : {1.0, 0.5}) {
    fault::FaultOptions f;
    f.enabled = true;
    f.seed = 41;
    f.corrupt_rate = corrupt;
    f.dup_rate = 0.5;
    f.stale_dup_rate = 0.5;
    f.reorder_rate = 0.5;
    f.wipe_switch = true;
    f.wipe_wave = 0;
    auto sopts = base_session_opts();
    sopts.loss_rate = 0.05;
    sopts.fault = f;
    switchml::AggregationSession session(pisa::SwitchConfig{}, sopts);
    auto copts = base_cluster_opts();
    copts.loss_rate = 0.05;
    copts.fault = f;
    cluster::AggregationService svc(copts);
    const std::string tag = "corrupt_rate " + std::to_string(corrupt);
    if (corrupt == 1.0) {
      // No copy is ever acked, so both runs give up.
      EXPECT_THROW((void)testkit::reduce(session, workers),
                   switchml::RetransmitExhaustedError)
          << tag;
      EXPECT_THROW((void)testkit::reduce(svc, "t", workers), std::exception)
          << tag;
    } else {
      expect_bits_equal(testkit::reduce(session, workers), want);
      expect_bits_equal(testkit::reduce(svc, "t", workers).result, want);
      EXPECT_GT(session.stats().faults.corrupt_rejected, 0u) << tag;
      EXPECT_GT(session.stats().faults.stale_dups_rejected, 0u) << tag;
      EXPECT_GE(session.stats().faults.waves_replayed, 1u) << tag;
    }
    EXPECT_EQ(bits_of(workers), before) << tag;
  }
}

TEST(ClusterFaults, FaultTelemetryCountersReachTheRegistry) {
  const auto workers = make_exact_workers(3, 96, 224);
  auto opts = base_cluster_opts();
  opts.fault.enabled = true;
  opts.fault.seed = 34;
  opts.fault.wipe_switch = true;
  opts.fault.wipe_wave = 0;
  opts.fault.corrupt_rate = 0.3;

  const telemetry::Snapshot before = telemetry::snapshot();
  cluster_reduce(opts, workers);
  const telemetry::Snapshot after = telemetry::snapshot();
  EXPECT_GT(after.counter_total("cluster_fault_waves_replayed_total"),
            before.counter_total("cluster_fault_waves_replayed_total"));
  EXPECT_GT(after.counter_total("fpisa_switch_corrupt_rejected_total"),
            before.counter_total("fpisa_switch_corrupt_rejected_total"));
}

// --- collective ------------------------------------------------------------

TEST(CollectiveFaults, EveryBackendHonorsTheUnifiedFaultSurface) {
  const auto workers = make_exact_workers(4, 64, 230);
  std::vector<std::vector<float>> survivors;
  for (std::size_t w = 0; w < workers.size(); ++w) {
    if (w != 2) survivors.push_back(workers[w]);
  }

  for (const auto backend :
       {collective::Backend::kHost, collective::Backend::kSwitch,
        collective::Backend::kCluster, collective::Backend::kTree}) {
    collective::CommunicatorOptions copts;
    copts.backend = backend;
    copts.session.slots = 16;
    copts.session.lanes = 2;
    copts.cluster = base_cluster_opts();
    copts.hierarchy.leaves = 2;
    copts.hierarchy.workers_per_leaf = 2;
    copts.fault.enabled = true;
    copts.fault.seed = 41;
    copts.fault.dead_worker = 2;
    copts.fault.dead_worker_wave = 0;
    copts.fault.dead_worker_policy = fault::DeadWorkerPolicy::kDegrade;
    const auto comm = collective::make_communicator(copts);

    std::vector<float> out(workers.front().size());
    const collective::ReduceStats stats = comm->allreduce(
        collective::WorkerViews(workers), out, collective::ReduceOp::kMean);
    EXPECT_EQ(stats.network.dead_workers, 1u << 2)
        << collective::backend_name(backend);
    // kMean must divide by the SURVIVOR count (3), not the full W (4).
    // Survivor sums are exact one-binade integers, so the check is exact.
    double max_rel_err = 0.0;
    for (std::size_t i = 0; i < out.size(); ++i) {
      double want = 0.0;
      for (const auto& s : survivors) want += s[i];
      want /= static_cast<double>(survivors.size());
      const double rel =
          std::abs(out[i] - want) / std::max(1.0, std::abs(want));
      max_rel_err = std::max(max_rel_err, rel);
    }
    EXPECT_LT(max_rel_err, 1e-6) << collective::backend_name(backend);
  }
}

// kDegrade finishes over the survivors only when there is one: a job whose
// every worker is dead has no sum to return, so every backend raises the
// typed error instead of handing back zeros.
TEST(CollectiveFaults, NoSurvivorUnderDegradeThrowsOnEveryBackend) {
  const auto workers = make_exact_workers(1, 32, 232);
  for (const auto backend :
       {collective::Backend::kHost, collective::Backend::kSwitch,
        collective::Backend::kCluster, collective::Backend::kTree}) {
    collective::CommunicatorOptions copts;
    copts.backend = backend;
    copts.session.slots = 8;
    copts.cluster = base_cluster_opts();
    copts.hierarchy.leaves = 1;
    copts.hierarchy.workers_per_leaf = 1;
    copts.fault.enabled = true;
    copts.fault.dead_worker = 0;
    copts.fault.dead_worker_wave = 0;
    copts.fault.dead_worker_policy = fault::DeadWorkerPolicy::kDegrade;
    const auto comm = collective::make_communicator(copts);
    std::vector<float> out(workers.front().size());
    EXPECT_THROW(comm->allreduce(collective::WorkerViews(workers), out,
                                 collective::ReduceOp::kMean),
                 fault::WorkerDeadError)
        << collective::backend_name(backend);
  }
}

TEST(CollectiveFaults, AbortPolicySurfacesTypedErrorThroughAllreduce) {
  const auto workers = make_exact_workers(3, 32, 231);
  collective::CommunicatorOptions copts;
  copts.backend = collective::Backend::kSwitch;
  copts.session.slots = 8;
  copts.fault.enabled = true;
  copts.fault.dead_worker = 0;
  copts.fault.dead_worker_policy = fault::DeadWorkerPolicy::kAbort;
  const auto comm = collective::make_communicator(copts);
  std::vector<float> out(workers.front().size());
  EXPECT_THROW(
      comm->allreduce(collective::WorkerViews(workers), out),
      fault::WorkerDeadError);
}

}  // namespace
}  // namespace fpisa
