// The unified collective API's proof obligations: every Communicator
// backend must be BIT-identical — results and SessionStats — to the legacy
// entry point it wraps, under identical seeds; ReduceOp::kMean must equal
// the legacy host-side averaging float-for-float; views must work over
// non-vector<vector> storage (one flat caller-owned buffer), pinning down
// that the API never requires materializing the legacy shape.
#include <gtest/gtest.h>

#include <cmath>

#include "collective/communicator.h"
#include "core/packed.h"
#include "util/rng.h"
#include "testkit.h"

namespace fpisa::collective {
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

void expect_bits_eq(std::span<const float> got, std::span<const float> want,
                    const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(core::fp32_bits(got[i]), core::fp32_bits(want[i]))
        << what << " i=" << i;
  }
}

void expect_stats_eq(const switchml::SessionStats& got,
                     const switchml::SessionStats& want,
                     const std::string& what) {
  EXPECT_EQ(got.packets_sent, want.packets_sent) << what;
  EXPECT_EQ(got.packets_lost, want.packets_lost) << what;
  EXPECT_EQ(got.retransmissions, want.retransmissions) << what;
  EXPECT_EQ(got.duplicates_absorbed, want.duplicates_absorbed) << what;
  EXPECT_EQ(got.slot_reuses, want.slot_reuses) << what;
  // The kernel op taxonomy rides along with every stats merge/delta.
  EXPECT_EQ(got.ops.adds, want.ops.adds) << what;
  EXPECT_EQ(got.ops.rounded_adds, want.ops.rounded_adds) << what;
  EXPECT_EQ(got.ops.saturations, want.ops.saturations) << what;
  EXPECT_EQ(got.ops.nonfinite_inputs, want.ops.nonfinite_inputs) << what;
}

// --- host backend ----------------------------------------------------------

TEST(CollectiveHost, EveryAlgorithmMatchesLegacyAggregatorBitExact) {
  const auto workers = make_workers(6, 333, 900);
  const WorkerViews views(workers);

  struct Row {
    HostAlgorithm algo;
    std::unique_ptr<switchml::GradientAggregator> legacy;
  };
  core::AccumulatorConfig fp16_packed;
  fp16_packed.format = core::kFp16;
  std::vector<Row> rows;
  rows.push_back({HostAlgorithm::kExact,
                  std::make_unique<switchml::ExactAggregator>()});
  rows.push_back({HostAlgorithm::kFp32,
                  std::make_unique<switchml::FloatSumAggregator>()});
  rows.push_back({HostAlgorithm::kSwitchMl,
                  std::make_unique<switchml::SwitchMlAggregator>()});
  rows.push_back({HostAlgorithm::kFpisa,
                  std::make_unique<switchml::FpisaAggregator>()});

  for (auto& row : rows) {
    CommunicatorOptions opts;
    opts.backend = Backend::kHost;
    opts.host_algorithm = row.algo;
    const auto comm = make_communicator(opts);
    std::vector<float> got(333);
    const ReduceStats stats = comm->allreduce(views, got);
    const auto want = testkit::reduce(*row.legacy, workers);
    expect_bits_eq(got, want, std::string("host ") + std::string(comm->name()));
    EXPECT_EQ(stats.network.packets_sent, 0u);  // no packet protocol on host
  }

  // Packed (FP16 hosts): format plumbed through CommunicatorOptions.
  CommunicatorOptions popts;
  popts.backend = Backend::kHost;
  popts.host_algorithm = HostAlgorithm::kPacked;
  popts.accumulator = fp16_packed;
  const auto packed = make_communicator(popts);
  std::vector<float> got(333);
  (void)packed->allreduce(views, got);
  switchml::PackedSumAggregator legacy(core::kFp16);
  expect_bits_eq(got, testkit::reduce(legacy, workers), "host packed");
}

TEST(CollectiveHost, WrapsCallerOwnedAggregatorWithSharedCounters) {
  // The non-owning adapter: counters accumulate on the caller's object.
  core::AccumulatorConfig cfg;
  cfg.variant = core::Variant::kApproximate;
  switchml::FpisaAggregator agg(cfg);
  HostCommunicator comm(agg);
  EXPECT_EQ(comm.name(), "fpisa-a");

  const auto workers = make_workers(3, 64, 901);
  std::vector<float> out(64);
  (void)comm.allreduce(WorkerViews(workers), out);
  EXPECT_GT(agg.counters().adds, 0u);
  EXPECT_EQ(&comm.aggregator(), &agg);
}

// --- switch backend --------------------------------------------------------

TEST(CollectiveSwitch, MatchesLegacySessionBitExactIncludingStats) {
  for (const double loss : {0.0, 0.2}) {
    switchml::SessionOptions sopts;
    sopts.num_workers = 4;
    sopts.slots = 16;
    sopts.lanes = 2;
    sopts.loss_rate = loss;
    sopts.loss_seed = 902;
    sopts.max_retransmits = 256;

    const auto workers = make_workers(4, 120, 903);
    switchml::AggregationSession legacy(pisa::SwitchConfig{}, sopts);
    const auto want = testkit::reduce(legacy, workers);

    CommunicatorOptions opts;
    opts.backend = Backend::kSwitch;
    opts.session = sopts;
    const auto comm = make_communicator(opts);
    std::vector<float> got(120);
    const ReduceStats stats = comm->allreduce(WorkerViews(workers), got);

    expect_bits_eq(got, want, "switch loss=" + std::to_string(loss));
    expect_stats_eq(stats.network, legacy.stats(),
                    "switch loss=" + std::to_string(loss));
    expect_stats_eq(comm->total_stats(), legacy.stats(), "switch cumulative");
  }
}

TEST(CollectiveSwitch, TotalStatsSurviveSessionRecreation) {
  // Changing the worker count recreates the underlying session; the
  // communicator's cumulative stats must keep counting across that.
  switchml::SessionOptions sopts;
  sopts.slots = 16;
  SwitchCommunicator comm(pisa::SwitchConfig{}, sopts);

  std::vector<float> out(40);
  (void)comm.allreduce(WorkerViews(make_workers(4, 40, 910)), out);
  const std::uint64_t after_first = comm.total_stats().packets_sent;
  ASSERT_GT(after_first, 0u);
  (void)comm.allreduce(WorkerViews(make_workers(2, 40, 911)), out);
  EXPECT_GT(comm.total_stats().packets_sent, after_first)
      << "session recreation must not reset the cumulative totals";
}

// --- cluster backend -------------------------------------------------------

TEST(CollectiveCluster, MatchesLegacyServiceBitExactIncludingStats) {
  for (const double loss : {0.0, 0.15}) {
    cluster::ClusterOptions copts;
    copts.num_shards = 3;
    copts.slots_per_shard = 16;
    copts.slots_per_job = 8;
    copts.lanes = 2;
    copts.loss_rate = loss;
    copts.loss_seed = 904;
    copts.max_retransmits = 256;

    const auto workers = make_workers(4, 150, 905);
    cluster::AggregationService legacy(copts);
    const auto want = testkit::reduce(legacy, "tenant", workers);

    ClusterCommunicator comm(copts);
    std::vector<float> got(150);
    const ReduceStats stats =
        comm.allreduce(WorkerViews(workers), got, ReduceOp::kSum, "tenant");

    expect_bits_eq(got, want.result, "cluster loss=" + std::to_string(loss));
    expect_stats_eq(stats.network, want.stats,
                    "cluster loss=" + std::to_string(loss));
    ASSERT_EQ(stats.per_shard.size(), want.per_shard.size());
    for (std::size_t s = 0; s < want.per_shard.size(); ++s) {
      expect_stats_eq(stats.per_shard[s], want.per_shard[s],
                      "cluster shard " + std::to_string(s));
    }
    EXPECT_EQ(stats.job_id, want.job_id);
    expect_stats_eq(comm.service().tenant_stats("tenant"), want.stats,
                    "cluster tenant accounting");
  }
}

TEST(CollectiveCluster, SubmitViewsRunZeroCopyOverFlatStorage) {
  // Worker gradients live in ONE flat caller-owned buffer sliced into
  // views — the legacy vector<vector> shape never exists, so nothing can
  // deep-copy it. Async completion via JobHandle + per-tenant handles.
  cluster::ClusterOptions copts;
  copts.num_shards = 2;
  copts.slots_per_shard = 16;
  copts.slots_per_job = 8;
  ClusterCommunicator comm(copts);

  const int w = 4;
  const std::size_t n = 96;
  util::Rng rng(906);
  std::vector<float> flat(w * n);
  for (auto& v : flat) v = static_cast<float>(rng.normal(0.0, 0.1));
  std::vector<std::span<const float>> views;
  for (int i = 0; i < w; ++i) views.push_back({flat.data() + i * n, n});

  TenantHandle tenant = comm.tenant("flat-tenant");
  std::vector<float> out(n);
  JobHandle handle = tenant.submit(WorkerViews(views), out);
  ASSERT_TRUE(handle.valid());
  const ReduceStats stats = handle.wait();
  EXPECT_GT(stats.network.packets_sent, 0u);

  // Same bits as a direct job over per-worker vectors on a fresh service.
  std::vector<std::vector<float>> legacy_shape;
  for (int i = 0; i < w; ++i) {
    legacy_shape.emplace_back(flat.begin() + i * n,
                              flat.begin() + (i + 1) * n);
  }
  cluster::AggregationService fresh(copts);
  const auto want = testkit::reduce(fresh, "flat-tenant", legacy_shape);
  expect_bits_eq(out, want.result, "flat-storage submit");
  EXPECT_GT(comm.service().tenant_stats("flat-tenant").packets_sent, 0u);
}

// --- tree backend ----------------------------------------------------------

TEST(CollectiveTree, MatchesLegacyHierarchyBitExact) {
  cluster::HierarchyOptions hopts;
  hopts.leaves = 4;
  hopts.workers_per_leaf = 2;
  hopts.slots = 16;
  hopts.lanes = 2;

  const auto workers = make_workers(8, 130, 907);
  cluster::HierarchicalAggregator legacy(hopts);
  std::vector<float> want(130);
  legacy.reduce_into(WorkerViews(workers).views(), want);

  TreeCommunicator comm(hopts);
  std::vector<float> got(130);
  const ReduceStats stats = comm.allreduce(WorkerViews(workers), got);
  expect_bits_eq(got, want, "tree");
  EXPECT_EQ(stats.network.packets_sent, legacy.timing().packets);
  EXPECT_GT(comm.tree().timing().done_s, 0.0);
}

// --- cross-backend semantics ----------------------------------------------

TEST(Collective, MeanEqualsLegacyHostSideAveragingBitExact) {
  // kMean must reproduce the trainer's historical `sum * (1/W)` exactly.
  const auto workers = make_workers(8, 200, 908);
  const auto comm = make_communicator({});  // host FPISA default
  std::vector<float> sum(200);
  std::vector<float> mean(200);
  (void)comm->allreduce(WorkerViews(workers), sum, ReduceOp::kSum);
  (void)comm->allreduce(WorkerViews(workers), mean, ReduceOp::kMean);
  const float inv_w = 1.0f / 8.0f;
  for (std::size_t i = 0; i < sum.size(); ++i) {
    EXPECT_EQ(core::fp32_bits(sum[i] * inv_w), core::fp32_bits(mean[i])) << i;
  }
}

TEST(Collective, AllBackendsAgreeOnExactInputsThroughOneInterface) {
  // Integer-valued one-binade magnitudes: every FPISA add is exact, so all
  // four fabrics must produce identical bits for the same reduction.
  util::Rng rng(909);
  const int w = 8;
  const std::size_t n = 72;
  std::vector<std::vector<float>> workers(
      w, std::vector<float>(n));
  for (auto& vec : workers) {
    for (auto& v : vec) v = static_cast<float>(256 + rng.next_below(256));
  }

  CommunicatorOptions host;
  CommunicatorOptions sw;
  sw.backend = Backend::kSwitch;
  sw.session.num_workers = w;
  sw.session.slots = 16;
  CommunicatorOptions cl;
  cl.backend = Backend::kCluster;
  cl.cluster.num_shards = 3;
  CommunicatorOptions tr;
  tr.backend = Backend::kTree;
  tr.hierarchy.leaves = 4;
  tr.hierarchy.workers_per_leaf = 2;

  std::vector<float> reference(n);
  bool have_reference = false;
  for (const auto& opts : {host, sw, cl, tr}) {
    const auto comm = make_communicator(opts);
    std::vector<float> out(n);
    (void)comm->allreduce(WorkerViews(workers), out);
    if (!have_reference) {
      reference = out;
      have_reference = true;
      continue;
    }
    expect_bits_eq(out, reference,
                   std::string("backend ") + std::string(comm->name()));
  }
}

TEST(Collective, TenantSloIsUniformAcrossBackends) {
  // Every backend answers the same SLO surface: job outcome counts and
  // p50/p99 job wall time, keyed by tenant ("default" when unnamed).
  const auto workers = make_workers(4, 64, 910);
  CommunicatorOptions tree_opts;
  tree_opts.backend = Backend::kTree;
  tree_opts.hierarchy.leaves = 2;
  tree_opts.hierarchy.workers_per_leaf = 2;
  for (const auto& opts : {CommunicatorOptions{}, tree_opts}) {
    const auto comm = make_communicator(opts);
    std::vector<float> out(64);
    (void)comm->allreduce(WorkerViews(workers), out, ReduceOp::kSum, "team");
    (void)comm->allreduce(WorkerViews(workers), out, ReduceOp::kSum, "team");
    (void)comm->allreduce(WorkerViews(workers), out);  // "default"
    const TenantSlo slo = comm->tenant_slo("team");
    EXPECT_EQ(slo.jobs_completed, 2u) << comm->name();
    EXPECT_EQ(slo.jobs_failed, 0u) << comm->name();
    EXPECT_EQ(slo.jobs_failed_over, 0u) << comm->name();
    EXPECT_GE(slo.p99_wall_s, slo.p50_wall_s) << comm->name();
    EXPECT_EQ(comm->tenant_slo().jobs_completed, 1u) << comm->name();
    EXPECT_EQ(comm->tenant_slo("nobody").jobs_completed, 0u) << comm->name();
  }
}

TEST(CollectiveCluster, FailoverSurfacesThroughCommunicator) {
  // A shard killed mid-wave behind the unified API: the job completes with
  // bits identical to the healthy fabric's, and the re-route is visible in
  // ReduceStats.network and in the per-tenant SLO snapshot.
  const auto workers = make_workers(4, 150, 911);
  cluster::ClusterOptions copts;
  copts.num_shards = 3;
  copts.slots_per_shard = 16;
  copts.slots_per_job = 8;
  copts.failover.enabled = true;

  ClusterCommunicator healthy(copts);
  std::vector<float> want(150);
  (void)healthy.allreduce(WorkerViews(workers), want);

  copts.failover.faults = {cluster::ShardFault{
      1, cluster::FaultKind::kKill, cluster::FaultPhase::kMidAdd, 0, 0.0}};
  ClusterCommunicator comm(copts);
  std::vector<float> out(150);
  const ReduceStats stats =
      comm.allreduce(WorkerViews(workers), out, ReduceOp::kSum, "tenant");

  expect_bits_eq(out, want, "failover through communicator");
  EXPECT_EQ(stats.network.shard_failures, 1u);
  EXPECT_EQ(stats.network.failover_retries, 1u);
  EXPECT_GT(stats.network.chunks_rerouted, 0u);
  EXPECT_EQ(comm.total_stats().packets_sent, stats.network.packets_sent);

  const TenantSlo slo = comm.tenant_slo("tenant");
  EXPECT_EQ(slo.jobs_completed, 1u);
  EXPECT_EQ(slo.jobs_failed_over, 1u);
  EXPECT_FALSE(comm.service().health().alive(1));

  // The substrate-native books also cover jobs submitted asynchronously.
  std::vector<float> out2(150);
  comm.submit(WorkerViews(workers), out2, ReduceOp::kSum, "tenant").wait();
  expect_bits_eq(out2, want, "degraded submit through communicator");
  EXPECT_EQ(comm.tenant_slo("tenant").jobs_completed, 2u);
}

TEST(Collective, ValidatesShapes) {
  const auto comm = make_communicator({});
  std::vector<float> out(4);
  const std::vector<std::vector<float>> empty;
  EXPECT_THROW((void)comm->allreduce(WorkerViews(empty), out),
               std::invalid_argument);
  const auto ragged = std::vector<std::vector<float>>{{1.f, 2.f}, {1.f}};
  EXPECT_THROW((void)comm->allreduce(WorkerViews(ragged), out),
               std::invalid_argument);
  const auto ok = std::vector<std::vector<float>>{{1.f, 2.f}, {3.f, 4.f}};
  EXPECT_THROW((void)comm->allreduce(WorkerViews(ok), out),  // out too long
               std::invalid_argument);
}

TEST(Collective, DeadWorkerPastTheBitmapIsRejected) {
  // The dead-worker mask is 32 bits wide, but the host backend takes any
  // worker count and the tree 8 x 8 = 64 workers. A dead worker of 32 or
  // more is refused when the fault is installed; worker 31, the mask's
  // last bit, still drops out of a 40-worker host job and a 64-worker tree.
  CommunicatorOptions host;
  host.fault.enabled = true;
  host.fault.dead_worker_policy = fault::DeadWorkerPolicy::kDegrade;
  CommunicatorOptions tree = host;
  tree.backend = Backend::kTree;
  tree.hierarchy.leaves = 8;
  tree.hierarchy.workers_per_leaf = 8;
  tree.hierarchy.slots = 16;
  for (const int dead : {32, 35, 63}) {
    host.fault.dead_worker = dead;
    tree.fault.dead_worker = dead;
    EXPECT_THROW((void)make_communicator(host), std::invalid_argument)
        << "host, dead worker " << dead;
    EXPECT_THROW((void)make_communicator(tree), std::invalid_argument)
        << "tree, dead worker " << dead;
  }

  host.fault.dead_worker = 31;
  tree.fault.dead_worker = 31;
  for (const CommunicatorOptions& opts : {host, tree}) {
    const int num_workers = opts.backend == Backend::kHost ? 40 : 64;
    const auto workers = make_workers(num_workers, 64, 912);
    std::vector<std::span<const float>> views(workers.begin(), workers.end());
    const std::vector<float> zeros(64, 0.0f);
    if (opts.backend == Backend::kHost) {
      views.erase(views.begin() + 31);  // the host drops the dead view
    } else {
      views[31] = zeros;  // the tree's shape is fixed: zeros stand in
    }
    CommunicatorOptions clean = opts;
    clean.fault = {};
    std::vector<float> want(64);
    (void)make_communicator(clean)->allreduce(WorkerViews(views), want);
    std::vector<float> got(64);
    const ReduceStats stats =
        make_communicator(opts)->allreduce(WorkerViews(workers), got);
    const std::string what = backend_name(opts.backend);
    EXPECT_EQ(stats.network.dead_workers, 1u << 31) << what;
    expect_bits_eq(got, want, what);
  }
}

}  // namespace
}  // namespace fpisa::collective
