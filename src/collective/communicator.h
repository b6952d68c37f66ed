// Unified zero-copy collective API: ONE communicator-style interface (the
// shape SwitchML exposed to training frameworks, NSDI '21 §5) over every
// aggregation substrate this repo has grown — host reference aggregators,
// a single simulated switch, the sharded multi-tenant rack service, and
// the ToR→spine tree. Frameworks call
//
//   comm.allreduce(workers, out, ReduceOp::kSum);
//
// and never learn which fabric ran it; gradients travel as *views*
// (span-of-spans into caller-owned storage) from submission to result, so
// no backend ever deep-copies a worker vector.
//
// Every backend is differentially tested to be bit-identical — results AND
// SessionStats — to its substrate's own view-based entry point under
// identical seeds (tests/test_collective_api.cpp).
#pragma once

#include <atomic>
#include <chrono>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/ordered_mutex.h"
#include "util/thread_annotations.h"

#include "cluster/aggregation_service.h"
#include "cluster/hierarchy.h"
#include "cluster/slo.h"
#include "qos/qos.h"
#include "switchml/aggregator.h"
#include "switchml/session.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace fpisa::collective {

/// Per-tenant SLO snapshot, uniform across backends (jobs completed /
/// failed / completed-only-via-failover, p50/p99 job wall time).
using TenantSlo = cluster::TenantSlo;

/// Zero-copy view of W equal-length worker gradient vectors: a span of
/// spans. Constructible straight from span-of-spans, or adapted from the
/// legacy vector<vector<float>> shape — the adapter materializes the span
/// *table* (W pointers + lengths), never the gradients.
class WorkerViews {
 public:
  WorkerViews(std::span<const std::span<const float>> views)  // NOLINT
      : views_(views) {}
  WorkerViews(std::span<const std::vector<float>> workers)  // NOLINT
      : storage_(workers.begin(), workers.end()), views_(storage_) {}
  WorkerViews(const std::vector<std::vector<float>>& workers)  // NOLINT
      : WorkerViews(std::span<const std::vector<float>>(workers)) {}

  // Copying would leave views_ pointing into the source's span table; the
  // type is a per-call view, so pass it by reference instead.
  WorkerViews(const WorkerViews&) = delete;
  WorkerViews& operator=(const WorkerViews&) = delete;

  std::span<const std::span<const float>> views() const { return views_; }
  std::size_t count() const { return views_.size(); }

 private:
  std::vector<std::span<const float>> storage_;  ///< adapter path only
  std::span<const std::span<const float>> views_;
};

enum class ReduceOp {
  kSum,   ///< element-wise sum (what the switch computes)
  kMean,  ///< sum scaled by 1/W on the host (gradient averaging)
};

/// Per-job completion stats, uniform across backends. Backends without a
/// packet protocol (host) report zero network counters; the cluster
/// backend also breaks the job down per shard.
struct ReduceStats {
  std::uint64_t job_id = 0;
  switchml::SessionStats network;
  std::vector<switchml::SessionStats> per_shard;
  double wall_s = 0;
};

/// Handle to an asynchronously submitted job. The gradient buffers viewed
/// by the job and the out span stay caller-owned: keep them alive until
/// wait() returns. wait() rethrows any backend error (e.g. retransmit
/// exhaustion).
class JobHandle {
 public:
  JobHandle() = default;
  bool valid() const { return fut_.valid(); }
  ReduceStats wait() { return fut_.get(); }

 private:
  friend class Communicator;
  explicit JobHandle(std::future<ReduceStats> fut) : fut_(std::move(fut)) {}
  std::future<ReduceStats> fut_;
};

class TenantHandle;

/// The unified collective interface. Synchronous `allreduce` writes the
/// reduction of `workers` into `out` (out.size() == each view's length);
/// `submit` is the asynchronous flavor; `tenant` returns a persistent
/// per-tenant handle (multi-tenant backends key accounting and fabric
/// overrides off the tenant name, others ignore it).
class Communicator {
 public:
  virtual ~Communicator() = default;
  virtual std::string_view name() const = 0;

  ReduceStats allreduce(const WorkerViews& workers, std::span<float> out,
                        ReduceOp op = ReduceOp::kSum,
                        std::string_view tenant = {});
  virtual JobHandle submit(const WorkerViews& workers, std::span<float> out,
                           ReduceOp op = ReduceOp::kSum,
                           std::string_view tenant = {});
  TenantHandle tenant(std::string name);

  /// Cumulative packet-protocol stats across every completed job (zeros
  /// for backends without a packet protocol).
  virtual switchml::SessionStats total_stats() const = 0;

  /// Per-tenant SLO snapshot. The base class accounts every job that runs
  /// through it (any backend); substrate-native multi-tenant backends (the
  /// cluster service) override this to report the substrate's own books,
  /// which also cover jobs submitted around the communicator.
  virtual TenantSlo tenant_slo(std::string_view tenant = {}) const
      FPISA_EXCLUDES(slo_mu_);

  // --- uniform observability surface (identical across all backends) ---

  /// This communicator's slice of the process-wide registry: every sample
  /// carrying this instance's "comm" label (collective_allreduces_total,
  /// collective_allreduce_seconds; substrate series keep their own
  /// sw=/sess=/svc=/tree= instance labels and are read via
  /// telemetry::snapshot() directly).
  telemetry::Snapshot metrics() const;

  /// Add/collect phase wall-time split, cumulative across jobs — the same
  /// currency cluster::AggregationService::phase_breakdown() has exposed
  /// since PR 3, now uniform across backends. Backends without an internal
  /// phase split (host) attribute the whole job wall to the add phase.
  /// Advances only while telemetry::enabled().
  virtual telemetry::PhaseBreakdown phase_breakdown() const;

  /// Opt-in span tracing: every subsequent allreduce/submit records an
  /// "allreduce" span (annotated backend/tenant) under `parent`. The
  /// cluster backend additionally attaches the trace to its service, so
  /// jobs unfold into the full submit → partition → shard waves → merge
  /// tree. Caller owns the trace; pass nullptr to detach (not while jobs
  /// are in flight).
  virtual void set_trace(telemetry::Trace* trace,
                         telemetry::Trace::SpanId parent =
                             telemetry::Trace::kNone);
  telemetry::Trace* trace() const {
    return trace_.load(std::memory_order_acquire);
  }

  /// Unified fault surface: wire-level knobs (corruption / reorder /
  /// duplicates / wipe) take effect on backends with a packet wire — the
  /// factory copies them into the session/cluster options before
  /// construction. Worker death applies to EVERY backend: the wire
  /// backends detect it at the wave deadline; host/tree have no wire, so a
  /// worker dead from wave 0 simply never contributes. Every backend
  /// declares it through switchml::declare_dead_worker: kDegrade reduces
  /// over the survivors and reports the mask in
  /// ReduceStats::network.dead_workers; kAbort, or a job with no survivor,
  /// throws fault::WorkerDeadError. ReduceOp::kMean always averages over
  /// the *survivors* of the job.
  void set_fault_options(const fault::FaultOptions& fault) { fault_ = fault; }

  /// Admission/QoS configuration in effect on this communicator's
  /// substrate, or null when the backend has no admission plane (host /
  /// switch / tree run the caller's jobs unconditionally). On the cluster
  /// backend, submissions can throw qos::AdmissionRejectedError (or block
  /// up to the tenant's deadline under kBlock) once
  /// CommunicatorOptions::qos.enabled is set; per-tenant SLO books then
  /// carry a distinct jobs_rejected entry.
  virtual const qos::QosOptions* qos_options() const { return nullptr; }

 protected:
  /// Backend hook: sum `workers` into `out` and report the job's stats.
  virtual ReduceStats run(std::span<const std::span<const float>> workers,
                          std::span<float> out, std::string_view tenant) = 0;

  /// Backends whose substrate is internally thread-safe (the cluster
  /// service) override this to let jobs run concurrently. All others get
  /// their run() calls serialized by the base class, so allreduce — and
  /// wait()ing deferred JobHandles — is safe from multiple threads.
  virtual bool substrate_is_thread_safe() const { return false; }

  /// Backends whose substrate keeps its own per-tenant SLO books (the
  /// cluster service) override to true: the base class then skips its own
  /// bookkeeping entirely — a shadow copy here could never be read (the
  /// backend overrides tenant_slo()) and would miss substrate-side jobs.
  virtual bool substrate_keeps_slo() const { return false; }

  /// Shared driver: validation + (serialized) run() + finish().
  /// allreduce and the default submit both land here.
  ReduceStats run_and_finish(std::span<const std::span<const float>> workers,
                             std::span<float> out, ReduceOp op,
                             std::string_view tenant);
  /// The one completion step every job goes through, synchronous or async:
  /// runs `job` (which yields the substrate's stats), applies the
  /// ReduceOp::kMean scale over the survivors, stamps the wall clock since
  /// `t0`, bumps collective_allreduces_total /
  /// collective_allreduce_seconds, books the SLO entry (on both outcomes)
  /// and records the "allreduce" span over [t0, completion].
  template <class Job>
  ReduceStats finish(std::chrono::steady_clock::time_point t0,
                     std::span<float> out, ReduceOp op,
                     std::size_t num_workers, std::string_view tenant,
                     Job&& job);
  static JobHandle wrap(std::future<ReduceStats> fut) {
    return JobHandle(std::move(fut));
  }
  /// SLO bookkeeping shared by every backend (finish calls it on both
  /// outcomes). Empty tenant keys under "default", matching the
  /// cluster backend's naming.
  void record_slo(std::string_view tenant, double wall_s, bool completed,
                  bool failed_over) FPISA_EXCLUDES(slo_mu_);

  fault::FaultOptions fault_;  ///< see set_fault_options()

 private:
  /// Lazy one-shot registration (name() is virtual, so this cannot run in
  /// the base constructor). Safe to call concurrently and from const paths.
  void ensure_metrics() const;

  /// Serializes run() for single-substrate backends. Outermost rank in the
  /// lock table: a job may take every service/telemetry lock beneath it.
  util::OrderedMutex run_mu_{util::lock_rank::kCommRun};
  mutable util::OrderedMutex slo_mu_{util::lock_rank::kCommSlo};
  std::map<std::string, cluster::SloAccumulator, std::less<>> slo_
      FPISA_GUARDED_BY(slo_mu_);

  telemetry::InstanceLabel label_{"comm"};
  mutable std::once_flag metrics_once_;
  mutable telemetry::Counter* m_jobs_ = nullptr;
  mutable telemetry::Histogram* m_wall_ = nullptr;
  std::atomic<telemetry::Trace*> trace_{nullptr};
  std::atomic<telemetry::Trace::SpanId> trace_parent_{telemetry::Trace::kNone};
};

/// Persistent per-tenant handle: a Communicator bound to one tenant name,
/// so frameworks can hold one handle per training job. Valid as long as
/// the communicator it came from.
class TenantHandle {
 public:
  TenantHandle(Communicator& comm, std::string name)
      : comm_(&comm), name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  ReduceStats allreduce(const WorkerViews& workers, std::span<float> out,
                        ReduceOp op = ReduceOp::kSum) {
    return comm_->allreduce(workers, out, op, name_);
  }
  JobHandle submit(const WorkerViews& workers, std::span<float> out,
                   ReduceOp op = ReduceOp::kSum) {
    return comm_->submit(workers, out, op, name_);
  }

 private:
  Communicator* comm_;
  std::string name_;
};

// --- backends --------------------------------------------------------------

/// Which host reference aggregator HostCommunicator wraps.
enum class HostAlgorithm {
  kExact,     ///< double-precision reference
  kFp32,      ///< host FP32 summation (paper's "default addition")
  kPacked,    ///< packed-format host summation (e.g. FP16 pipelines)
  kSwitchMl,  ///< SwitchML int32+scaling-factor protocol
  kFpisa,     ///< FPISA decomposed accumulation (core reference)
};

/// Host backend: the aggregator zoo behind the communicator interface.
/// Either owns an aggregator picked by HostAlgorithm, or wraps a
/// caller-owned switchml::GradientAggregator.
class HostCommunicator final : public Communicator {
 public:
  explicit HostCommunicator(HostAlgorithm algo = HostAlgorithm::kFpisa,
                            core::AccumulatorConfig accumulator = {});
  /// Non-owning: `agg` must outlive this communicator.
  explicit HostCommunicator(switchml::GradientAggregator& agg) : agg_(&agg) {}

  std::string_view name() const override { return agg_->name(); }
  switchml::SessionStats total_stats() const override { return {}; }
  switchml::GradientAggregator& aggregator() { return *agg_; }

 protected:
  ReduceStats run(std::span<const std::span<const float>> workers,
                  std::span<float> out, std::string_view tenant) override;

 private:
  core::AccumulatorConfig accumulator_;  ///< stable home for format refs
  std::unique_ptr<switchml::GradientAggregator> owned_;
  switchml::GradientAggregator* agg_ = nullptr;
  std::uint64_t next_job_id_ = 0;
};

/// Single-switch backend: the SwitchML-style packet protocol over one
/// simulated FpisaSwitch. The session is created for the first job's
/// worker count and recreated (fresh loss stream and stats, same options)
/// only when the worker count changes.
class SwitchCommunicator final : public Communicator {
 public:
  SwitchCommunicator(pisa::SwitchConfig config, switchml::SessionOptions opts)
      : config_(config), opts_(opts) {}

  std::string_view name() const override { return "switch"; }
  switchml::SessionStats total_stats() const override { return total_; }
  /// Session phase split, accumulated across session recreations.
  telemetry::PhaseBreakdown phase_breakdown() const override;

 protected:
  ReduceStats run(std::span<const std::span<const float>> workers,
                  std::span<float> out, std::string_view tenant) override;

 private:
  void ensure_session(int num_workers);
  pisa::SwitchConfig config_;
  switchml::SessionOptions opts_;
  std::unique_ptr<switchml::AggregationSession> session_;
  switchml::SessionStats total_{};  ///< survives session recreation
  telemetry::PhaseBreakdown phase_base_{};  ///< retired sessions' phases
  std::uint64_t next_job_id_ = 0;
};

/// Rack-scale backend: the sharded multi-tenant AggregationService. Fully
/// view-based — a job's gradients are never copied between submission and
/// result — and submit() rides the service's bounded job-runner pool.
class ClusterCommunicator final : public Communicator {
 public:
  explicit ClusterCommunicator(cluster::ClusterOptions opts)
      : service_(std::move(opts)) {}

  std::string_view name() const override { return "cluster"; }
  switchml::SessionStats total_stats() const override {
    return service_.total_stats();
  }
  /// Substrate-native books: covers submit()ed jobs and failover retries.
  TenantSlo tenant_slo(std::string_view tenant = {}) const override;
  /// The service's view over its per-shard phase histograms.
  telemetry::PhaseBreakdown phase_breakdown() const override {
    return service_.phase_breakdown();
  }
  /// Also attaches the trace to the service, so every job records the full
  /// submit → partition → shard waves → merge (+failover) span tree.
  void set_trace(telemetry::Trace* trace,
                 telemetry::Trace::SpanId parent =
                     telemetry::Trace::kNone) override;
  JobHandle submit(const WorkerViews& workers, std::span<float> out,
                   ReduceOp op = ReduceOp::kSum,
                   std::string_view tenant = {}) override;
  /// The service's live QoS surface (enabled or not — callers check
  /// .enabled). Admission throws/blocks per tenant config on this backend.
  const qos::QosOptions* qos_options() const override {
    return &service_.options().qos;
  }
  cluster::AggregationService& service() { return service_; }

 protected:
  ReduceStats run(std::span<const std::span<const float>> workers,
                  std::span<float> out, std::string_view tenant) override;
  bool substrate_is_thread_safe() const override { return true; }
  bool substrate_keeps_slo() const override { return true; }

 private:
  cluster::AggregationService service_;
};

/// Hierarchy backend: the two-level ToR→spine tree. Worker count must
/// equal the tree's total_workers(). Network stats report the modeled
/// packet count of the most recent timing pass.
class TreeCommunicator final : public Communicator {
 public:
  explicit TreeCommunicator(cluster::HierarchyOptions opts) : tree_(opts) {}

  std::string_view name() const override { return "tree"; }
  switchml::SessionStats total_stats() const override { return total_; }
  /// Per-level fan-in split: leaf level → add, spine level → collect.
  telemetry::PhaseBreakdown phase_breakdown() const override {
    return tree_.phase_breakdown();
  }
  cluster::HierarchicalAggregator& tree() { return tree_; }

 protected:
  ReduceStats run(std::span<const std::span<const float>> workers,
                  std::span<float> out, std::string_view tenant) override;

 private:
  cluster::HierarchicalAggregator tree_;
  switchml::SessionStats total_{};
  std::uint64_t next_job_id_ = 0;
};

// --- factory ---------------------------------------------------------------

enum class Backend { kHost, kSwitch, kCluster, kTree };

struct CommunicatorOptions {
  Backend backend = Backend::kHost;
  // kHost
  HostAlgorithm host_algorithm = HostAlgorithm::kFpisa;
  core::AccumulatorConfig accumulator;  ///< kFpisa/kPacked configuration
  // kSwitch
  pisa::SwitchConfig switch_config;
  switchml::SessionOptions session;
  // kCluster
  cluster::ClusterOptions cluster;
  // kTree
  cluster::HierarchyOptions hierarchy;
  /// One fault surface for every backend: when enabled, the factory copies
  /// it into session.fault / cluster.fault (wire backends) and installs it
  /// on the communicator (worker-death handling + survivor-aware kMean).
  fault::FaultOptions fault;
  /// One admission/QoS surface: when enabled, the factory copies it into
  /// cluster.qos (the only backend with a job queue to schedule). Other
  /// backends ignore it — their qos_options() stays null.
  qos::QosOptions qos;
};

std::unique_ptr<Communicator> make_communicator(
    const CommunicatorOptions& opts = {});

const char* backend_name(Backend backend);

}  // namespace fpisa::collective
