// Rack-scale, multi-tenant aggregation service: runs reduce jobs across a
// pool of pisa::FpisaSwitch shards on the JobPlanner's plans
// (cluster/shard_router.h: run_job executes a plan and takes a new one
// after a failure), fans each pass's active shards out over the process's
// one datapath pool (cluster::FanOut::for_each over datapath_pool(),
// cluster/mailbox.h), and keeps per-tenant and per-shard protocol
// statistics. The service starts no thread but its job runners. Each shard
// task runs the one switchml::WaveEngine (the same wave protocol as
// AggregationSession: add with retransmission, idempotent read,
// read-and-reset slot recycling) over a tenant-private SlotRange so
// concurrent jobs never collide; the task itself only injects faults and
// accounts — see README "Execution model".
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "cluster/mailbox.h"
#include "cluster/shard_health.h"
#include "cluster/shard_router.h"
#include "cluster/slo.h"
#include "fault/fault.h"
#include "pisa/fpisa_program.h"
#include "qos/admission.h"
#include "qos/qos.h"
#include "qos/scheduler.h"
#include "switchml/session.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"
#include "util/ordered_mutex.h"
#include "util/thread_annotations.h"

namespace fpisa::cluster {

struct ClusterOptions {
  int num_shards = 4;
  std::size_t slots_per_shard = 64;  ///< aggregation slots per shard switch
  /// Slot-range size requested per shard; must be > 0.
  std::size_t slots_per_job = 16;
  int lanes = 1;                     ///< FP values per packet
  RoutingPolicy routing = RoutingPolicy::kHash;
  std::uint64_t routing_salt = 0x5eedULL;
  double loss_rate = 0.0;            ///< per-packet drop probability (each way)
  std::uint64_t loss_seed = 1;
  int max_retransmits = 64;
  /// Where a pass's shard tasks run. Either way the job's own thread
  /// claims the pass's active shards through cluster::FanOut::for_each.
  ///  * kWorkers (default): helpers on the process's datapath_pool() claim
  ///    shards beside it, one per active shard past the first, at most the
  ///    pool's size. A one-shard pass, or a pool with no worker (a one-CPU
  ///    host), posts no helper and runs on the job's thread alone.
  ///  * kInline: every shard task runs in turn on the job's thread
  ///    (concurrent jobs still overlap on the job runners, serialized per
  ///    shard by the shard mutex).
  /// Results are bit-identical across modes: determinism is seeded per
  /// (job, shard, pass), never scheduled.
  enum class DispatchMode { kWorkers, kInline };
  DispatchMode dispatch = DispatchMode::kWorkers;
  /// No effect; kept only because `perfbench/` assigns it. Every shard
  /// task runs the wave engine's one wave order.
  bool pipeline_waves = true;
  /// Control threads that run submitted jobs' reduce loops; they are the
  /// only threads a service starts (its shard tasks run on the runner and
  /// on the shared datapath_pool()). Bounds the service's thread count no
  /// matter how many jobs are in flight: excess submissions queue.
  /// 0: max(2, num_shards); negative is rejected.
  int job_runner_threads = 0;
  /// Shard-failure failover: when enabled, a shard that exhausts its
  /// retransmit budget is declared dead (after `max_consecutive_failures`),
  /// its slot range is scrubbed and released, its chunk set is re-routed
  /// onto the survivors (JobPlanner::failover, salt-stable) and retried
  /// once cleanly — the job completes with a sum bit-identical to the
  /// no-failure run. Jobs arriving after a death route around the corpse at
  /// partition time. Also carries kill/slowdown fault injection for tests.
  FailoverOptions failover;
  /// Byzantine-wire fault injection + the guarded recovery protocol, one
  /// deterministic engine per (job, shard, pass). A switch wipe hits every
  /// shard whose local wave count reaches wipe_wave and is recovered by
  /// wave replay from the host-held gradients (replay exhaustion composes
  /// with shard failover as a ShardDeadError); a dead worker is detected at
  /// the wave deadline and — under kDegrade — recovered by replaying the
  /// WHOLE job over the survivors (shard-local wave indexing means shards
  /// with fewer waves finish before the death wave, so per-wave patching
  /// cannot excise the dead worker's earlier contributions).
  fault::FaultOptions fault;
  /// Multi-tenant admission control & QoS (src/qos/): per-tenant token-
  /// bucket rate limits, priority classes with weighted-deficit pickup on
  /// the job-runner pool, and bounded per-tenant admission queues with
  /// explicit backpressure (AdmissionRejectedError or kBlock-with-
  /// deadline). Disabled by default — the service then behaves exactly as
  /// before: one FIFO class, no limits, unbounded queue.
  qos::QosOptions qos;
  pisa::SwitchConfig switch_config;  ///< applied to every shard
};

/// Zero-copy job description: worker gradients stay in caller-owned storage
/// and are only ever *viewed* by the service — nothing is deep-copied
/// between submission and result. For the async entry point the viewed
/// buffers (and the out span) must stay alive until the future resolves.
/// The per-job fabric overrides let tenants ride links of different
/// quality through one service.
struct JobView {
  std::string_view tenant;
  std::span<const std::span<const float>> workers;  ///< equal-length views
  double loss_rate = -1.0;   ///< negative: inherit ClusterOptions
  int max_retransmits = -1;  ///< negative: inherit ClusterOptions
};

/// A job's books. The sum itself lands in the caller's `out` span.
struct JobReport {
  std::string tenant;
  std::uint64_t job_id = 0;
  switchml::SessionStats stats;                     ///< this job, all shards
  std::vector<switchml::SessionStats> per_shard;    ///< this job, per shard
};

class AggregationService {
 public:
  explicit AggregationService(ClusterOptions opts);
  ~AggregationService();
  AggregationService(const AggregationService&) = delete;
  AggregationService& operator=(const AggregationService&) = delete;

  /// Runs one reduce job to completion, aggregating `job.workers` (views,
  /// read in place — no gradient copies) into `out` (out.size() == worker
  /// length). Thread-safe: may be called from many tenant threads at once;
  /// each caller claims its own passes' shards, helped by the datapath
  /// pool. Throws std::runtime_error when a packet exhausts
  /// max_retransmits.
  JobReport reduce(const JobView& job, std::span<float> out);

  /// Asynchronous submission on the bounded job runners (at most
  /// `job_runner_threads` jobs execute concurrently; the rest queue). The
  /// runner that picks a job up runs it as reduce() would on the caller's
  /// thread. Copies only the tenant name and the span table — the caller
  /// keeps the gradient buffers and `out` alive until the future resolves.
  std::future<JobReport> submit(const JobView& job, std::span<float> out);

  const ClusterOptions& options() const { return opts_; }
  const JobPlanner& planner() const { return planner_; }
  int num_shards() const { return opts_.num_shards; }

  /// Cumulative protocol stats across all jobs (completed AND failed —
  /// failed jobs' packets crossed the wire too, so packet accounting always
  /// matches the fabric; job outcomes are counted separately below).
  /// The const snapshot accessors below lock stats_mu_ (and the
  /// queue-depth probes job_mu_); the FPISA_EXCLUDES annotations pin the
  /// PR 9 reject-path rule — accounting paths may hold at most one of
  /// job_mu_/stats_mu_ — at compile time on the clang CI leg.
  switchml::SessionStats shard_stats(int shard) const
      FPISA_EXCLUDES(stats_mu_);
  /// Heterogeneous lookup: string_view / literals hit the map without a
  /// temporary std::string.
  switchml::SessionStats tenant_stats(std::string_view tenant) const
      FPISA_EXCLUDES(stats_mu_);
  switchml::SessionStats total_stats() const FPISA_EXCLUDES(stats_mu_);
  std::vector<std::string> tenants() const FPISA_EXCLUDES(stats_mu_);
  std::uint64_t jobs_completed() const FPISA_EXCLUDES(stats_mu_);
  std::uint64_t jobs_failed() const FPISA_EXCLUDES(stats_mu_);
  /// Jobs turned away at admission (QoS only; never counted as failed —
  /// a rejected job ran no protocol and sent no packets).
  std::uint64_t jobs_rejected() const FPISA_EXCLUDES(stats_mu_);

  /// Per-tenant SLO snapshot: job outcome counts (completed / failed /
  /// completed-only-via-failover) and p50/p99 job wall time from a small
  /// reservoir.
  TenantSlo tenant_slo(std::string_view tenant) const
      FPISA_EXCLUDES(stats_mu_);

  /// Shard liveness (consecutive-failure tracking, deaths).
  const ShardHealth& health() const { return health_; }
  /// Administrative kill: marks the shard dead immediately; subsequent
  /// jobs route around it (degraded N-1 mode). Requires failover.enabled.
  void kill_shard(int shard);

  /// Cumulative wall time the shard tasks spent in each wave phase across
  /// all completed work (submit/add vs collect) — the phase split that
  /// bench_cluster_throughput reports. Since the telemetry layer landed,
  /// this is a VIEW over the registry's per-shard phase histograms
  /// (cluster_shard_phase_seconds{svc,shard,phase}); it advances only
  /// while telemetry::enabled() — the same condition under which any of
  /// the stack's timing instruments record.
  telemetry::PhaseBreakdown phase_breakdown() const;

  /// Opt-in span tracing: while attached, every job records its life as a
  /// nested span tree (job → submit → partition → acquire_slots → pass →
  /// per-shard add/collect waves → merge, plus failover passes) into
  /// `trace`, rooted under `parent`. The wave spans reuse the exact clock
  /// readings that feed the phase histograms, so traced wall times agree
  /// with phase_breakdown() to the nanosecond. Pass nullptr to detach.
  /// The caller owns the trace and must keep it alive while attached (and
  /// must not detach while jobs are in flight).
  void attach_trace(telemetry::Trace* trace,
                    telemetry::Trace::SpanId parent = telemetry::Trace::kNone);

  /// Job-runner sizing and high-water mark: how many reduce loops ever ran
  /// at once (submitted + synchronous). With submit() alone this can never
  /// exceed job_runner_threads() — the burst test pins that down. The
  /// runners are every thread the service starts: building one raises the
  /// process's thread count by job_runner_threads(), and reducing through
  /// it by nothing once datapath_pool() is up.
  int job_runner_threads() const {
    return static_cast<int>(job_runners_.size());
  }
  std::uint64_t peak_concurrent_jobs() const {
    return peak_jobs_.load(std::memory_order_relaxed);
  }

  /// Deprecated: all zero, because a service owns no mailbox. Its shard
  /// tasks run on the caller and on the shared datapath_pool(), whose
  /// workers serve every session, tree and service in the process, so no
  /// mailbox counts one shard's tickets. Kept only while perfbench's
  /// cluster mailbox rows read it; it goes with them in the next change to
  /// the benchmark. Throws std::invalid_argument for a shard outside
  /// [0, num_shards).
  MailboxStats mailbox_stats(int shard) const;

  /// QoS admission snapshot for one tenant: jobs currently queued
  /// (admitted, not yet picked up) — 0 when QoS is off or the tenant is
  /// unknown.
  std::size_t tenant_queue_depth(std::string_view tenant) const
      FPISA_EXCLUDES(job_mu_, stats_mu_);
  /// Scheduler pickup count per class (how many queued jobs each Priority
  /// class has had dequeued). All zero when QoS is off.
  std::uint64_t class_picks(qos::Priority p) const
      FPISA_EXCLUDES(job_mu_, stats_mu_);

 private:
  /// Cache-line-aligned so two shards' hot state (switch, mutex, allocator)
  /// can never share a line even if the unique_ptr allocations land
  /// adjacent.
  struct alignas(64) Shard {
    explicit Shard(const ClusterOptions& opts);
    pisa::FpisaSwitch sw FPISA_GUARDED_BY(mu);
    /// Serializes packet roundtrips through `sw`. Rank kShard: legally
    /// nests under stats_mu_ (shard_stats/total_stats read under both).
    util::OrderedMutex mu{util::lock_rank::kShard};
    SlotRangeAllocator slots;      ///< guarded by the service's alloc_mu_
    switchml::SessionStats stats;  ///< cumulative, guarded by stats_mu_
  };

  /// One job's fan-out/join state: lives on run_job's stack, pool helpers
  /// reach it through their fan-out item. Each shard writes ONLY its own
  /// cache-line-aligned slot; the job's thread merges after the join — no
  /// cross-shard false sharing, no shared-state writes from helpers.
  struct PassContext;

  /// Runs one shard's slice of a pass through the wave engine (rng + fault
  /// engine seeded per (job, shard, pass)); errors land in the shard's
  /// PassContext slot.
  void run_pass_task(PassContext& ctx, int shard);
  /// The engine's view of one shard: switch access under the shard mutex
  /// (one hold per protocol phase), plus the task's hook points — kill and
  /// straggler injection, phase timing, ShardDeadError mapping.
  struct ShardAccess;
  struct ShardHooks;
  void job_runner_loop();
  /// Stops the job runners: queued submissions still run, so their futures
  /// resolve. Then joins every runner started.
  void stop_job_runners() FPISA_EXCLUDES(job_mu_);
  /// Runs one job end to end (validation, range acquisition, shard fan-out,
  /// failover recovery, accounting), writing the sum into `out`. reduce()
  /// and submit() both land here — admission happens strictly BEFORE this
  /// point, so the datapath never sees QoS.
  void run_job(const JobView& job, std::span<float> out, JobReport& report);
  std::future<JobReport> enqueue_job(std::string_view tenant,
                                     std::function<JobReport()> fn);
  /// QoS admission: charges the tenant's token bucket and, for a queued
  /// submission, its queue bound (a synchronous reduce() runs inline on the
  /// caller's thread, so queue bounds don't apply); returns the tenant's
  /// Priority class for the scheduler push. kReject (or an expired kBlock
  /// deadline) records the rejection and throws AdmissionRejectedError;
  /// kBlock waits on admission_cv_. Called only with QoS on; the caller
  /// holds job_mu_ via `lk`, and on throw the lock has been released.
  qos::Priority admit(util::UniqueLock& lk, std::string_view tenant,
                      bool queued) FPISA_REQUIRES(job_mu_)
      FPISA_EXCLUDES(stats_mu_);
  /// Books a rejection (SLO entry + jobs_rejected + registry counters) and
  /// throws AdmissionRejectedError. `lk` (job_mu_) is released first:
  /// rejection accounting takes stats_mu_ and the two must never nest —
  /// stated by the RELEASE/EXCLUDES pair, enforced dynamically by their
  /// shared lock rank.
  [[noreturn]] void reject_job(util::UniqueLock& lk, std::string_view tenant,
                               qos::RejectReason reason)
      FPISA_RELEASE(job_mu_) FPISA_EXCLUDES(stats_mu_);
  /// Refreshes the queue-depth gauges (total + per-class). Caller holds
  /// job_mu_.
  void refresh_queue_gauges() FPISA_REQUIRES(job_mu_);
  /// Releases every range in `ranges`, wakes the jobs waiting on the
  /// allocator, then acquires the range `want` asks of each shard, in
  /// ascending shard order (the same order for every job: no circular wait
  /// between tenants). An empty plan just releases.
  void swap_ranges(std::vector<SlotRange>& ranges, const JobPlan& want)
      FPISA_EXCLUDES(alloc_mu_);
  /// One fan-out/join pass of `ctx.plan`: a FanOut item per shard with
  /// chunks, stats merged into `report.per_shard`, each shard's error (null
  /// = succeeded or inactive) left in its slot. `ctx.pass` salts the
  /// per-task loss streams so a retry pass draws fresh, deterministic
  /// schedules.
  void run_pass(PassContext& ctx, JobReport& report);
  /// What a pass's errors mean for its job.
  struct PassOutcome {
    std::exception_ptr first;        ///< first error in shard order
    std::exception_ptr fatal;        ///< an error no recovery covers
    std::exception_ptr worker_dead;  ///< first fault::WorkerDeadError
    int dead_worker = -1;
    std::vector<int> died;  ///< shards this pass declared dead (failover)
  };
  /// Sorts a pass's errors (shard deaths, a dead worker, anything else)
  /// and books each active shard's health.
  PassOutcome classify(const PassContext& ctx);
  /// Claims a one-shot kill fault for (shard, phase, wave); true when the
  /// caller should die now (throw ShardDeadError).
  bool fire_kill_fault(int shard, FaultPhase phase, std::size_t wave)
      FPISA_EXCLUDES(fault_mu_);
  /// Persistent straggler injection: extra wall time per wave for `shard`.
  double slowdown_ms(int shard) const;

  ClusterOptions opts_;
  JobPlanner planner_;
  std::vector<std::unique_ptr<Shard>> shards_;

  // Bounded job runners (submitted jobs' control loops). They stay threads,
  // not datapath-pool items: a job waits on its passes' fan-outs, and as a
  // pool item it could wait on a helper queued behind itself. As the
  // fan-out's caller a runner claims shards itself, so a job never waits on
  // a task that cannot start. Queued submissions live in the
  // weighted-deficit class scheduler: with QoS off every job lands in one
  // class and pickup degenerates to exact FIFO; with QoS on, runners drain
  // classes by priority with per-cycle credits so training overtakes
  // queued telemetry without starving it.
  struct QueuedJob {
    std::packaged_task<JobReport()> task;
    std::string tenant;
  };
  std::vector<std::thread> job_runners_;
  /// mutable: const snapshot accessors lock it. Rank kJobQueue == kStats:
  /// job_mu_ and stats_mu_ must never nest, in either direction.
  mutable util::OrderedMutex job_mu_{util::lock_rank::kJobQueue};
  qos::WeightedScheduler<QueuedJob> job_sched_ FPISA_GUARDED_BY(job_mu_);
  /// Admission books (token buckets + per-tenant queued counts), guarded
  /// by job_mu_ like the scheduler it gates.
  qos::AdmissionControl admission_ FPISA_GUARDED_BY(job_mu_);
  bool qos_enabled_ = false;
  /// condition_variable_any: waits on util::UniqueLock, so the cv's
  /// unlock/relock rides the rank checker's bookkeeping.
  std::condition_variable_any job_cv_;
  /// kBlock backpressure: blocked submitters wait here; runners notify
  /// after every dequeue (queue space freed).
  std::condition_variable_any admission_cv_;
  bool stopping_jobs_ FPISA_GUARDED_BY(job_mu_) = false;
  std::atomic<std::uint64_t> running_jobs_{0};
  std::atomic<std::uint64_t> peak_jobs_{0};

  // Slot-range allocation: jobs acquire ranges in ascending shard order
  // (the same order for every job), so concurrent tenants cannot deadlock
  // waiting on each other's ranges.
  util::OrderedMutex alloc_mu_{util::lock_rank::kAlloc};
  std::condition_variable_any alloc_cv_;

  // Telemetry: stable registry handles (resolved once at construction) and
  // the optional attached trace. Wave phase time lives ONLY in the
  // registry's per-shard histograms — phase_breakdown() sums them back.
  void init_metrics();
  telemetry::InstanceLabel label_{"svc"};
  std::vector<std::array<telemetry::Histogram*, 2>>
      m_shard_phase_;  ///< [shard][0]=add, [1]=collect
  telemetry::Gauge* m_queue_depth_ = nullptr;    ///< job-runner queue
  telemetry::Counter* m_shard_deaths_ = nullptr;
  telemetry::Counter* m_rerouted_ = nullptr;
  telemetry::Counter* m_retries_ = nullptr;
  telemetry::Counter* m_jobs_[3] = {};  ///< [0]=completed [1]=failed [2]=rejected
  /// QoS scheduler/admission series, indexed by Priority:
  /// qos_admission_queue_depth gauges, qos_jobs_admitted_total and
  /// qos_sched_picks_total counters.
  telemetry::Gauge* m_qos_class_depth_[qos::kNumPriorities] = {};
  telemetry::Counter* m_qos_admitted_[qos::kNumPriorities] = {};
  telemetry::Counter* m_qos_picks_[qos::kNumPriorities] = {};
  /// qos_jobs_rejected_total by reason: [0]=rate_limit [1]=queue_full
  /// [2]=deadline.
  telemetry::Counter* m_qos_rejects_[3] = {};
  /// Fault-recovery events: [0]=epoch_bumps, [1]=workers_declared_dead,
  /// [2]=waves_replayed (cluster_fault_* counters; wire-level rejections
  /// are counted by the switch's own fpisa_switch_* counters).
  telemetry::Counter* m_fault_[3] = {};
  telemetry::Histogram* m_job_wall_ = nullptr;
  std::atomic<telemetry::Trace*> trace_{nullptr};
  std::atomic<std::size_t> trace_parent_{telemetry::Trace::kNone};

  // Shard liveness + one-shot fault claiming.
  ShardHealth health_;
  util::OrderedMutex fault_mu_{util::lock_rank::kFaultTable};
  /// parallel to opts_.failover.faults
  std::vector<bool> fault_fired_ FPISA_GUARDED_BY(fault_mu_);

  // Cumulative accounting. The tenant map uses std::less<> so the
  // zero-copy JobView path (string_view tenants) looks up without
  // materializing a temporary std::string.
  struct TenantAccount {
    switchml::SessionStats stats;
    SloAccumulator slo;
  };
  /// Find-or-create a tenant's books; heterogeneous lookup (a string key
  /// materializes only for a brand-new tenant). Caller holds stats_mu_.
  TenantAccount& tenant_account_locked(std::string_view tenant)
      FPISA_REQUIRES(stats_mu_);
  /// Rank kStats == kJobQueue: never nests with job_mu_. Shard::mu (rank
  /// kShard) legally nests beneath it.
  mutable util::OrderedMutex stats_mu_{util::lock_rank::kStats};
  std::map<std::string, TenantAccount, std::less<>> tenant_stats_
      FPISA_GUARDED_BY(stats_mu_);
  /// Job-level failover events (shard deaths, re-routed chunks, retry
  /// passes). Fabric events, not any one shard's traffic — kept here so
  /// total_stats() and the per-tenant sums agree on the failover counters
  /// while Shard::stats stays pure per-shard protocol traffic.
  switchml::SessionStats fabric_stats_ FPISA_GUARDED_BY(stats_mu_);
  std::uint64_t jobs_completed_ FPISA_GUARDED_BY(stats_mu_) = 0;
  std::uint64_t jobs_failed_ FPISA_GUARDED_BY(stats_mu_) = 0;
  std::uint64_t jobs_rejected_ FPISA_GUARDED_BY(stats_mu_) = 0;
  std::uint64_t next_job_id_ FPISA_GUARDED_BY(stats_mu_) = 0;
};

/// Seed of the independent loss (or fault) stream of one (job, shard,
/// pass) shard task: results are deterministic regardless of scheduling.
/// Pass 0 reproduces the pre-failover stream exactly; retry passes draw
/// fresh schedules.
std::uint64_t task_seed(std::uint64_t base, std::uint64_t job_id, int shard,
                        std::uint64_t pass);

/// Modeled wall-clock seconds for a job whose packets are spread over
/// parallel shard ingress pipes: each shard's packets serialize back to
/// back at `gbps` on a dedicated pipe, shards drain concurrently, and the
/// job completes when the slowest shard drains. This is
/// the paper's emulation argument at rack scale: the switches run at line
/// rate, so aggregate capacity grows with the shard count. Degenerate
/// inputs (empty `per_shard`, all-zero packet counts, non-positive rate or
/// packet size) model no traffic and return 0 rather than NaN/inf.
double modeled_shard_parallel_seconds(
    const std::vector<switchml::SessionStats>& per_shard,
    std::size_t bytes_per_packet, double gbps, double latency_us);

}  // namespace fpisa::cluster
