#include "cluster/aggregation_service.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <exception>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "core/vector_accumulator.h"

namespace fpisa::cluster {

std::uint64_t task_seed(std::uint64_t base, std::uint64_t job_id, int shard,
                        std::uint64_t pass) {
  std::uint64_t state = base ^ (job_id * 0x9e3779b97f4a7c15ULL) ^
                        (static_cast<std::uint64_t>(shard) << 32) ^
                        (pass * 0xc2b2ae3d27d4eb4fULL);
  return util::splitmix64(state);
}

namespace {

/// Throws std::invalid_argument unless every number in `cfg` has a
/// meaning: admit() converts block_deadline_s to whole nanoseconds, which
/// NaN, an infinity or 2^64 ns and more do not fit, and a NaN rate would
/// read as unlimited.
void check_tenant_qos(const qos::TenantQosConfig& cfg,
                      std::string_view tenant) {
  constexpr double kTwoTo64 = 18446744073709551616.0;
  if (!(cfg.block_deadline_s * 1e9 < kTwoTo64)) {
    throw std::invalid_argument(
        "cluster: qos tenant '" + std::string(tenant) +
        "': block_deadline_s must be a number below 2^64 ns");
  }
  if (std::isnan(cfg.rate_jobs_per_s)) {
    throw std::invalid_argument("cluster: qos tenant '" +
                                std::string(tenant) +
                                "': rate_jobs_per_s is NaN");
  }
}

}  // namespace

AggregationService::Shard::Shard(const ClusterOptions& opts)
    : sw(opts.switch_config,
         pisa::fpisa_program_options(opts.switch_config, opts.lanes,
                                     opts.slots_per_shard)),
      slots(opts.slots_per_shard) {}

AggregationService::AggregationService(ClusterOptions opts)
    : opts_(opts),
      planner_(ShardRouter(opts.num_shards, opts.routing, opts.routing_salt),
               opts.slots_per_job),
      job_sched_(opts.qos.class_weights),
      admission_(opts.qos),
      qos_enabled_(opts.qos.enabled),
      health_(opts.num_shards, opts.failover.max_consecutive_failures),
      fault_fired_(opts.failover.faults.size(), false) {
  // num_shards <= 0 and slots_per_job == 0 are rejected by the planner's
  // initializer, max_consecutive_failures < 1 by the health tracker's.
  if (opts_.job_runner_threads < 0 || opts_.failover.max_reroutes_per_job < 0) {
    throw std::invalid_argument(
        "cluster: job_runner_threads and max_reroutes_per_job must be >= 0");
  }
  for (const ShardFault& f : opts_.failover.faults) {
    if (f.shard < 0 || f.shard >= opts_.num_shards) {
      throw std::invalid_argument("cluster: fault targets unknown shard");
    }
  }
  switchml::check_wire_params(opts_.loss_rate, opts_.max_retransmits,
                              opts_.fault);
  if (opts_.qos.enabled) {
    check_tenant_qos(opts_.qos.default_tenant, "(default)");
    for (const auto& [tenant, cfg] : opts_.qos.tenants) {
      check_tenant_qos(cfg, tenant);
    }
  }
  fault::check_fault_options(opts_.fault);
  shards_.reserve(static_cast<std::size_t>(opts_.num_shards));
  for (int s = 0; s < opts_.num_shards; ++s) {
    shards_.push_back(std::make_unique<Shard>(opts_));
  }
  init_metrics();
  const int job_threads = opts_.job_runner_threads > 0
                              ? opts_.job_runner_threads
                              : std::max(2, opts_.num_shards);
  job_runners_.reserve(static_cast<std::size_t>(job_threads));
  try {
    for (int t = 0; t < job_threads; ++t) {
      job_runners_.emplace_back([this] { job_runner_loop(); });
    }
  } catch (...) {
    stop_job_runners();  // the destructor does not run for a failed constructor
    throw;
  }
}

void AggregationService::init_metrics() {
  // One registration pass at construction; the hot path only ever touches
  // the returned handles. Instance labels keep concurrently-built services
  // (tests spin up dozens) from aliasing each other's series.
  const auto& svc = label_.label();
  auto& reg = telemetry::registry();
  const auto bounds = telemetry::MetricsRegistry::time_buckets();
  m_shard_phase_.resize(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const std::string shard = std::to_string(s);
    m_shard_phase_[s][0] =
        &reg.histogram("cluster_shard_phase_seconds",
                       {svc, {"shard", shard}, {"phase", "add"}}, bounds);
    m_shard_phase_[s][1] =
        &reg.histogram("cluster_shard_phase_seconds",
                       {svc, {"shard", shard}, {"phase", "collect"}}, bounds);
  }
  m_queue_depth_ = &reg.gauge("cluster_job_queue_depth", {svc});
  m_shard_deaths_ = &reg.counter("cluster_failover_shard_deaths_total", {svc});
  m_rerouted_ = &reg.counter("cluster_failover_chunks_rerouted_total", {svc});
  m_retries_ = &reg.counter("cluster_failover_retries_total", {svc});
  m_jobs_[0] =
      &reg.counter("cluster_jobs_total", {svc, {"outcome", "completed"}});
  m_jobs_[1] = &reg.counter("cluster_jobs_total", {svc, {"outcome", "failed"}});
  m_jobs_[2] =
      &reg.counter("cluster_jobs_total", {svc, {"outcome", "rejected"}});
  // QoS admission/scheduler series (registered even when QoS is off — a
  // flat zero series is how an operator confirms the limiter is idle).
  for (std::size_t c = 0; c < qos::kNumPriorities; ++c) {
    const char* cls = qos::priority_name(static_cast<qos::Priority>(c));
    m_qos_class_depth_[c] =
        &reg.gauge("qos_admission_queue_depth", {svc, {"class", cls}});
    m_qos_admitted_[c] =
        &reg.counter("qos_jobs_admitted_total", {svc, {"class", cls}});
    m_qos_picks_[c] =
        &reg.counter("qos_sched_picks_total", {svc, {"class", cls}});
  }
  for (std::size_t r = 0; r < 3; ++r) {
    const auto why = qos::reject_reason_name(static_cast<qos::RejectReason>(r));
    m_qos_rejects_[r] =
        &reg.counter("qos_jobs_rejected_total", {svc, {"reason", why}});
  }
  // Fault-recovery events (wire-level rejections live on the switches'
  // own fpisa_switch_* counters; these are the fabric-level recoveries).
  m_fault_[0] = &reg.counter("cluster_fault_epoch_bumps_total", {svc});
  m_fault_[1] =
      &reg.counter("cluster_fault_workers_declared_dead_total", {svc});
  m_fault_[2] = &reg.counter("cluster_fault_waves_replayed_total", {svc});
  m_job_wall_ = &reg.histogram("cluster_job_wall_seconds", {svc}, bounds);
}

void AggregationService::attach_trace(telemetry::Trace* trace,
                                      telemetry::Trace::SpanId parent) {
  // Parent first, then the trace pointer with release ordering: a job that
  // acquires the pointer is guaranteed to see the matching parent.
  trace_parent_.store(parent, std::memory_order_relaxed);
  trace_.store(trace, std::memory_order_release);
}

// The runners go first: their jobs use every other member.
AggregationService::~AggregationService() { stop_job_runners(); }

void AggregationService::stop_job_runners() {
  {
    util::LockGuard lk(job_mu_);
    stopping_jobs_ = true;
  }
  job_cv_.notify_all();
  admission_cv_.notify_all();  // unblock any kBlock submitter immediately
  for (std::thread& t : job_runners_) t.join();
}

/// One job's fan-out/join state (see header). Lives on run_job's stack;
/// pool helpers reach it through their fan-out item and write only their
/// own shard's cache-line-aligned slot.
struct AggregationService::PassContext {
  const JobPlan* plan = nullptr;
  const std::vector<SlotRange>* ranges = nullptr;
  std::span<const std::span<const float>> workers;
  std::span<float> out;
  double loss_rate = 0.0;  ///< the job's, ClusterOptions unless overridden
  int max_retransmits = 0;
  std::uint64_t job_id = 0;
  std::uint64_t pass = 0;
  std::uint32_t dead_mask = 0;
  telemetry::Trace* trace = nullptr;
  telemetry::Trace::SpanId pass_span = telemetry::Trace::kNone;
  /// Per-shard result slot, one cache line (or whole lines) each: stats
  /// and error are written by exactly one worker and read only after the
  /// join, so no two shards' writes share a line.
  struct alignas(64) ShardSlot {
    switchml::SessionStats stats{};
    std::exception_ptr error;
  };
  std::vector<ShardSlot> slots;
  std::vector<int> active;  ///< this pass's shards with chunks: the items
  AggregationService* svc = nullptr;
};

void AggregationService::refresh_queue_gauges() {
  m_queue_depth_->set(static_cast<double>(job_sched_.size()));
  for (std::size_t c = 0; c < qos::kNumPriorities; ++c) {
    m_qos_class_depth_[c]->set(static_cast<double>(
        job_sched_.class_depth(static_cast<qos::Priority>(c))));
  }
}

void AggregationService::job_runner_loop() {
  for (;;) {
    QueuedJob qj;
    {
      util::UniqueLock lk(job_mu_);
      job_cv_.wait(lk, [this]() FPISA_REQUIRES(job_mu_) {
        return stopping_jobs_ || !job_sched_.empty();
      });
      if (job_sched_.empty()) return;  // stopping and drained
      qos::Priority cls = qos::Priority::kQuery;
      job_sched_.pop(qj, &cls);
      if (qos_enabled_) {
        admission_.on_dequeued(admission_.tenant(qj.tenant));
        m_qos_picks_[static_cast<std::size_t>(cls)]->inc();
      }
      refresh_queue_gauges();
    }
    // A dequeue frees this tenant's queue slot: wake any kBlock submitter.
    admission_cv_.notify_all();
    qj.task();  // exceptions land in the task's future
  }
}

// The declaration's RELEASE(job_mu_)/EXCLUDES(stats_mu_) pair carries the
// contract to call sites; the body releases job_mu_ through the aliased
// `lk`, which the static analysis cannot connect — the shared lock rank
// (kJobQueue == kStats) enforces it dynamically instead.
void AggregationService::reject_job(util::UniqueLock& lk,
                                    std::string_view tenant,
                                    qos::RejectReason reason)
    FPISA_NO_THREAD_SAFETY_ANALYSIS {
  // Release job_mu_ BEFORE booking: the SLO/outcome books live under
  // stats_mu_ and the two locks must never nest.
  lk.unlock();
  {
    util::LockGuard slk(stats_mu_);
    ++jobs_rejected_;
    // The tenant's own SLO book gets a jobs_rejected entry — never a
    // jobs_failed one: a rejected job ran no protocol (the PR 5
    // failed-vs-cumulative invariant, pinned by test_qos).
    tenant_account_locked(tenant).slo.record_rejected();
  }
  m_jobs_[2]->inc();
  m_qos_rejects_[static_cast<std::size_t>(reason)]->inc();
  throw qos::AdmissionRejectedError(std::string(tenant), reason);
}

qos::Priority AggregationService::admit(util::UniqueLock& lk,
                                        std::string_view tenant,
                                        bool queued) {
  qos::AdmissionControl::TenantState& st = admission_.tenant(tenant);
  const qos::TenantQosConfig cfg = st.cfg;
  const std::uint64_t deadline =
      admission_.now_ns() +
      static_cast<std::uint64_t>(std::max(cfg.block_deadline_s, 0.0) * 1e9);
  for (;;) {
    const auto probe = admission_.try_admit(st, admission_.now_ns(), queued);
    if (probe.admitted) {
      m_qos_admitted_[static_cast<std::size_t>(cfg.priority)]->inc();
      return cfg.priority;
    }
    if (cfg.policy == qos::AdmissionPolicy::kReject) {
      reject_job(lk, tenant, probe.reason);
    }
    // kBlock: wait for queue space (runners notify on dequeue) or tokens,
    // no longer than the tenant's deadline. The wait is capped so clock
    // movement — virtual in tests, real in production — is re-checked
    // promptly even without a notify.
    const std::uint64_t now = admission_.now_ns();
    if (now >= deadline) reject_job(lk, tenant, qos::RejectReason::kDeadline);
    std::uint64_t wait_ns = deadline - now;
    if (probe.reason == qos::RejectReason::kRateLimited &&
        probe.retry_after_ns < wait_ns) {
      wait_ns = probe.retry_after_ns;
    }
    wait_ns = std::clamp<std::uint64_t>(wait_ns, 100'000, 5'000'000);
    admission_cv_.wait_for(lk, std::chrono::nanoseconds(wait_ns));
    if (stopping_jobs_) {
      reject_job(lk, tenant, qos::RejectReason::kDeadline);
    }
  }
}

std::future<JobReport> AggregationService::enqueue_job(
    std::string_view tenant, std::function<JobReport()> fn) {
  std::packaged_task<JobReport()> task(std::move(fn));
  std::future<JobReport> fut = task.get_future();
  {
    util::UniqueLock lk(job_mu_);
    // Admission (token bucket + queue bound) happens at submission, under
    // the same lock as the scheduler push; a rejection throws out of
    // submit() itself — the caller gets typed backpressure, not a future
    // that fails later.
    const qos::Priority cls = qos_enabled_ ? admit(lk, tenant, true)
                                           : qos::Priority::kQuery;
    job_sched_.push(cls, QueuedJob{std::move(task), std::string(tenant)});
    refresh_queue_gauges();
  }
  job_cv_.notify_one();
  return fut;
}

bool AggregationService::fire_kill_fault(int shard, FaultPhase phase,
                                         std::size_t wave) {
  if (opts_.failover.faults.empty()) return false;
  util::LockGuard lk(fault_mu_);
  for (std::size_t i = 0; i < opts_.failover.faults.size(); ++i) {
    const ShardFault& f = opts_.failover.faults[i];
    if (fault_fired_[i] || f.kind != FaultKind::kKill) continue;
    if (f.shard != shard || f.phase != phase) continue;
    if (phase != FaultPhase::kBeforeJob && f.wave != wave) continue;
    fault_fired_[i] = true;
    return true;
  }
  return false;
}

double AggregationService::slowdown_ms(int shard) const {
  // opts_ is immutable after construction: no lock needed.
  double ms = 0.0;
  for (const ShardFault& f : opts_.failover.faults) {
    if (f.kind == FaultKind::kSlowdown && f.shard == shard) {
      ms += f.slowdown_ms;
    }
  }
  return ms;
}

/// The wave engine's switch access: every phase is one hold of the shard
/// mutex.
struct AggregationService::ShardAccess final : switchml::SwitchAccess {
  explicit ShardAccess(Shard& s) : shard(s) {}
  void run(Thunk thunk, void* ctx) override {
    util::LockGuard lk(shard.mu);
    thunk(ctx, shard.sw);
  }
  Shard& shard;
};

/// The shard task's hook points into the wave engine.
struct AggregationService::ShardHooks final : switchml::WaveHooks {
  ShardHooks(AggregationService& svc, int shard, telemetry::Trace* trace,
             telemetry::Trace::SpanId span)
      : svc(svc),
        shard(shard),
        straggle_ms(svc.slowdown_ms(shard)),
        trace(trace),
        span(span) {}
  /// Phase time reaches the registry once per task, completed waves only
  /// (a ShardDeadError unwinds past the waves it cut short).
  ~ShardHooks() override {
    const auto& h = svc.m_shard_phase_[static_cast<std::size_t>(shard)];
    h[0]->observe(static_cast<double>(add_ns) * 1e-9);
    h[1]->observe(static_cast<double>(collect_ns) * 1e-9);
  }

  void begin_wave(std::size_t /*wave*/) override {
    if (straggle_ms > 0.0) {
      // Injected straggler: the shard still answers, just late.
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(straggle_ms));
    }
  }
  bool kill_mid_add(std::size_t wave) override {
    return svc.fire_kill_fault(shard, FaultPhase::kMidAdd, wave);
  }
  bool kill_mid_collect(std::size_t wave) override {
    return svc.fire_kill_fault(shard, FaultPhase::kMidCollect, wave);
  }
  void end_wave(const switchml::WaveTiming& t) override {
    add_ns += t.add_ns;
    collect_ns += t.collect_ns;
    if (trace == nullptr) return;
    // The spans are sized by the same integer nanoseconds the histograms
    // sum, so traced wave time equals phase_breakdown() exactly, and the
    // windows tile: one shard's add_wave/collect_wave spans never overlap.
    const std::string wave = std::to_string(t.wave);
    const auto add_span = trace->begin_at(
        "add_wave", span, t.add_end - std::chrono::nanoseconds(t.add_ns));
    trace->annotate(add_span, "wave", wave);
    trace->end_at(add_span, t.add_end);
    const auto collect_span = trace->begin_at(
        "collect_wave", span,
        t.collect_end - std::chrono::nanoseconds(t.collect_ns));
    trace->annotate(collect_span, "wave", wave);
    trace->end_at(collect_span, t.collect_end);
  }
  [[noreturn]] void fail(switchml::WaveFailure failure, std::uint16_t,
                         int) override {
    // Every failure is a shard death, so it composes with failover: a
    // switch that cannot hold state long enough to replay one wave is as
    // dead as one that drops every packet, and a dirty slot must never
    // reach the range's next tenant.
    static constexpr const char* kWhy[] = {
        "cluster: aggregation packet exceeded max_retransmits",
        "cluster: read packet exceeded max_retransmits",
        "cluster: reset packet exceeded max_retransmits",
        "cluster: switch state loss exceeded wave-replay budget",
        "cluster: shard killed mid-add (injected)",
        "cluster: shard killed mid-collect (injected)",
    };
    throw ShardDeadError(shard, kWhy[static_cast<std::size_t>(failure)]);
  }

  AggregationService& svc;
  int shard;
  double straggle_ms;
  telemetry::Trace* trace;
  telemetry::Trace::SpanId span;
  std::uint64_t add_ns = 0;
  std::uint64_t collect_ns = 0;
};

JobReport AggregationService::reduce(const JobView& job,
                                     std::span<float> out) {
  if (qos_enabled_) {
    // Synchronous jobs never queue, but they DO charge the tenant's token
    // bucket: a tenant's rate limit covers its whole submission surface,
    // not just the async path.
    util::UniqueLock lk(job_mu_);
    admit(lk, job.tenant, /*queued=*/false);
  }
  JobReport report;
  run_job(job, out, report);
  return report;
}

void AggregationService::run_pass_task(PassContext& ctx, int shard) {
  const auto s = static_cast<std::size_t>(shard);
  PassContext::ShardSlot& slot = ctx.slots[s];
  const std::vector<std::size_t>& chunks = ctx.plan->chunks[s];
  const SlotRange& range = (*ctx.ranges)[s];
  telemetry::ScopedSpan shard_span(ctx.trace, "shard", ctx.pass_span);
  shard_span.annotate("shard", std::to_string(shard));
  shard_span.annotate("chunks", std::to_string(chunks.size()));
  try {
    if (fire_kill_fault(shard, FaultPhase::kBeforeJob, 0)) {
      throw ShardDeadError(shard,
                           "cluster: shard killed before job (injected)");
    }
    if (range.empty() && !chunks.empty()) {
      // Belt-and-braces: run_job acquires every range its plan names, so
      // this is unreachable. A logic_error, NOT a ShardDeadError, so the
      // failover machinery cannot misread an internal bug as an organic
      // shard death and silently "recover" from it.
      throw std::logic_error("cluster: shard task has no slot range");
    }
    // One deterministic loss and fault stream per (job, shard, pass):
    // replaying a job replays both.
    util::Rng rng(task_seed(opts_.loss_seed, ctx.job_id, shard, ctx.pass));
    std::unique_ptr<fault::FaultEngine> faults;
    if (opts_.fault.enabled) {
      faults = std::make_unique<fault::FaultEngine>(
          opts_.fault,
          task_seed(opts_.fault.seed, ctx.job_id, shard, ctx.pass));
    }
    ShardAccess access(*shards_[s]);
    ShardHooks hooks(*this, shard, ctx.trace, shard_span.id());
    switchml::WaveJob job;
    job.workers = ctx.workers;
    job.chunks = chunks;
    job.out = ctx.out;
    job.lo = static_cast<std::uint16_t>(range.lo);
    job.wave = range.size();
    job.loss_rate = ctx.loss_rate;
    job.max_retransmits = ctx.max_retransmits;
    job.rng = &rng;
    job.stats = &slot.stats;
    job.dead_mask = ctx.dead_mask;
    job.faults = faults.get();
    job.hooks = &hooks;
    switchml::WaveEngine(opts_.lanes).run(access, job);
  } catch (...) {
    slot.error = std::current_exception();
  }
}

void AggregationService::run_pass(PassContext& ctx, JobReport& report) {
  const JobPlan& plan = *ctx.plan;
  ctx.slots.assign(shards_.size(), {});
  ctx.active.clear();
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (!plan.chunks[s].empty()) ctx.active.push_back(static_cast<int>(s));
  }
  // The job's thread and, under kWorkers, datapath-pool helpers claim the
  // active shards, at most one helper per active shard past the first. One
  // FanOut per calling thread (job runner or synchronous caller): jobs
  // running at once share no helper count, and a thread whose joins keep
  // it waiting (helpers queued behind other jobs' shard tasks on a busy
  // pool) posts fewer helpers on its next passes.
  const FanOut::Item task = [](void* c, int, std::size_t i) noexcept {
    auto& pc = *static_cast<PassContext*>(c);
    pc.svc->run_pass_task(pc, pc.active[i]);
  };
  ForkJoinPool* const pool =
      opts_.dispatch == ClusterOptions::DispatchMode::kWorkers
          ? &datapath_pool()
          : nullptr;
  thread_local FanOut fan_out;
  fan_out.for_each(pool, ctx.active.size(),
                   static_cast<int>(ctx.active.size()) - 1, task, &ctx);
  // Merge after the join, on the job's thread.
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    report.per_shard[s] += ctx.slots[s].stats;  // += : retry passes merge in
  }
}

MailboxStats AggregationService::mailbox_stats(int shard) const {
  if (shard < 0 || shard >= opts_.num_shards) {
    throw std::invalid_argument("cluster: mailbox_stats: unknown shard");
  }
  return {};
}

void AggregationService::swap_ranges(std::vector<SlotRange>& ranges,
                                     const JobPlan& want) {
  util::UniqueLock lk(alloc_mu_);
  bool freed = false;
  for (std::size_t s = 0; s < ranges.size(); ++s) {
    if (ranges[s].empty()) continue;
    shards_[s]->slots.release(ranges[s]);
    ranges[s] = SlotRange{};
    freed = true;
  }
  if (freed) alloc_cv_.notify_all();
  for (std::size_t s = 0; s < want.slots.size(); ++s) {
    if (want.slots[s] == 0) continue;
    for (;;) {
      if (auto r = shards_[s]->slots.allocate(want.slots[s])) {
        ranges[s] = *r;
        break;
      }
      alloc_cv_.wait(lk);
    }
  }
}

AggregationService::PassOutcome AggregationService::classify(
    const PassContext& ctx) {
  // Shard deaths are failover candidates, a dead WORKER is a job-level
  // event run_job handles by policy, anything else fails the job.
  PassOutcome o;
  for (std::size_t s = 0; s < ctx.slots.size(); ++s) {
    const int shard = static_cast<int>(s);
    const std::exception_ptr& error = ctx.slots[s].error;
    if (!error) {
      if (!ctx.plan->chunks[s].empty()) health_.record_success(shard);
      continue;
    }
    if (!o.first) o.first = error;
    try {
      std::rethrow_exception(error);
    } catch (const fault::WorkerDeadError& e) {
      // The shard answered every probe — the WORKER's data is what's
      // never coming. Leave shard health alone.
      if (!o.worker_dead) {
        o.worker_dead = error;
        o.dead_worker = e.worker();
      }
    } catch (const ShardDeadError&) {
      if (health_.record_failure(shard) && opts_.failover.enabled) {
        o.died.push_back(shard);
      } else if (!o.fatal) {
        // Below the death threshold (or failover off): surface it.
        o.fatal = error;
      }
    } catch (...) {
      if (!o.fatal) o.fatal = error;
    }
  }
  return o;
}

void AggregationService::run_job(const JobView& job, std::span<float> out,
                                 JobReport& report) {
  core::check_views(job.workers, out.size(), "cluster");
  if (job.workers.size() > 32) {
    throw std::invalid_argument("cluster: bitmap is 32 bits wide");
  }
  PassContext ctx;
  // A negative override inherits the service's value; NaN does not.
  ctx.loss_rate = job.loss_rate < 0.0 ? opts_.loss_rate : job.loss_rate;
  ctx.max_retransmits =
      job.max_retransmits < 0 ? opts_.max_retransmits : job.max_retransmits;
  switchml::check_wire_params(ctx.loss_rate, ctx.max_retransmits);
  const std::size_t n = out.size();

  // Tracing is opt-in per service: acquire pairs with attach_trace's
  // release, so the parent id is coherent with the pointer. Validation
  // rejects above are untraced — a rejected job never started.
  telemetry::Trace* const trace = trace_.load(std::memory_order_acquire);
  telemetry::ScopedSpan job_span(
      trace, "job", trace_parent_.load(std::memory_order_relaxed));
  if (trace) job_span.annotate("tenant", std::string(job.tenant));
  const telemetry::Trace::SpanId submit_span =
      trace ? trace->begin("submit", job_span.id()) : telemetry::Trace::kNone;

  // High-water accounting for the bounded-concurrency guarantee.
  const std::uint64_t running =
      running_jobs_.fetch_add(1, std::memory_order_relaxed) + 1;
  std::uint64_t peak = peak_jobs_.load(std::memory_order_relaxed);
  while (running > peak &&
         !peak_jobs_.compare_exchange_weak(peak, running,
                                           std::memory_order_relaxed)) {
  }
  struct RunningGuard {
    std::atomic<std::uint64_t>& c;
    ~RunningGuard() { c.fetch_sub(1, std::memory_order_relaxed); }
  } running_guard{running_jobs_};

  report.tenant = job.tenant;
  report.per_shard.assign(static_cast<std::size_t>(opts_.num_shards), {});
  std::fill(out.begin(), out.end(), 0.0f);
  {
    util::LockGuard lk(stats_mu_);
    report.job_id = next_job_id_++;
  }
  if (trace) {
    job_span.annotate("job_id", std::to_string(report.job_id));
    trace->end(submit_span);
  }
  if (n == 0) return;
  const auto job_t0 = std::chrono::steady_clock::now();

  // Failover plans around dead shards; without it every shard stays in the
  // plan and a dead one fails the job.
  const bool fo = opts_.failover.enabled;
  const auto live = [&] {
    if (fo) return health_.alive_shards();
    std::vector<int> all(shards_.size());
    std::iota(all.begin(), all.end(), 0);
    return all;
  };
  const auto lanes = static_cast<std::size_t>(opts_.lanes);
  const std::size_t chunks = (n + lanes - 1) / lanes;

  // Job-level failover accounting: lives on the job total (and tenant
  // stats), not on any one shard — a re-route is a fabric event.
  switchml::SessionStats failover_delta{};
  std::exception_ptr error;

  // One liveness snapshot per plan: range acquisition follows the plan,
  // so a concurrent death can never hand a task chunks without a slot
  // range. A shard that dies after the snapshot just fails this job's pass
  // and the recovery below takes over.
  JobPlan plan;
  {
    telemetry::ScopedSpan part(trace, "partition", job_span.id());
    try {
      plan = planner_.plan(chunks, live());
    } catch (const NoLiveShardsError&) {
      error = std::current_exception();
    }
  }
  failover_delta.chunks_rerouted += plan.rerouted;
  std::vector<SlotRange> ranges(shards_.size());
  if (!error) {
    telemetry::ScopedSpan acq(trace, "acquire_slots", job_span.id());
    swap_ranges(ranges, plan);
  }
  // Control-plane reset of one held range: clears every slot so an aborted
  // attempt cannot leak register state or dedup-bitmap bits to the range's
  // next tenant.
  const auto scrub = [&](std::size_t s) {
    if (ranges[s].empty()) return;
    ShardAccess access(*shards_[s]);
    switchml::scrub(access, static_cast<std::uint16_t>(ranges[s].lo),
                    ranges[s].size());
  };

  ctx.plan = &plan;
  ctx.ranges = &ranges;
  ctx.workers = job.workers;
  ctx.out = out;
  ctx.job_id = report.job_id;
  ctx.trace = trace;
  ctx.svc = this;
  int reroutes = 0;
  // Worker-death recovery: ctx.dead_mask holds the workers declared dead so
  // far (shard tasks skip them); ctx.pass salts every task's seeds, so each
  // replay or retry draws a fresh, deterministic fault/loss stream.
  int worker_replays = 0;
  for (; !error; ++ctx.pass) {
    {
      telemetry::ScopedSpan pass_span(trace, "pass", job_span.id());
      if (trace) pass_span.annotate("pass", std::to_string(ctx.pass));
      ctx.pass_span = pass_span.id();
      run_pass(ctx, report);
    }
    const PassOutcome o = classify(ctx);
    if (!o.first) break;  // pass completed cleanly

    // Recover, or fail the job. Worker death outranks shard retries:
    // shards with fewer waves finished before the death wave WITH the dead
    // worker's data, so patching per shard cannot excise it — under
    // kDegrade the whole job replays over the survivors. Otherwise only
    // the dead shards' chunks retry (failover).
    const bool replay = o.worker_dead && !o.fatal;
    if (replay) {
      if (!switchml::declare_dead_worker(o.dead_worker, job.workers.size(),
                                         opts_.fault.dead_worker_policy,
                                         failover_delta, ctx.dead_mask) ||
          ++worker_replays > static_cast<int>(job.workers.size())) {
        error = o.worker_dead;
        break;
      }
    } else if (o.fatal || reroutes >= opts_.failover.max_reroutes_per_job) {
      // Without a fatal error every error is a failover death.
      error = o.fatal ? o.fatal : o.first;
      break;
    }
    JobPlan next;
    try {
      next = replay ? planner_.replay(chunks, live(), o.died)
                    : planner_.failover(plan, o.died, live());
    } catch (const NoLiveShardsError&) {
      error = replay ? o.worker_dead : o.first;  // what the pass raised
      break;
    }

    telemetry::Trace::SpanId fo_span = telemetry::Trace::kNone;
    if (replay) {
      // Scrub everything the aborted attempt touched: the resets bump the
      // slot epochs, so any straggler packet of that attempt is provably
      // stale.
      for (std::size_t s = 0; s < shards_.size(); ++s) scrub(s);
      ++failover_delta.faults.epoch_bumps;
    } else {
      // Failover: scrub each corpse's range (in a real rack the replacement
      // switch comes up zeroed; here the scrub models that re-image — the
      // survivors' slots were already reset by their own collects) and
      // retry its chunk set on the survivors. Chunk sums are order-free
      // across shards — every chunk is one private slot fed in worker
      // order — so the retried values are bit-identical to a no-failure
      // run.
      if (trace) {
        fo_span = trace->begin("failover", job_span.id());
        std::string dead;
        for (const int d : o.died) {
          if (!dead.empty()) dead += ",";
          dead += std::to_string(d);
        }
        trace->annotate(fo_span, "dead_shards", dead);
        trace->annotate(fo_span, "retry", std::to_string(reroutes + 1));
      }
      for (const int d : o.died) scrub(static_cast<std::size_t>(d));
      ++failover_delta.failover_retries;
      ++reroutes;
    }
    // A shard that died in this pass is booked as a failover books it,
    // even when the pass replays for a dead worker (which charges no
    // reroute budget and no retry).
    failover_delta.shard_failures += o.died.size();
    failover_delta.chunks_rerouted += next.rerouted;
    // Holding nothing while waiting on the allocator cannot deadlock with
    // other tenants, and the freed slots let their jobs make progress.
    swap_ranges(ranges, next);
    if (fo_span != telemetry::Trace::kNone) trace->end(fo_span);
    plan = std::move(next);
  }

  const bool failed = error != nullptr;
  if (failed) {
    // A failed job can leave partial sums and dedup-bitmap bits in its
    // slots; scrub them (lossless control-plane resets) before the ranges
    // go back into the pool for the next tenant.
    for (std::size_t s = 0; s < shards_.size(); ++s) scrub(s);
  }
  swap_ranges(ranges, {});

  const double wall_s = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - job_t0)
                            .count();
  const telemetry::Trace::SpanId merge_span =
      trace ? trace->begin("merge", job_span.id()) : telemetry::Trace::kNone;
  {
    util::LockGuard lk(stats_mu_);
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      shards_[s]->stats += report.per_shard[s];
      report.stats += report.per_shard[s];
    }
    report.stats += failover_delta;
    fabric_stats_ += failover_delta;
    TenantAccount& account = tenant_account_locked(job.tenant);
    account.stats += report.stats;
    account.slo.record(wall_s, !failed,
                       failover_delta.failover_retries > 0);
    if (failed) {
      ++jobs_failed_;
    } else {
      ++jobs_completed_;
    }
  }
  // Registry: job outcome, wall time and fabric-level failover events.
  m_jobs_[failed ? 1 : 0]->inc();
  m_job_wall_->observe(wall_s);
  const auto bump = [](telemetry::Counter* c, std::uint64_t v) {
    if (v != 0) c->inc(v);
  };
  bump(m_shard_deaths_, failover_delta.shard_failures);
  bump(m_rerouted_, failover_delta.chunks_rerouted);
  bump(m_retries_, failover_delta.failover_retries);
  bump(m_fault_[0], report.stats.faults.epoch_bumps);
  bump(m_fault_[1], report.stats.faults.workers_declared_dead);
  bump(m_fault_[2], report.stats.faults.waves_replayed);
  if (trace) {
    trace->end(merge_span);
    job_span.annotate("outcome", failed ? "failed" : "completed");
  }
  if (failed) std::rethrow_exception(error);
}

std::future<JobReport> AggregationService::submit(const JobView& job,
                                                  std::span<float> out) {
  // The job's control loop runs on a bounded job runner, which claims its
  // passes' shards with the datapath pool's helpers. (Pool tasks never
  // post to or wait on the pool, nor does any shard-mutex holder, and job
  // runners never wait on other jobs — ranges are acquired in ascending
  // shard order — so no fleet of tenants can deadlock or grow the thread
  // count.) Admission is charged once, at enqueue time. Copy the tenant name and the span *table* (W
  // pointers+lengths) — never the gradients. The caller owns the viewed
  // buffers and `out` until the future resolves.
  return enqueue_job(
      job.tenant,
      [this, tenant = std::string(job.tenant),
       views = std::vector<std::span<const float>>(job.workers.begin(),
                                                   job.workers.end()),
       loss = job.loss_rate, retx = job.max_retransmits, out]() {
        JobReport report;
        run_job(JobView{tenant, views, loss, retx}, out, report);
        return report;
      });
}

void AggregationService::kill_shard(int shard) {
  if (!opts_.failover.enabled) {
    throw std::logic_error(
        "cluster: kill_shard requires ClusterOptions::failover.enabled");
  }
  if (shard < 0 || shard >= opts_.num_shards) {
    throw std::invalid_argument("cluster: kill_shard: unknown shard");
  }
  health_.mark_dead(shard);
}

AggregationService::TenantAccount& AggregationService::tenant_account_locked(
    std::string_view tenant) {
  const auto it = tenant_stats_.find(tenant);
  if (it != tenant_stats_.end()) return it->second;
  return tenant_stats_.emplace(std::string(tenant), TenantAccount{})
      .first->second;
}

switchml::SessionStats AggregationService::shard_stats(int shard) const {
  // Lock order stats_mu_ -> shard.mu is safe: no path takes them reversed.
  Shard& sh = *shards_[static_cast<std::size_t>(shard)];
  util::LockGuard lk(stats_mu_);
  switchml::SessionStats out = sh.stats;
  {
    // The shard switch's kernel op counters (§5.2.1 taxonomy) are owned by
    // the switch itself — fold them in so per-shard books carry them.
    util::LockGuard swlk(sh.mu);
    out.ops = sh.sw.op_counters();
  }
  return out;
}

switchml::SessionStats AggregationService::tenant_stats(
    std::string_view tenant) const {
  util::LockGuard lk(stats_mu_);
  const auto it = tenant_stats_.find(tenant);
  return it == tenant_stats_.end() ? switchml::SessionStats{}
                                   : it->second.stats;
}

TenantSlo AggregationService::tenant_slo(std::string_view tenant) const {
  util::LockGuard lk(stats_mu_);
  const auto it = tenant_stats_.find(tenant);
  return it == tenant_stats_.end() ? TenantSlo{} : it->second.slo.snapshot();
}

switchml::SessionStats AggregationService::total_stats() const {
  util::LockGuard lk(stats_mu_);
  switchml::SessionStats total = fabric_stats_;
  for (const auto& s : shards_) {
    total += s->stats;
    util::LockGuard swlk(s->mu);
    total.ops += s->sw.op_counters();
  }
  return total;
}

std::vector<std::string> AggregationService::tenants() const {
  util::LockGuard lk(stats_mu_);
  std::vector<std::string> out;
  out.reserve(tenant_stats_.size());
  for (const auto& [name, account] : tenant_stats_) out.push_back(name);
  return out;
}

std::uint64_t AggregationService::jobs_completed() const {
  util::LockGuard lk(stats_mu_);
  return jobs_completed_;
}

std::uint64_t AggregationService::jobs_failed() const {
  util::LockGuard lk(stats_mu_);
  return jobs_failed_;
}

std::uint64_t AggregationService::jobs_rejected() const {
  util::LockGuard lk(stats_mu_);
  return jobs_rejected_;
}

std::size_t AggregationService::tenant_queue_depth(
    std::string_view tenant) const {
  util::LockGuard lk(job_mu_);
  const qos::AdmissionControl::TenantState* st = admission_.find(tenant);
  return st == nullptr ? 0 : st->queued;
}

std::uint64_t AggregationService::class_picks(qos::Priority p) const {
  util::LockGuard lk(job_mu_);
  return job_sched_.picks(p);
}

telemetry::PhaseBreakdown AggregationService::phase_breakdown() const {
  // A view over the registry: each shard's phase histogram carries the sum
  // of its wave observations, so the histogram _sum IS the cumulative
  // phase wall time (and what the traced wave spans add up to).
  telemetry::PhaseBreakdown p;
  for (const auto& h : m_shard_phase_) {
    p.add_s += h[0]->sum();
    p.collect_s += h[1]->sum();
  }
  return p;
}

double modeled_shard_parallel_seconds(
    const std::vector<switchml::SessionStats>& per_shard,
    std::size_t bytes_per_packet, double gbps, double latency_us) {
  // Shards drain independently (no cross-shard events), so the job is done
  // when the most-loaded shard's ingress pipe finishes serializing:
  // back-to-back packets at line rate, plus one propagation delay.
  // Degenerate inputs (no shards, no packets, a non-positive line rate or
  // packet size) model no traffic: 0 seconds, never NaN/inf.
  std::uint64_t max_packets = 0;
  for (const switchml::SessionStats& s : per_shard) {
    max_packets = std::max(max_packets, s.packets_sent);
  }
  if (max_packets == 0 || bytes_per_packet == 0 || gbps <= 0.0) return 0.0;
  const double tx =
      static_cast<double>(bytes_per_packet) * 8.0 / (gbps * 1e9);
  return static_cast<double>(max_packets) * tx + latency_us * 1e-6;
}

}  // namespace fpisa::cluster
