#include "collective/communicator.h"

#include <bit>
#include <chrono>
#include <stdexcept>

#include "core/vector_accumulator.h"

namespace fpisa::collective {
namespace {

double elapsed_s(std::chrono::steady_clock::time_point a,
                 std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// kMean divides by the job's SURVIVOR count: workers the backend declared
/// dead (and degraded around) contributed nothing, so dividing by the full
/// W would bias the mean toward zero. With no deaths this is exactly the
/// legacy 1/W — bit-identical float op.
float mean_scale(std::size_t num_workers, std::uint32_t dead_workers) {
  const int dead = std::popcount(dead_workers);
  const std::size_t survivors =
      num_workers > static_cast<std::size_t>(dead)
          ? num_workers - static_cast<std::size_t>(dead)
          : num_workers;
  return 1.0f / static_cast<float>(survivors);
}

/// Worker death on the wire-less backends (host, tree). They have no
/// packet wave structure: the whole reduce is one "wave", so only a worker
/// dead from wave 0 is ever missing, and the wire-level knobs
/// (corruption/reorder/dup/wipe) have nothing to act on. Returns the dead
/// worker's index (booked into `network`) or -1; throws
/// fault::WorkerDeadError under kAbort or when no worker survives.
int wave0_dead_worker(const fault::FaultOptions& fault,
                      std::size_t num_workers,
                      switchml::SessionStats& network) {
  if (!fault.enabled || fault.dead_worker < 0 ||
      static_cast<std::size_t>(fault.dead_worker) >= num_workers ||
      fault.dead_worker_wave != 0) {
    return -1;
  }
  std::uint32_t dead_mask = 0;
  if (!switchml::declare_dead_worker(fault.dead_worker, num_workers,
                                     fault.dead_worker_policy, network,
                                     dead_mask)) {
    throw fault::WorkerDeadError(fault.dead_worker, 0);
  }
  return fault.dead_worker;
}

}  // namespace

void Communicator::ensure_metrics() const {
  std::call_once(metrics_once_, [this] {
    auto& reg = telemetry::registry();
    const telemetry::Labels labels{label_.label(),
                                   {"backend", std::string(name())}};
    m_jobs_ = &reg.counter("collective_allreduces_total", labels);
    m_wall_ = &reg.histogram("collective_allreduce_seconds", labels,
                             telemetry::MetricsRegistry::time_buckets());
  });
}

telemetry::Snapshot Communicator::metrics() const {
  ensure_metrics();
  return telemetry::snapshot().with_label("comm", label_.value());
}

telemetry::PhaseBreakdown Communicator::phase_breakdown() const {
  // Backends without an internal phase split: the whole job wall counts as
  // the add (aggregation) phase — the histogram sum is cumulative wall.
  ensure_metrics();
  return {m_wall_->sum(), 0.0};
}

void Communicator::set_trace(telemetry::Trace* trace,
                             telemetry::Trace::SpanId parent) {
  trace_parent_.store(parent, std::memory_order_relaxed);
  trace_.store(trace, std::memory_order_release);
}

// Conditionally locks run_mu_ (single-substrate backends only) through a
// deferred UniqueLock — a flow the static analysis cannot follow; the
// rank checker still covers it at runtime in Debug.
ReduceStats Communicator::run_and_finish(
    std::span<const std::span<const float>> workers, std::span<float> out,
    ReduceOp op, std::string_view tenant) FPISA_NO_THREAD_SAFETY_ANALYSIS {
  core::check_views(workers, out.size(), "collective");
  // Single-substrate backends (one session / one aggregator / one tree)
  // are not internally synchronized; serialize their jobs so concurrent
  // allreduce calls — or deferred JobHandles waited from several threads —
  // cannot race the substrate.
  util::UniqueLock lock(run_mu_, util::kDeferLock);
  if (!substrate_is_thread_safe()) lock.lock();
  return finish(std::chrono::steady_clock::now(), out, op, workers.size(),
                tenant, [&] { return run(workers, out, tenant); });
}

template <class Job>
ReduceStats Communicator::finish(std::chrono::steady_clock::time_point t0,
                                 std::span<float> out, ReduceOp op,
                                 std::size_t num_workers,
                                 std::string_view tenant, Job&& job) {
  ensure_metrics();
  telemetry::Trace* const tr = trace_.load(std::memory_order_acquire);
  const telemetry::Trace::SpanId span =
      tr ? tr->begin_at("allreduce",
                        trace_parent_.load(std::memory_order_relaxed), t0)
         : telemetry::Trace::kNone;
  if (tr) {
    tr->annotate(span, "backend", std::string(name()));
    if (!tenant.empty()) tr->annotate(span, "tenant", std::string(tenant));
  }
  ReduceStats stats;
  try {
    stats = job();
  } catch (...) {
    const auto t1 = std::chrono::steady_clock::now();
    if (tr) tr->end_at(span, t1);
    record_slo(tenant, elapsed_s(t0, t1), /*completed=*/false,
               /*failed_over=*/false);
    throw;
  }
  if (op == ReduceOp::kMean) {
    // Identical float op to the legacy trainer's host-side averaging (the
    // scale degrades to 1/survivors only when a worker was declared dead).
    const float inv_w = mean_scale(num_workers, stats.network.dead_workers);
    for (auto& v : out) v *= inv_w;
  }
  const auto t1 = std::chrono::steady_clock::now();
  stats.wall_s = elapsed_s(t0, t1);
  m_jobs_->inc();
  m_wall_->observe(stats.wall_s);
  record_slo(tenant, stats.wall_s, /*completed=*/true,
             stats.network.failover_retries > 0);
  if (tr) tr->end_at(span, t1);
  return stats;
}

void Communicator::record_slo(std::string_view tenant, double wall_s,
                              bool completed, bool failed_over) {
  if (substrate_keeps_slo()) return;  // tenant_slo() reads the substrate's
  const std::string_view key = tenant.empty() ? "default" : tenant;
  util::LockGuard lk(slo_mu_);
  auto it = slo_.find(key);
  if (it == slo_.end()) {
    it = slo_.emplace(std::string(key), cluster::SloAccumulator{}).first;
  }
  it->second.record(wall_s, completed, failed_over);
}

TenantSlo Communicator::tenant_slo(std::string_view tenant) const {
  const std::string_view key = tenant.empty() ? "default" : tenant;
  util::LockGuard lk(slo_mu_);
  const auto it = slo_.find(key);
  return it == slo_.end() ? TenantSlo{} : it->second.snapshot();
}

ReduceStats Communicator::allreduce(const WorkerViews& workers,
                                    std::span<float> out, ReduceOp op,
                                    std::string_view tenant) {
  return run_and_finish(workers.views(), out, op, tenant);
}

JobHandle Communicator::submit(const WorkerViews& workers,
                               std::span<float> out, ReduceOp op,
                               std::string_view tenant) {
  // Deferred: single-substrate backends serialize jobs anyway, so the work
  // runs at wait() on the waiter's thread — no thread is spawned. The span
  // table is copied (W pointers), the gradients are not.
  std::vector<std::span<const float>> views(workers.views().begin(),
                                            workers.views().end());
  return wrap(std::async(
      std::launch::deferred,
      [this, views = std::move(views), out, op, t = std::string(tenant)] {
        return run_and_finish(views, out, op, t);
      }));
}

TenantHandle Communicator::tenant(std::string name) {
  return TenantHandle(*this, std::move(name));
}

// --- host ------------------------------------------------------------------

HostCommunicator::HostCommunicator(HostAlgorithm algo,
                                   core::AccumulatorConfig accumulator)
    : accumulator_(accumulator) {
  switch (algo) {
    case HostAlgorithm::kExact:
      owned_ = std::make_unique<switchml::ExactAggregator>();
      break;
    case HostAlgorithm::kFp32:
      owned_ = std::make_unique<switchml::FloatSumAggregator>();
      break;
    case HostAlgorithm::kPacked:
      owned_ = std::make_unique<switchml::PackedSumAggregator>(
          accumulator_.format);
      break;
    case HostAlgorithm::kSwitchMl:
      owned_ = std::make_unique<switchml::SwitchMlAggregator>();
      break;
    case HostAlgorithm::kFpisa:
      owned_ = std::make_unique<switchml::FpisaAggregator>(accumulator_);
      break;
  }
  agg_ = owned_.get();
}

ReduceStats HostCommunicator::run(
    std::span<const std::span<const float>> workers, std::span<float> out,
    std::string_view /*tenant*/) {
  ReduceStats stats;
  stats.job_id = next_job_id_++;
  const int dead = wave0_dead_worker(fault_, workers.size(), stats.network);
  if (dead < 0) {
    agg_->reduce(workers, out);
    return stats;  // host path: no packet protocol
  }
  // kDegrade drops the dead view and sums the survivors exactly.
  std::vector<std::span<const float>> survivors;
  survivors.reserve(workers.size() - 1);
  for (std::size_t w = 0; w < workers.size(); ++w) {
    if (static_cast<int>(w) != dead) survivors.push_back(workers[w]);
  }
  agg_->reduce(survivors, out);
  return stats;
}

// --- switch ----------------------------------------------------------------

void SwitchCommunicator::ensure_session(int num_workers) {
  if (session_ && opts_.num_workers == num_workers) return;
  if (session_) {
    // Retire the old session's phase split so phase_breakdown() survives
    // recreation the same way total_ does for the packet counters.
    const telemetry::PhaseBreakdown p = session_->phase_breakdown();
    phase_base_.add_s += p.add_s;
    phase_base_.collect_s += p.collect_s;
  }
  opts_.num_workers = num_workers;
  session_ =
      std::make_unique<switchml::AggregationSession>(config_, opts_);
}

telemetry::PhaseBreakdown SwitchCommunicator::phase_breakdown() const {
  telemetry::PhaseBreakdown p = phase_base_;
  if (session_) {
    const telemetry::PhaseBreakdown cur = session_->phase_breakdown();
    p.add_s += cur.add_s;
    p.collect_s += cur.collect_s;
  }
  return p;
}

ReduceStats SwitchCommunicator::run(
    std::span<const std::span<const float>> workers, std::span<float> out,
    std::string_view /*tenant*/) {
  ensure_session(static_cast<int>(workers.size()));
  const switchml::SessionStats before = session_->stats();
  session_->reduce_into(workers, out);
  ReduceStats stats;
  stats.job_id = next_job_id_++;
  // This job's protocol traffic: the session's cumulative delta. The
  // centralized operator-= covers every field — including the per-MAU
  // kernel op counters, which a hand-rolled field list used to drop.
  stats.network = session_->stats();
  stats.network -= before;
  // dead_workers is a monotone mask, not a count, so the delta would clear
  // it on every job after the first death: the per-job view is the
  // session's current mask (the injected schedule is static per session, so
  // a worker dead in an earlier job is dead in this one too).
  stats.network.dead_workers = session_->stats().dead_workers;
  total_ += stats.network;  // survives session recreation, unlike stats()
  return stats;
}

// --- cluster ---------------------------------------------------------------

namespace {

constexpr std::string_view kDefaultTenant = "default";

ReduceStats report_to_stats(const cluster::JobReport& report) {
  ReduceStats stats;
  stats.job_id = report.job_id;
  stats.network = report.stats;
  stats.per_shard = report.per_shard;
  return stats;
}

}  // namespace

TenantSlo ClusterCommunicator::tenant_slo(std::string_view tenant) const {
  return service_.tenant_slo(tenant.empty() ? kDefaultTenant : tenant);
}

void ClusterCommunicator::set_trace(telemetry::Trace* trace,
                                    telemetry::Trace::SpanId parent) {
  Communicator::set_trace(trace, parent);
  service_.attach_trace(trace, parent);
}

ReduceStats ClusterCommunicator::run(
    std::span<const std::span<const float>> workers, std::span<float> out,
    std::string_view tenant) {
  const cluster::JobView job{tenant.empty() ? kDefaultTenant : tenant,
                             workers};
  return report_to_stats(service_.reduce(job, out));
}

JobHandle ClusterCommunicator::submit(const WorkerViews& workers,
                                      std::span<float> out, ReduceOp op,
                                      std::string_view tenant) {
  // Shape errors surface here, like every other backend's submit — not at
  // wait(). The job itself runs on the service's bounded job-runner pool;
  // the deferred wrapper collects the report at wait() time and runs the
  // shared finish step (kMean scale, wall clock since submission, metrics,
  // span).
  core::check_views(workers.views(), out.size(), "collective");
  const std::string_view key = tenant.empty() ? kDefaultTenant : tenant;
  const auto t0 = std::chrono::steady_clock::now();
  std::future<cluster::JobReport> inner =
      service_.submit(cluster::JobView{key, workers.views()}, out);
  return wrap(std::async(
      std::launch::deferred,
      [this, inner = std::move(inner), out, op, w = workers.count(), t0,
       t = std::string(tenant)]() mutable {
        return finish(t0, out, op, w, t,
                      [&] { return report_to_stats(inner.get()); });
      }));
}

// --- tree ------------------------------------------------------------------

ReduceStats TreeCommunicator::run(
    std::span<const std::span<const float>> workers, std::span<float> out,
    std::string_view /*tenant*/) {
  ReduceStats stats;
  stats.job_id = next_job_id_++;
  const int dead = wave0_dead_worker(fault_, workers.size(), stats.network);
  if (dead < 0) {
    tree_.reduce_into(workers, out);
  } else {
    // The tree's shape is fixed (worker count must equal the hierarchy's
    // leaves), so the dead leaf contributes zeros instead of being dropped.
    const std::vector<float> zeros(out.size(), 0.0f);
    std::vector<std::span<const float>> views(workers.begin(), workers.end());
    views[static_cast<std::size_t>(dead)] = zeros;
    tree_.reduce_into(views, out);
  }
  // The tree models its fabric as lossless serializing links rather than a
  // lossy packet protocol; surface the modeled packet count.
  stats.network.packets_sent = tree_.timing().packets;
  total_ += stats.network;
  return stats;
}

// --- factory ---------------------------------------------------------------

std::unique_ptr<Communicator> make_communicator(
    const CommunicatorOptions& opts) {
  // One fault surface: when enabled it is copied into the wire backends'
  // own options (so the substrate injects and recovers) and installed on
  // the communicator (worker-death handling, survivor-aware kMean). When
  // disabled, any fault options already present on session/cluster are
  // left exactly as the caller set them.
  switch (opts.backend) {
    case Backend::kHost: {
      auto c = std::make_unique<HostCommunicator>(opts.host_algorithm,
                                                  opts.accumulator);
      c->set_fault_options(opts.fault);
      return c;
    }
    case Backend::kSwitch: {
      switchml::SessionOptions session = opts.session;
      if (opts.fault.enabled) session.fault = opts.fault;
      auto c = std::make_unique<SwitchCommunicator>(opts.switch_config,
                                                    session);
      c->set_fault_options(opts.fault);
      return c;
    }
    case Backend::kCluster: {
      cluster::ClusterOptions cl = opts.cluster;
      if (opts.fault.enabled) cl.fault = opts.fault;
      // Same idiom as the fault surface: the top-level QoS options win when
      // enabled; otherwise whatever the caller put on cluster.qos stands.
      if (opts.qos.enabled) cl.qos = opts.qos;
      auto c = std::make_unique<ClusterCommunicator>(std::move(cl));
      c->set_fault_options(opts.fault);
      return c;
    }
    case Backend::kTree: {
      auto c = std::make_unique<TreeCommunicator>(opts.hierarchy);
      c->set_fault_options(opts.fault);
      return c;
    }
  }
  throw std::invalid_argument("collective: unknown backend");
}

const char* backend_name(Backend backend) {
  switch (backend) {
    case Backend::kHost:
      return "host";
    case Backend::kSwitch:
      return "switch";
    case Backend::kCluster:
      return "cluster";
    case Backend::kTree:
      return "tree";
  }
  return "?";
}

}  // namespace fpisa::collective
