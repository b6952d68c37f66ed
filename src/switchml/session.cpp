#include "switchml/session.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <string>

#include "core/vector_accumulator.h"

namespace fpisa::switchml {
namespace {

SessionOptions validated(SessionOptions opts) {
  if (opts.num_workers < 1) {
    throw std::invalid_argument("session: job has no workers");
  }
  if (opts.num_workers > 32) {
    throw std::invalid_argument("session: bitmap is 32 bits wide");
  }
  check_wire_params(opts.loss_rate, opts.max_retransmits, opts.fault);
  return opts;
}

}  // namespace

AggregationSession::AggregationSession(pisa::SwitchConfig config,
                                       SessionOptions opts)
    : opts_(validated(opts)),
      switch_(config,
              pisa::fpisa_program_options(config, opts.lanes, opts.slots)),
      loss_rng_(opts.loss_seed),
      engine_(opts.lanes) {
  init_metrics();
}

void AggregationSession::init_metrics() {
  const auto& sess = label_.label();
  auto& reg = telemetry::registry();
  m_waves_ = &reg.counter("switchml_session_waves_total", {sess});
  m_retrans_ = &reg.counter("switchml_session_retransmissions_total", {sess});
  m_lost_ = &reg.counter("switchml_session_packets_lost_total", {sess});
  m_phase_[0] = &reg.histogram("switchml_session_phase_seconds",
                               {sess, {"phase", "add"}},
                               telemetry::MetricsRegistry::time_buckets());
  m_phase_[1] = &reg.histogram("switchml_session_phase_seconds",
                               {sess, {"phase", "collect"}},
                               telemetry::MetricsRegistry::time_buckets());
}

void AggregationSession::end_wave(const WaveTiming& t) {
  add_ns_ += t.add_ns;
  collect_ns_ += t.collect_ns;
  if (!telemetry::enabled()) return;
  m_waves_->inc();
  m_phase_[0]->observe(static_cast<double>(t.add_ns) / 1e9);
  m_phase_[1]->observe(static_cast<double>(t.collect_ns) / 1e9);
  if (stats_.retransmissions != stats_flushed_.retransmissions) {
    m_retrans_->inc(stats_.retransmissions - stats_flushed_.retransmissions);
  }
  if (stats_.packets_lost != stats_flushed_.packets_lost) {
    m_lost_->inc(stats_.packets_lost - stats_flushed_.packets_lost);
  }
  stats_flushed_ = stats_;
}

void AggregationSession::reduce_into(
    std::span<const std::span<const float>> workers, std::span<float> out) {
  if (static_cast<int>(workers.size()) != opts_.num_workers) {
    throw std::invalid_argument(
        "session: worker count does not match num_workers");
  }
  core::check_views(workers, out.size(), "session");
  const std::size_t n = out.size();
  std::fill(out.begin(), out.end(), 0.0f);
  const auto lanes = static_cast<std::size_t>(opts_.lanes);
  if (chunk_ids_.size() != (n + lanes - 1) / lanes) {
    chunk_ids_.resize((n + lanes - 1) / lanes);
    std::iota(chunk_ids_.begin(), chunk_ids_.end(), std::size_t{0});
  }

  WaveJob job;
  job.workers = workers;
  job.chunks = chunk_ids_;
  job.out = out;
  job.wave = opts_.slots;
  job.loss_rate = opts_.loss_rate;
  job.max_retransmits = opts_.max_retransmits;
  job.rng = &loss_rng_;
  job.stats = &stats_;
  job.hooks = this;
  // A single-range job, or a one-CPU host, has no datapath to share.
  cluster::ForkJoinPool& pool = cluster::datapath_pool();
  if (opts_.slots > WaveEngine::kRangeSlots && pool.size() > 0) {
    job.team = &pool;
  }
  DirectAccess access(switch_);
  if (!opts_.fault.enabled) {
    engine_.run(access, job);
    return;
  }
  // Guarded protocol: one deterministic fault stream per reduce, and a
  // dead-worker policy around the engine.
  fault::FaultEngine faults(opts_.fault, opts_.fault.seed);
  job.faults = &faults;
  for (;;) {
    try {
      engine_.run(access, job);
      return;
    } catch (const fault::WorkerDeadError& e) {
      if (!declare_dead_worker(e.worker(), workers.size(),
                               opts_.fault.dead_worker_policy, stats_,
                               job.dead_mask)) {
        throw;
      }
      // Degrade: abandon the partial attempt — scrub every slot (bumps the
      // epochs, so any in-flight stragglers from the dead attempt are
      // stale), forget the engine's ghosts, and rerun the job over the
      // survivors.
      scrub(access, 0, opts_.slots);
      faults.drop_ghosts();
      stats_.faults.epoch_bumps++;
    }
  }
}

}  // namespace fpisa::switchml
