#include "switchml/session.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <string>

#include "cluster/shard_router.h"
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
              pisa::fpisa_program_options(config, opts.lanes, opts.slots)) {
  const std::size_t n = (opts_.slots + kRangeSlots - 1) / kRangeSlots;
  ranges_.reserve(n);
  for (std::size_t r = 0; r < n; ++r) {
    // Range 0 draws from loss_seed itself: a one-range session has the
    // one stream Rng(loss_seed).
    Range& range = ranges_.emplace_back(
        r == 0 ? opts_.loss_seed
               : cluster::task_seed(opts_.loss_seed, 0, static_cast<int>(r),
                                    0));
    range.lo = r * kRangeSlots;
    range.slots = std::min(kRangeSlots, opts_.slots - range.lo);
  }
  engines_.emplace_back(opts_.lanes);
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

void AggregationSession::plan(std::size_t chunks) {
  chunk_ids_.resize(chunks);
  std::iota(chunk_ids_.begin(), chunk_ids_.end(), std::size_t{0});
  // Range r's block is in proportion to its slots: every range runs about
  // as many waves.
  for (Range& r : ranges_) {
    r.first = chunks * r.lo / opts_.slots;
    r.last = chunks * (r.lo + r.slots) / opts_.slots;
  }
}

void AggregationSession::run_range(std::size_t member, std::size_t r) noexcept {
  Range& range = ranges_[r];
  try {
    // The range's block of out starts at zero (a failed wave leaves it so).
    const auto lanes = static_cast<std::size_t>(opts_.lanes);
    const std::size_t end = std::min(range.last * lanes, out_.size());
    std::fill(out_.begin() + static_cast<std::ptrdiff_t>(range.first * lanes),
              out_.begin() + static_cast<std::ptrdiff_t>(end), 0.0f);
    WaveJob job;
    job.workers = workers_;
    job.chunks =
        std::span(chunk_ids_).subspan(range.first, range.last - range.first);
    job.out = out_;
    job.lo = static_cast<std::uint16_t>(range.lo);
    job.wave = range.slots;
    job.loss_rate = opts_.loss_rate;
    job.max_retransmits = opts_.max_retransmits;
    job.rng = &range.rng;
    job.stats = &range.stats;
    job.dead_mask = dead_mask_;
    job.faults = range.faults ? &*range.faults : nullptr;
    job.hooks = &range;
    job.ops = &range.stats.ops;
    DirectAccess access(switch_);
    engines_[member].run(access, job);
  } catch (...) {
    range.error = std::current_exception();
  }
}

void AggregationSession::run_ranges(
    std::span<const std::span<const float>> workers, std::span<float> out,
    std::uint32_t dead_mask) {
  workers_ = workers;
  out_ = out;
  dead_mask_ = dead_mask;
  for (Range& r : ranges_) {
    r.stats = {};
    r.waves.clear();
    r.error = nullptr;
  }
  // A wipe clears every slot, so a reduce that may wipe runs its ranges on
  // the caller alone, one after another.
  cluster::ForkJoinPool* pool =
      ranges_.size() > 1 && !(opts_.fault.enabled && opts_.fault.wipe_switch)
          ? &cluster::datapath_pool()
          : nullptr;
  const std::size_t members =
      pool == nullptr ? 1 : static_cast<std::size_t>(pool->size()) + 1;
  while (engines_.size() < members) engines_.emplace_back(opts_.lanes);
  const cluster::FanOut::Item range = [](void* self, int member,
                                         std::size_t r) noexcept {
    static_cast<AggregationSession*>(self)->run_range(
        static_cast<std::size_t>(member), r);
  };
  fan_out_.for_each(pool, ranges_.size(),
                    static_cast<int>(ranges_.size()) - 1, range, this);
  // Every range has finished: merge in range order, book the operation
  // counts once, and only then surface the first range's error.
  SessionStats sum{};
  for (const Range& r : ranges_) {
    sum += r.stats;
    m_waves_->inc(r.waves.size());
    for (const auto& [add, collect] : r.waves) {
      add_ns_ += add;
      collect_ns_ += collect;
      m_phase_[0]->observe(static_cast<double>(add) / 1e9);
      m_phase_[1]->observe(static_cast<double>(collect) / 1e9);
    }
  }
  switch_.book_ops(sum.ops);
  stats_ += sum;
  m_retrans_->inc(sum.retransmissions);
  m_lost_->inc(sum.packets_lost);
  for (const Range& r : ranges_) {
    if (r.error) std::rethrow_exception(r.error);
  }
}

void AggregationSession::reduce_into(
    std::span<const std::span<const float>> workers, std::span<float> out) {
  if (static_cast<int>(workers.size()) != opts_.num_workers) {
    throw std::invalid_argument(
        "session: worker count does not match num_workers");
  }
  core::check_views(workers, out.size(), "session");
  const std::size_t n = out.size();
  const auto lanes = static_cast<std::size_t>(opts_.lanes);
  if (chunk_ids_.size() != (n + lanes - 1) / lanes) {
    plan((n + lanes - 1) / lanes);
  }
  if (!opts_.fault.enabled) {
    run_ranges(workers, out, 0);
    return;
  }
  // Guarded protocol: fresh fault streams per reduce, one per range, and
  // a dead-worker policy around the ranges. Only range 0 may wipe.
  for (std::size_t r = 0; r < ranges_.size(); ++r) {
    fault::FaultOptions fo = opts_.fault;
    fo.wipe_switch = fo.wipe_switch && r == 0;
    ranges_[r].faults.emplace(
        fo, r == 0 ? fo.seed
                   : cluster::task_seed(fo.seed, 0, static_cast<int>(r), 0));
  }
  std::uint32_t dead_mask = 0;
  for (;;) {
    try {
      run_ranges(workers, out, dead_mask);
      return;
    } catch (const fault::WorkerDeadError& e) {
      if (!declare_dead_worker(e.worker(), workers.size(),
                               opts_.fault.dead_worker_policy, stats_,
                               dead_mask)) {
        throw;
      }
      // Degrade: abandon the partial attempt — scrub every slot (bumps the
      // epochs, so any in-flight stragglers from the dead attempt are
      // stale), forget the ranges' ghosts, and rerun the job over the
      // survivors.
      DirectAccess access(switch_);
      scrub(access, 0, opts_.slots);
      for (Range& r : ranges_) r.faults->drop_ghosts();
      stats_.faults.epoch_bumps++;
    }
  }
}

}  // namespace fpisa::switchml
