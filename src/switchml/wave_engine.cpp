#include "switchml/wave_engine.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "cluster/mailbox.h"

namespace fpisa::switchml {
namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

std::size_t checked_lanes(int lanes) {
  if (lanes < 1) {
    throw std::invalid_argument("wave engine: lanes must be at least 1");
  }
  return static_cast<std::size_t>(lanes);
}

}  // namespace

void check_wire_params(double loss_rate, int max_retransmits,
                       const fault::FaultOptions& fault) {
  for (const double p : {loss_rate, fault.corrupt_rate, fault.reorder_rate,
                         fault.dup_rate, fault.stale_dup_rate}) {
    if (!(p >= 0.0 && p <= 1.0)) {
      throw std::invalid_argument("loss and fault rates must be in [0, 1]");
    }
  }
  if (max_retransmits < 0) {
    throw std::invalid_argument("max_retransmits must be non-negative");
  }
}

bool declare_dead_worker(int worker, std::size_t num_workers,
                         fault::DeadWorkerPolicy policy, SessionStats& stats,
                         std::uint32_t& dead_mask) {
  const std::uint32_t bit = 1u << static_cast<unsigned>(worker);
  ++stats.faults.workers_declared_dead;
  stats.dead_workers |= bit;
  dead_mask |= bit;
  return policy == fault::DeadWorkerPolicy::kDegrade &&
         static_cast<std::size_t>(std::popcount(dead_mask)) < num_workers;
}

CollectSchedule draw_collect_schedule(std::size_t n, double loss_rate,
                                      int max_retransmits, util::Rng* rng,
                                      SessionStats& stats) {
  check_wire_params(loss_rate, max_retransmits);
  CollectSchedule sched;
  if (rng == nullptr) {
    if (loss_rate != 0.0) {
      throw std::invalid_argument(
          "draw_collect_schedule: a lossy wire needs an rng");
    }
    // Lossless wire: every read and every reset gets through first time.
    sched.delivered = 2 * n;
    sched.cleared = n;
    stats.packets_sent += 2 * n;
    stats.slot_reuses += n;
    return sched;
  }
  const std::uint64_t lost = util::Rng::bernoulli_cut(loss_rate);
  for (std::size_t k = 0; k < n; ++k) {
    bool have = false;
    for (int attempt = 0; attempt <= max_retransmits && !have; ++attempt) {
      ++stats.packets_sent;
      if (rng->next_bernoulli(lost)) {
        ++stats.packets_lost;
        continue;
      }
      ++sched.delivered;
      if (rng->next_bernoulli(lost)) {
        ++stats.packets_lost;
        continue;
      }
      have = true;
    }
    if (!have) {
      sched.failure = WaveFailure::kReadExhausted;
      return sched;
    }
    bool cleared_slot = false;
    for (int attempt = 0; attempt <= max_retransmits; ++attempt) {
      ++stats.packets_sent;
      if (rng->next_bernoulli(lost)) {
        ++stats.packets_lost;
        continue;
      }
      ++sched.delivered;
      ++stats.slot_reuses;
      cleared_slot = true;
      if (!rng->next_bernoulli(lost)) break;
      ++stats.packets_lost;  // ack lost: re-clearing is harmless
    }
    if (!cleared_slot) {
      sched.failure = WaveFailure::kResetExhausted;
      return sched;
    }
    ++sched.cleared;
  }
  return sched;
}

void WaveHooks::fail(WaveFailure failure, std::uint16_t slot, int worker) {
  using Phase = RetransmitExhaustedError::Phase;
  switch (failure) {
    case WaveFailure::kAddExhausted:
      throw RetransmitExhaustedError(Phase::kAdd, slot, worker);
    case WaveFailure::kReadExhausted:
      throw RetransmitExhaustedError(Phase::kRead, slot, worker);
    case WaveFailure::kResetExhausted:
      throw RetransmitExhaustedError(Phase::kReset, slot, worker);
    case WaveFailure::kReplayBudget:
      throw std::runtime_error(
          "switch state loss not recoverable within the wave-replay budget");
    case WaveFailure::kKilledMidAdd:
    case WaveFailure::kKilledMidCollect:
      break;
  }
  throw std::runtime_error("switch killed mid-wave");
}

WaveEngine::WaveEngine(int lanes)
    : lanes_(checked_lanes(lanes)), queue_(lanes_), tail_row_(lanes_) {}

void WaveEngine::gather_sources(const WaveJob& job, std::size_t wave) {
  sources_.clear();
  for (std::size_t w = 0; w < job.workers.size(); ++w) {
    if ((job.dead_mask >> w) & 1u) continue;
    if (job.faults != nullptr &&
        job.faults->worker_silent(static_cast<int>(w), wave)) {
      continue;  // injected death: this worker's packets never arrive
    }
    sources_.push_back({w, id_of(job, w), std::as_bytes(job.workers[w])});
  }
}

template <class Fn>
bool WaveEngine::pack(const WaveJob& job, std::size_t wave, std::size_t k0,
                      std::size_t k1, Fn&& fn) {
  const std::size_t base = wave * job.wave;
  const std::size_t payload_bytes = lanes_ * sizeof(float);
  for (std::size_t k = k0; k < k1; ++k) {
    const auto slot = static_cast<std::uint16_t>(job.lo + (k - base));
    const std::size_t i0 = job.chunks[k] * payload_bytes;
    for (const Source& src : sources_) {
      // The payload is the chunk's bytes in the worker's own view; only a
      // short tail chunk is copied, zero-padded, into the queue's store.
      const std::byte* payload =
          i0 + payload_bytes <= src.view.size()
              ? src.view.data() + i0
              : std::as_bytes(queue_.materialize(src.view.subspan(
                                  std::min(i0, src.view.size()))))
                    .data();
      if (!fn(slot, src, payload)) return false;
    }
  }
  return true;
}

bool WaveEngine::send(const WaveJob& job, std::uint16_t slot,
                      std::uint8_t id, const std::byte* payload) {
  SessionStats& st = *job.stats;
  if (job.rng == nullptr) {  // lossless wire: one copy, acked first time
    ++st.packets_sent;
    queue_.push(slot, id, 0, payload);
    return true;
  }
  util::Rng& rng = *job.rng;
  bool delivered_before = false;
  for (int attempt = 0; attempt <= job.max_retransmits; ++attempt) {
    if (attempt > 0) ++st.retransmissions;
    ++st.packets_sent;
    if (rng.next_bernoulli(loss_cut_)) {
      ++st.packets_lost;
      continue;  // request lost: retransmit after "timeout"
    }
    if (job.faults == nullptr) {
      queue_.push(slot, id, 0, payload);
    } else if (!job.faults->deliver(queue_, slot, id, stamps_[slot - job.lo],
                                    {payload, lanes_ * sizeof(float)})) {
      // A corrupted copy still reaches the switch (whose guard rejects
      // it) but can never be acked: keep retransmitting.
      continue;
    }
    if (delivered_before) ++st.duplicates_absorbed;
    delivered_before = true;
    if (rng.next_bernoulli(loss_cut_)) {
      ++st.packets_lost;
      continue;  // ack lost: the worker retransmits, the bitmap dedups
    }
    return true;
  }
  return false;
}

WaveEngine::Encoded WaveEngine::encode(const WaveJob& job, WaveHooks& hooks,
                                       std::size_t wave) {
  Encoded e;
  const std::size_t base = wave * job.wave;
  const std::size_t end = std::min(base + job.wave, job.chunks.size());
  const std::size_t mid = base + (end - base) / 2;
  if (job.faults != nullptr) job.faults->begin_wave(queue_);
  gather_sources(job, wave);
  const auto send_one = [&](std::uint16_t slot, const Source& src,
                            const std::byte* payload) {
    if (send(job, slot, src.id, payload)) return true;
    e.ok = false;
    e.slot = slot;
    e.worker = static_cast<int>(src.w);
    return false;
  };
  if (pack(job, wave, base, mid, send_one)) {
    e.killed = hooks.kill_mid_add(wave);
    if (!e.killed) pack(job, wave, mid, end, send_one);
  }
  return e;
}

void WaveEngine::admit(pisa::FpisaSwitch& sw, const WaveJob& job,
                       std::size_t wave) {
  Log& log = log_;
  const std::size_t n = queue_.size();
  const std::size_t at = log.rows.size();
  log.payloads.resize(at + n);
  log.rows.resize(at + n);
  pisa::FpisaSwitch::GuardStats guard;
  const std::size_t accepted = sw.admit(
      queue_.slots, queue_.workers, queue_.payloads, queue_.stamps,
      queue_.checksums, queue_.guarded ? &guard : nullptr,
      std::span(log.payloads).subspan(at), std::span(log.rows).subspan(at));
  log.payloads.resize(at + accepted);
  log.rows.resize(at + accepted);
  job.stats->faults.corrupt_rejected += guard.corrupt_rejected;
  job.stats->faults.stale_dups_rejected += guard.stale_rejected;
  queue_.clear();
  if (ranges_ > 1 && queue_.guarded) {
    // A plain queue is slot-major, so its accepted rows already ascend;
    // ghosts and shuffles break that, so a guarded wave is grouped by range
    // here (stably: each slot keeps its packets' order).
    const auto range_of = [&](std::uint32_t row) {
      return (row - job.lo) / range_slots_;
    };
    range_counts_.assign(ranges_ + 1, 0);
    for (std::size_t i = at; i < at + accepted; ++i) {
      ++range_counts_[range_of(log.rows[i]) + 1];
    }
    for (std::size_t r = 1; r <= ranges_; ++r) {
      range_counts_[r] += range_counts_[r - 1];
    }
    sort_payloads_.resize(accepted);
    sort_rows_.resize(accepted);
    for (std::size_t i = at; i < at + accepted; ++i) {
      const std::size_t to = range_counts_[range_of(log.rows[i])]++;
      sort_payloads_[to] = log.payloads[i];
      sort_rows_[to] = log.rows[i];
    }
    std::copy(sort_payloads_.begin(), sort_payloads_.end(),
              log.payloads.begin() + static_cast<std::ptrdiff_t>(at));
    std::copy(sort_rows_.begin(), sort_rows_.end(),
              log.rows.begin() + static_cast<std::ptrdiff_t>(at));
  }
  log.steps.push_back({wave, false, at, at + accepted});
  if (!deferred_) replay(sw, job, false);  // inline: the gather runs now
}

void WaveEngine::resync(pisa::FpisaSwitch& sw, const WaveJob& job) {
  stamps_.resize(job.wave);
  for (std::size_t k = 0; k < job.wave; ++k) {
    stamps_[k] = sw.slot_stamp(static_cast<std::uint16_t>(job.lo + k));
  }
  stamp_generation_ = sw.generation();
}

void WaveEngine::recover(SwitchAccess& sw, const WaveJob& job,
                         WaveHooks& hooks, std::size_t wave) {
  fault::FaultEngine& f = *job.faults;
  SessionStats& st = *job.stats;
  const std::size_t base = wave * job.wave;
  const std::size_t end = std::min(base + job.wave, job.chunks.size());
  const std::size_t wave_n = end - base;
  const bool wipe = f.should_wipe(wave);
  std::uint32_t expected = 0;
  for (std::size_t w = 0; w < job.workers.size(); ++w) {
    if (!((job.dead_mask >> w) & 1u)) expected |= 1u << id_of(job, w);
  }
  bitmaps_.resize(wave_n);
  sw.with([&](pisa::FpisaSwitch& s) {
    // Injected whole-switch state loss lands after the wave's adds, the
    // moment it hurts most: everything logged so far runs first.
    if (wipe) {
      replay(s, job, false);
      s.wipe_state();
    }
    // A generation bump means every register, this wave's partial sums
    // included, is gone: re-read the stamps and replay the wave from
    // the host-held gradients in one guarded batch (the dedup bitmap
    // absorbs anything that did survive).
    for (int replays = 0; s.generation() != stamp_generation_; ++replays) {
      if (replays >= f.options().max_wave_replays) {
        hooks.fail(WaveFailure::kReplayBudget, job.lo, -1);
      }
      resync(s, job);
      ++st.faults.epoch_bumps;
      gather_sources(job, wave);
      pack(job, wave, base, end,
           [&](std::uint16_t slot, const Source& src,
               const std::byte* payload) {
             queue_.push(slot, src.id, stamps_[slot - job.lo], payload);
             return true;
           });
      admit(s, job, wave);
      ++st.faults.waves_replayed;
    }
    s.release(job.lo, wave_n, /*reset=*/false, bitmaps_);
  });
  // Wave deadline: loss is retried to acknowledgment, so a live worker
  // reaches at least one slot of every wave. One whose dedup bit is clear
  // in ALL of them is silent, and its data is never coming.
  std::uint32_t missing = expected;
  for (const std::uint32_t b : bitmaps_) missing &= ~b;
  if (missing != 0) {
    throw fault::WorkerDeadError(std::countr_zero(missing), wave);
  }
}

void WaveEngine::collect(SwitchAccess& sw, const WaveJob& job,
                         WaveHooks& hooks, std::size_t wave,
                         const CollectSchedule& sched) {
  const std::size_t base = wave * job.wave;
  const std::size_t row_bytes = lanes_ * sizeof(float);
  const std::span<std::byte> out = std::as_writable_bytes(job.out);
  std::byte* const bounce =
      std::as_writable_bytes(std::span(wave_values_)).data();
  // The cleared prefix is released in one hold: a failed slot and
  // everything after it stay untouched, as they would.
  sw.with([&](pisa::FpisaSwitch& s) {
    s.release(job.lo, sched.cleared, /*reset=*/true);
    s.sim().account_packets(sched.delivered - sched.cleared);
    if (job.faults != nullptr) {
      // Each reset bumped its slot's epoch, and the reset ack carries the
      // new stamp: the next wave's packets carry it, and any ghost still
      // buffered from this one is provably stale.
      for (std::size_t k = 0; k < sched.cleared; ++k) {
        stamps_[k] = s.slot_stamp(static_cast<std::uint16_t>(job.lo + k));
      }
    }
    // Each cleared slot drains straight into its chunk's place in out. The
    // short tail chunk goes through the tail row, and every slot of a wave
    // whose schedule failed through the wave's bounce rows: it writes
    // nothing into out.
    Log& log = log_;
    const std::size_t at = log.dests.size();
    log.dests.resize(at + sched.cleared);
    for (std::size_t k = 0; k < sched.cleared; ++k) {
      const std::size_t i0 = job.chunks[base + k] * row_bytes;
      if (sched.failure) {
        log.dests[at + k] = bounce + k * row_bytes;
      } else if (i0 + row_bytes <= out.size()) {
        log.dests[at + k] = out.data() + i0;
      } else {
        log.dests[at + k] =
            std::as_writable_bytes(std::span(tail_row_)).data();
        tail_at_ = i0;
      }
    }
    log.steps.push_back({wave, true, at, at + sched.cleared});
    if (!deferred_) replay(s, job, false);  // inline: the drain runs now
  });
  if (sched.failure) {
    // A never-reset slot would swallow the next wave's adds through the
    // dedup bitmap: fail loudly rather than aggregate silently wrong.
    hooks.fail(*sched.failure,
               static_cast<std::uint16_t>(job.lo + sched.cleared), -1);
  }
}

void WaveEngine::replay(pisa::FpisaSwitch& sw, const WaveJob& job,
                        bool timed) {
  if (log_.steps.empty()) return;
  replay_sw_ = &sw;
  replay_job_ = &job;
  replay_timed_ = timed;
  const cluster::FanOut::Item range = [](void* self, int member,
                                         std::size_t r) noexcept {
    static_cast<WaveEngine*>(self)->replay_range(
        r, static_cast<std::size_t>(member));
  };
  fan_out_.for_each(job.team, ranges_, static_cast<int>(ranges_) - 1, range,
                    this);
  close(job);
}

void WaveEngine::book(pisa::FpisaSwitch& sw) {
  core::OpCounters ops{};
  for (Member& m : members_) {
    ops += m.ops;
    m.ops = {};
  }
  sw.book_ops(ops);
}

void WaveEngine::close(const WaveJob& job) {
  // The short tail chunk keeps only the lanes that fall inside out.
  const std::span<std::byte> out = std::as_writable_bytes(job.out);
  if (tail_at_ && *tail_at_ < out.size()) {
    std::memcpy(out.data() + *tail_at_, tail_row_.data(),
                out.size() - *tail_at_);
  }
  tail_at_.reset();
  log_.payloads.clear();
  log_.rows.clear();
  log_.steps.clear();
  log_.dests.clear();
  queue_.recycle();  // no logged payload points into its store any more
}

void WaveEngine::replay_range(std::size_t r, std::size_t member) {
  pisa::FpisaSwitch& sw = *replay_sw_;
  const WaveJob& job = *replay_job_;
  const Log& log = log_;
  Member& m = members_[member];
  // Slots [first, last) of the job's range, as offsets from job.lo.
  const std::size_t first = r * range_slots_;
  const std::size_t last = std::min(first + range_slots_, job.wave);
  const auto range_of = [&](std::uint32_t row) {
    return (row - job.lo) / range_slots_;
  };
  // This range's entries of every gather step, found up front so that each
  // step can prefetch the next one's payloads: the protocol pass never
  // reads them, and a range reads each worker's view in short strides one
  // wave apart, which the hardware prefetchers do not follow.
  m.spans.clear();
  for (const Step& step : log.steps) {
    if (step.drain) continue;
    const auto lo = log.rows.begin() + static_cast<std::ptrdiff_t>(step.begin);
    const auto hi = log.rows.begin() + static_cast<std::ptrdiff_t>(step.end);
    const auto from = std::partition_point(
        lo, hi, [&](std::uint32_t row) { return range_of(row) < r; });
    const auto to = std::partition_point(
        from, hi, [&](std::uint32_t row) { return range_of(row) == r; });
    m.spans.push_back({static_cast<std::size_t>(from - log.rows.begin()),
                       static_cast<std::size_t>(to - log.rows.begin())});
  }
  const std::size_t payload_bytes = lanes_ * sizeof(float);
  const auto prefetch = [&](std::pair<std::size_t, std::size_t> span) {
    for (std::size_t i = span.first; i < span.second; ++i) {
      const std::byte* p = log.payloads[i];
      for (std::size_t at = 0; at < payload_bytes; at += 64) {
        __builtin_prefetch(p + at);
      }
      __builtin_prefetch(p + payload_bytes - 1);
    }
  };
  // One range reads the views in order, which the prefetchers follow.
  const bool ahead = ranges_ > 1;
  if (ahead && !m.spans.empty()) prefetch(m.spans[0]);
  std::size_t g = 0;  // gather steps seen
  Clock::time_point t0 = replay_timed_ ? Clock::now() : Clock::time_point{};
  for (const Step& step : log.steps) {
    if (step.drain) {
      const std::size_t b = std::min(last, step.end - step.begin);
      if (first >= b) continue;
      sw.drain(static_cast<std::uint16_t>(job.lo + first),
               std::span(log.dests).subspan(step.begin + first, b - first));
    } else {
      const auto [a, b] = m.spans[g++];
      if (ahead && g < m.spans.size()) prefetch(m.spans[g]);
      if (a == b) continue;
      sw.gather(std::span(log.payloads).subspan(a, b - a),
                std::span(log.rows).subspan(a, b - a), m.ops);
    }
    if (replay_timed_) {
      const Clock::time_point t1 = Clock::now();
      m.ns[2 * step.wave + (step.drain ? 1 : 0)] += ns_between(t0, t1);
      t0 = t1;
    }
  }
}

void WaveEngine::finish(SwitchAccess& sw, const WaveJob& job,
                        WaveHooks& hooks, std::size_t waves,
                        Clock::time_point start) {
  const Clock::time_point t0 = Clock::now();
  sw.with([&](pisa::FpisaSwitch& s) {
    replay(s, job, deferred_);  // inline: empty, each hold replayed its own
    book(s);
  });
  if (!deferred_) return;  // inline waves reported their own timing
  // The datapath pass's wall time on the caller is the waves' kernel
  // work. Each (wave, phase) gets the share of it that its steps took of
  // the members' summed kernel time; rounding carries over, so the shares
  // add up to the whole.
  const double extra = static_cast<double>(ns_between(t0, Clock::now()));
  std::uint64_t busy = 0;
  for (const Member& m : members_) {
    for (const std::uint64_t ns : m.ns) busy += ns;
  }
  std::uint64_t seen = 0;
  std::uint64_t given = 0;
  Clock::time_point at = start;
  for (std::size_t k = 0; k < waves; ++k) {
    std::uint64_t ns[2];
    for (std::size_t phase = 0; phase < 2; ++phase) {
      for (const Member& m : members_) seen += m.ns[2 * k + phase];
      const auto upto = busy == 0 ? std::uint64_t{0}
                                  : static_cast<std::uint64_t>(
                                        extra * static_cast<double>(seen) /
                                        static_cast<double>(busy));
      ns[phase] = protocol_ns_[2 * k + phase] + (upto - given);
      given = upto;
    }
    const Clock::time_point add_end = at + std::chrono::nanoseconds(ns[0]);
    at = add_end + std::chrono::nanoseconds(ns[1]);
    hooks.end_wave({k, ns[0], ns[1], add_end, at});
  }
}

void WaveEngine::run(SwitchAccess& sw, const WaveJob& job) {
  if (job.stats == nullptr) {
    throw std::invalid_argument("wave engine: job has no stats");
  }
  if (job.rng == nullptr && (job.loss_rate != 0.0 || job.faults != nullptr)) {
    throw std::invalid_argument(
        "wave engine: a lossy or faulty wire needs an rng");
  }
  const std::size_t total = job.chunks.size();
  if (total == 0) return;
  if (job.wave == 0) {
    throw std::invalid_argument("wave engine: empty slot range");
  }
  WaveHooks default_hooks;
  WaveHooks& hooks = job.hooks != nullptr ? *job.hooks : default_hooks;
  queue_.clear();
  queue_.recycle();
  queue_.guarded = job.faults != nullptr;
  loss_cut_ = util::Rng::bernoulli_cut(job.loss_rate);
  wave_values_.resize(job.wave * lanes_);
  const std::size_t n_waves = (total + job.wave - 1) / job.wave;
  deferred_ = job.team != nullptr;
  range_slots_ = deferred_ ? kRangeSlots : job.wave;  // inline: one range
  ranges_ = (job.wave + range_slots_ - 1) / range_slots_;
  members_.resize(deferred_ ? static_cast<std::size_t>(job.team->size()) + 1
                            : 1);
  if (deferred_) {
    for (Member& m : members_) m.ns.assign(2 * n_waves, 0);
    protocol_ns_.assign(2 * n_waves, 0);
  }
  if (job.faults != nullptr) {
    sw.with([&](pisa::FpisaSwitch& s) { resync(s, job); });
  }
  const Clock::time_point start = Clock::now();
  std::size_t done = 0;  // waves whose collect went through
  try {
    for (std::size_t k = 0; k < n_waves; ++k) {
      const std::size_t wave_n = std::min(job.wave, total - k * job.wave);
      hooks.begin_wave(k);
      const Clock::time_point t_add = Clock::now();
      const Encoded enc = encode(job, hooks, k);
      // The packets queued before a failure still land, so the switch
      // holds exactly the state the per-packet protocol would leave.
      if (job.faults != nullptr) job.faults->shuffle(queue_);
      if (queue_.size() != 0) {
        sw.with([&](pisa::FpisaSwitch& s) { admit(s, job, k); });
      }
      if (enc.killed) hooks.fail(WaveFailure::kKilledMidAdd, job.lo, -1);
      if (!enc.ok) {
        hooks.fail(WaveFailure::kAddExhausted, enc.slot, enc.worker);
      }
      if (job.faults != nullptr) recover(sw, job, hooks, k);
      const Clock::time_point t_add_end = Clock::now();
      // A kill mid-collect gets half the wave's read-and-resets through;
      // the other slots keep their sums and dedup bits for the caller's
      // scrub.
      const CollectSchedule sched =
          hooks.kill_mid_collect(k)
              ? CollectSchedule{wave_n / 2, wave_n / 2,
                                WaveFailure::kKilledMidCollect}
              : draw_collect_schedule(wave_n, job.loss_rate,
                                      job.max_retransmits, job.rng,
                                      *job.stats);
      collect(sw, job, hooks, k, sched);
      const Clock::time_point t_collect_end = Clock::now();
      if (deferred_) {
        protocol_ns_[2 * k] = ns_between(t_add, t_add_end);
        protocol_ns_[2 * k + 1] = ns_between(t_add_end, t_collect_end);
      } else {
        hooks.end_wave({k, ns_between(t_add, t_add_end),
                        ns_between(t_add_end, t_collect_end), t_add_end,
                        t_collect_end});
      }
      done = k + 1;
    }
  } catch (...) {
    finish(sw, job, hooks, done, start);
    throw;
  }
  finish(sw, job, hooks, n_waves, start);
}

void scrub(SwitchAccess& sw, std::uint16_t lo, std::size_t n) {
  sw.with([&](pisa::FpisaSwitch& s) {
    s.release(lo, n, /*reset=*/true);
    // Every slot drains into the one row: the sums are thrown away.
    std::vector<std::uint32_t> row(
        static_cast<std::size_t>(s.options().lanes));
    const std::vector<std::byte*> dests(
        n, std::as_writable_bytes(std::span(row)).data());
    s.drain(lo, dests);
  });
}

}  // namespace fpisa::switchml
