#include "switchml/wave_engine.h"

#include <algorithm>
#include <bit>
#include <cstring>

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
  for (std::size_t k = 0; k < n; ++k) {
    bool have = false;
    for (int attempt = 0; attempt <= max_retransmits && !have; ++attempt) {
      ++stats.packets_sent;
      if (rng->next_double() < loss_rate) {
        ++stats.packets_lost;
        continue;
      }
      ++sched.delivered;
      if (rng->next_double() < loss_rate) {
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
      if (rng->next_double() < loss_rate) {
        ++stats.packets_lost;
        continue;
      }
      ++sched.delivered;
      ++stats.slot_reuses;
      cleared_slot = true;
      if (rng->next_double() >= loss_rate) break;
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
    : lanes_(checked_lanes(lanes)), queue_(lanes_) {}

template <class Fn>
bool WaveEngine::pack(const WaveJob& job, std::size_t wave, std::size_t k0,
                      std::size_t k1, Fn&& fn) {
  const std::size_t base = wave * job.wave;
  const std::size_t payload_bytes = lanes_ * sizeof(float);
  for (std::size_t k = k0; k < k1; ++k) {
    const auto slot = static_cast<std::uint16_t>(job.lo + (k - base));
    for (std::size_t w = 0; w < job.workers.size(); ++w) {
      if ((job.dead_mask >> w) & 1u) continue;
      if (job.faults != nullptr &&
          job.faults->worker_silent(static_cast<int>(w), wave)) {
        continue;  // injected death: this worker's packets never arrive
      }
      // The payload is the chunk's bytes in the worker's own view; only a
      // short tail chunk is copied, zero-padded, into the queue's store.
      const std::span<const std::byte> view = std::as_bytes(job.workers[w]);
      const std::size_t i0 =
          std::min(job.chunks[k] * payload_bytes, view.size());
      std::span<const std::byte> payload =
          view.subspan(i0, std::min(payload_bytes, view.size() - i0));
      if (payload.size() < payload_bytes) {
        payload = std::as_bytes(queue_.materialize(payload));
      }
      if (!fn(slot, w, payload)) return false;
    }
  }
  return true;
}

bool WaveEngine::send(const WaveJob& job, std::uint16_t slot,
                      std::uint8_t id, std::span<const std::byte> payload) {
  SessionStats& st = *job.stats;
  if (job.rng == nullptr) {  // lossless wire: one copy, acked first time
    ++st.packets_sent;
    queue_.push(slot, id, 0, payload.data());
    return true;
  }
  util::Rng& rng = *job.rng;
  bool delivered_before = false;
  for (int attempt = 0; attempt <= job.max_retransmits; ++attempt) {
    if (attempt > 0) ++st.retransmissions;
    ++st.packets_sent;
    if (rng.next_double() < job.loss_rate) {
      ++st.packets_lost;
      continue;  // request lost: retransmit after "timeout"
    }
    if (job.faults == nullptr) {
      queue_.push(slot, id, 0, payload.data());
    } else if (!job.faults->deliver(queue_, slot, id, stamps_[slot - job.lo],
                                    payload)) {
      // A corrupted copy still reaches the switch (whose guard rejects
      // it) but can never be acked: keep retransmitting.
      continue;
    }
    if (delivered_before) ++st.duplicates_absorbed;
    delivered_before = true;
    if (rng.next_double() < job.loss_rate) {
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
  const auto send_one = [&](std::uint16_t slot, std::size_t w,
                            std::span<const std::byte> payload) {
    if (send(job, slot, id_of(job, w), payload)) return true;
    e.ok = false;
    e.slot = slot;
    e.worker = static_cast<int>(w);
    return false;
  };
  if (pack(job, wave, base, mid, send_one)) {
    e.killed = hooks.kill_mid_add(wave);
    if (!e.killed) pack(job, wave, mid, end, send_one);
  }
  return e;
}

void WaveEngine::land(pisa::FpisaSwitch& sw, const WaveJob& job) {
  pisa::FpisaSwitch::GuardStats guard;
  sw.ingress(queue_.slots, queue_.workers, queue_.payloads, queue_.stamps,
             queue_.checksums, queue_.guarded ? &guard : nullptr);
  job.stats->faults.corrupt_rejected += guard.corrupt_rejected;
  job.stats->faults.stale_dups_rejected += guard.stale_rejected;
  queue_.clear();
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
    // moment it hurts most.
    if (wipe) s.wipe_state();
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
      pack(job, wave, base, end,
           [&](std::uint16_t slot, std::size_t w,
               std::span<const std::byte> payload) {
             queue_.push(slot, id_of(job, w), stamps_[slot - job.lo],
                         payload.data());
             return true;
           });
      land(s, job);
      ++st.faults.waves_replayed;
    }
    s.read_batch(job.lo, wave_n, {wave_values_.data(), wave_n * lanes_},
                 bitmaps_);
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
  const std::span<std::byte> bounce =
      std::as_writable_bytes(std::span(wave_values_));
  // Each cleared slot drains straight into its chunk's place in out. A
  // short tail chunk, and every slot of a wave whose schedule failed, goes
  // through a bounce row instead: a failed wave writes nothing into out.
  const auto direct = [&](std::size_t k) {
    return !sched.failure &&
           (job.chunks[base + k] + 1) * row_bytes <= out.size();
  };
  dests_.resize(sched.cleared);
  for (std::size_t k = 0; k < sched.cleared; ++k) {
    dests_[k] = direct(k) ? out.data() + job.chunks[base + k] * row_bytes
                          : bounce.data() + k * row_bytes;
  }
  // The cleared prefix drains in one compiled-egress call: values are read
  // before the clear, exactly the per-slot read-then-reset order, and a
  // failed slot and everything after it stay untouched, as they would.
  sw.with([&](pisa::FpisaSwitch& s) {
    s.egress(job.lo, dests_, /*reset=*/true);
    s.sim().account_packets(sched.delivered - sched.cleared);
    if (job.faults != nullptr) {
      // Each reset bumped its slot's epoch, and the reset ack carries the
      // new stamp: the next wave's packets carry it, and any ghost still
      // buffered from this one is provably stale.
      for (std::size_t k = 0; k < sched.cleared; ++k) {
        stamps_[k] = s.slot_stamp(static_cast<std::uint16_t>(job.lo + k));
      }
    }
  });
  if (sched.failure) {
    // A never-reset slot would swallow the next wave's adds through the
    // dedup bitmap: fail loudly rather than aggregate silently wrong.
    hooks.fail(*sched.failure,
               static_cast<std::uint16_t>(job.lo + sched.cleared), -1);
  }
  // A short tail chunk keeps only the lanes that fall inside out.
  for (std::size_t k = 0; k < sched.cleared; ++k) {
    const std::size_t i0 = job.chunks[base + k] * row_bytes;
    if (direct(k) || i0 >= out.size()) continue;
    std::memcpy(out.data() + i0, dests_[k], out.size() - i0);
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
  queue_.guarded = job.faults != nullptr;
  wave_values_.resize(job.wave * lanes_);
  if (job.faults != nullptr) {
    sw.with([&](pisa::FpisaSwitch& s) { resync(s, job); });
  }
  const std::size_t n_waves = (total + job.wave - 1) / job.wave;
  for (std::size_t k = 0; k < n_waves; ++k) {
    const std::size_t wave_n = std::min(job.wave, total - k * job.wave);
    hooks.begin_wave(k);
    const Clock::time_point t_add = Clock::now();
    const Encoded enc = encode(job, hooks, k);
    // The packets queued before a failure still land, so the switch holds
    // exactly the state the per-packet protocol would leave.
    if (job.faults != nullptr) job.faults->shuffle(queue_);
    if (queue_.size() != 0) {
      sw.with([&](pisa::FpisaSwitch& s) { land(s, job); });
    }
    if (enc.killed) hooks.fail(WaveFailure::kKilledMidAdd, job.lo, -1);
    if (!enc.ok) {
      hooks.fail(WaveFailure::kAddExhausted, enc.slot, enc.worker);
    }
    if (job.faults != nullptr) recover(sw, job, hooks, k);
    const Clock::time_point t_add_end = Clock::now();
    // A kill mid-collect gets half the wave's read-and-resets through; the
    // other slots keep their sums and dedup bits for the caller's scrub.
    const CollectSchedule sched =
        hooks.kill_mid_collect(k)
            ? CollectSchedule{wave_n / 2, wave_n / 2,
                              WaveFailure::kKilledMidCollect}
            : draw_collect_schedule(wave_n, job.loss_rate,
                                    job.max_retransmits, job.rng, *job.stats);
    collect(sw, job, hooks, k, sched);
    const Clock::time_point t_collect_end = Clock::now();
    hooks.end_wave({k, ns_between(t_add, t_add_end),
                    ns_between(t_add_end, t_collect_end), t_add_end,
                    t_collect_end});
  }
}

void WaveEngine::scrub(SwitchAccess& sw, std::uint16_t lo, std::size_t n) {
  wave_values_.resize(n * lanes_);
  sw.with([&](pisa::FpisaSwitch& s) {
    s.read_and_reset_batch(lo, n, wave_values_);
  });
}

}  // namespace fpisa::switchml
