#include "fault/fault.h"

#include <algorithm>
#include <cstring>
#include <utility>

namespace fpisa::fault {

std::span<std::uint32_t> WaveQueue::materialize(
    std::span<const std::byte> src) {
  const std::size_t block = stored_ / kBlockPayloads;
  if (block == store_.size()) store_.emplace_back(kBlockPayloads * lanes);
  const std::span<std::uint32_t> copy(
      store_[block].data() + (stored_ % kBlockPayloads) * lanes, lanes);
  ++stored_;
  std::fill(copy.begin(), copy.end(), 0u);
  if (!src.empty()) {
    std::memcpy(copy.data(), src.data(),
                std::min(src.size(), copy.size_bytes()));
  }
  return copy;
}

FaultEngine::FaultEngine(const FaultOptions& opts, std::uint64_t stream_seed)
    : opts_(opts), rng_(stream_seed) {}

void FaultEngine::begin_wave(WaveQueue& queue) {
  // Ghosts captured in earlier waves land now, ahead of the wave's fresh
  // traffic: by this point their slot has been reset (epoch bumped) and
  // reused, so only the stamp distinguishes them from real contributions.
  for (const Ghost& g : ghosts_) {
    queue.push(g.slot, g.worker, g.stamp,
               std::as_bytes(queue.materialize(g.payload)).data());
  }
  ghosts_.clear();
}

bool FaultEngine::deliver(WaveQueue& queue, std::uint16_t slot,
                          std::uint8_t worker, std::uint32_t stamp,
                          std::span<const std::byte> payload) {
  if (rng_.next_double() < opts_.corrupt_rate) {
    // The push checksums the clean copy first: a bit flipped in flight
    // afterwards is exactly what the switch-side guard is meant to catch.
    const std::span<std::uint32_t> copy = queue.materialize(payload);
    queue.push(slot, worker, stamp, std::as_bytes(copy).data());
    const int last = static_cast<int>(queue.lanes) - 1;
    const int lane = last > 0 ? rng_.uniform_int(0, last) : 0;
    const int bit = rng_.uniform_int(0, 31);
    copy[static_cast<std::size_t>(lane)] ^= 1u << bit;
    return false;
  }
  queue.push(slot, worker, stamp, payload.data());
  if (rng_.next_double() < opts_.dup_rate) {
    // Immediate duplicate in the same wave: the dedup bitmap absorbs it.
    queue.push(slot, worker, stamp, payload.data());
  }
  if (rng_.next_double() < opts_.stale_dup_rate) {
    // Capture a ghost: this copy is "still in flight" and will land in a
    // later wave, after round-robin slot reuse.
    ghosts_.push_back(
        Ghost{slot, worker, stamp, {payload.begin(), payload.end()}});
  }
  return true;
}

void FaultEngine::shuffle(WaveQueue& queue) {
  const std::size_t n = queue.size();
  if (opts_.reorder_rate <= 0.0 || n < 2) return;
  // Adjacent swaps across DIFFERENT slots only. Per-slot relative order is
  // invariant (a same-slot pair can never be directly swapped), so every
  // slot's register sees the same arrival sequence and results stay
  // bit-identical to the unshuffled batch.
  for (std::size_t i = 0; i + 1 < n; ++i) {
    if (queue.slots[i] == queue.slots[i + 1]) continue;
    if (rng_.next_double() >= opts_.reorder_rate) continue;
    std::swap(queue.slots[i], queue.slots[i + 1]);
    std::swap(queue.workers[i], queue.workers[i + 1]);
    std::swap(queue.stamps[i], queue.stamps[i + 1]);
    std::swap(queue.checksums[i], queue.checksums[i + 1]);
    std::swap(queue.payloads[i], queue.payloads[i + 1]);
  }
}

ChaosMix draw_chaos_mix(std::uint64_t seed) {
  // The mix-drawing stream is distinct from the engine stream (fault.seed)
  // so adding a knob here never perturbs the injected schedules of other
  // seeds' engines.
  util::Rng rng(0xC4A05ULL ^ (seed * 0x9e3779b97f4a7c15ULL));
  ChaosMix mix;
  mix.cluster = (seed % 2) == 1;
  mix.num_workers = 3 + static_cast<int>(rng.next_below(3));
  mix.num_shards = 2 + static_cast<int>(rng.next_below(2));
  mix.loss_rate = 0.3 * rng.next_double();
  mix.fault.enabled = true;
  mix.fault.seed = seed + 1;
  // Rates are capped so retransmit exhaustion stays astronomically
  // unlikely under the default 64-deep budget: every run is recoverable
  // unless a kAbort worker death makes it unrecoverable by design.
  mix.fault.corrupt_rate = 0.3 * rng.next_double();
  mix.fault.reorder_rate = 0.5 * rng.next_double();
  mix.fault.dup_rate = 0.3 * rng.next_double();
  mix.fault.stale_dup_rate = 0.3 * rng.next_double();
  if (rng.next_double() < 0.3) {
    mix.fault.wipe_switch = true;
    mix.fault.wipe_wave = rng.next_below(3);
  }
  if (rng.next_double() < 0.3) {
    mix.fault.dead_worker = static_cast<int>(
        rng.next_below(static_cast<std::uint64_t>(mix.num_workers)));
    // Cluster shards index waves locally, so only wave 0 is guaranteed to
    // exist on every shard; sessions can lose a worker mid-job.
    mix.fault.dead_worker_wave = mix.cluster ? 0 : rng.next_below(2);
    mix.fault.dead_worker_policy = rng.next_double() < 0.5
                                       ? DeadWorkerPolicy::kAbort
                                       : DeadWorkerPolicy::kDegrade;
  }
  return mix;
}

bool parse_fault_mix(const std::string& spec, FaultOptions& fault,
                     double* loss_rate) {
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string kv = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (kv.empty()) continue;
    const std::size_t eq = kv.find('=');
    if (eq == std::string::npos || eq == 0) return false;
    const std::string key = kv.substr(0, eq);
    const std::string val = kv.substr(eq + 1);
    try {
      fault.enabled = true;
      if (key == "corrupt") {
        fault.corrupt_rate = std::stod(val);
      } else if (key == "reorder") {
        fault.reorder_rate = std::stod(val);
      } else if (key == "dup") {
        fault.dup_rate = std::stod(val);
      } else if (key == "stale") {
        fault.stale_dup_rate = std::stod(val);
      } else if (key == "loss") {
        if (loss_rate != nullptr) *loss_rate = std::stod(val);
      } else if (key == "wipe") {
        fault.wipe_switch = true;
        fault.wipe_wave = std::stoul(val);
      } else if (key == "dead") {
        fault.dead_worker = std::stoi(val);
      } else if (key == "dead_wave") {
        fault.dead_worker_wave = std::stoul(val);
      } else if (key == "policy") {
        if (val == "abort") {
          fault.dead_worker_policy = DeadWorkerPolicy::kAbort;
        } else if (val == "degrade") {
          fault.dead_worker_policy = DeadWorkerPolicy::kDegrade;
        } else {
          return false;
        }
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;  // std::stod / std::stoul rejected the value
    }
  }
  return true;
}

}  // namespace fpisa::fault
