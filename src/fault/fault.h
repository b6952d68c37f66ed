// Deterministic Byzantine-wire fault injection for the FPISA fabric.
//
// The loss model built into the session/cluster protocols covers clean
// packet drops only. The FaultEngine layers the rest of the wire-fault
// taxonomy on top, all drawn from a dedicated seeded RNG stream so every
// failure replays exactly:
//
//   - payload corruption: one bit of a delivered copy is flipped *after*
//     the checksum was computed over the clean payload, so the switch-side
//     guard detects the mismatch and the host retransmits;
//   - duplicate delivery: an extra copy of a delivered packet is queued in
//     the same wave batch (absorbed by the dedup bitmap);
//   - stale duplicates: a copy is captured as a "ghost" and re-delivered
//     in a LATER wave, after round-robin slot reuse has reset and
//     re-occupied its slot — only the epoch stamp tells it apart from a
//     fresh contribution;
//   - packet reordering: the wave queue is shuffled with adjacent
//     swaps across *different* slots only, which provably cannot change
//     any per-slot arrival order (and therefore cannot change results);
//   - worker death: one worker goes silent from a chosen wave onward;
//   - switch state loss: the whole register file is wiped once, mid-job.
//
// The engine owns injection only; detection and recovery live with the
// protocol layers (epoch/generation stamps + checksum guard on the
// switch, shadow-buffer wave replay + dead-worker policy on the host).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "pisa/fpisa_program.h"
#include "util/rng.h"

namespace fpisa::fault {

// What to do when a worker stops contributing mid-job.
enum class DeadWorkerPolicy {
  kAbort,    // throw WorkerDeadError; the job fails with books intact
  kDegrade,  // finish over the survivors (kMean divides by survivor count)
};

// One knob surface for every layer (session, cluster, all four collective
// backends). Rates are per delivered copy; death/wipe are scheduled events.
struct FaultOptions {
  bool enabled = false;     // master switch: off = exact legacy datapath
  std::uint64_t seed = 1;   // fault RNG stream (independent of loss_seed)
  double corrupt_rate = 0.0;    // P(flip one payload bit in a delivery)
  double reorder_rate = 0.0;    // P(adjacent cross-slot swap per boundary)
  double dup_rate = 0.0;        // P(queue an immediate duplicate)
  double stale_dup_rate = 0.0;  // P(capture a ghost for a later wave)
  int dead_worker = -1;             // worker index, or -1 for none
  std::size_t dead_worker_wave = 0;  // first wave the worker misses
  DeadWorkerPolicy dead_worker_policy = DeadWorkerPolicy::kAbort;
  bool wipe_switch = false;   // wipe all switch registers once...
  std::size_t wipe_wave = 0;  // ...after this wave's adds are applied
  int max_wave_replays = 4;   // replay budget per recovery episode
};

// Throws std::invalid_argument when `fault` is enabled and names a dead
// worker past the 32-bit dead-worker mask (switchml::declare_dead_worker
// sets bit `dead_worker`). Backends whose jobs may have more than 32
// workers (cluster, host, tree) call it at construction.
void check_fault_options(const FaultOptions& fault);

// Injection/recovery event counts, embedded in SessionStats and merged
// with the same +=/-= delta protocol the rest of the stats use.
struct FaultCounters {
  std::uint64_t corrupt_rejected = 0;     // checksum-failed copies dropped
  std::uint64_t stale_dups_rejected = 0;  // stamp-mismatched copies dropped
  std::uint64_t epoch_bumps = 0;          // stamp resyncs after wipe/scrub
  std::uint64_t workers_declared_dead = 0;
  std::uint64_t waves_replayed = 0;

  FaultCounters& operator+=(const FaultCounters& o) {
    corrupt_rejected += o.corrupt_rejected;
    stale_dups_rejected += o.stale_dups_rejected;
    epoch_bumps += o.epoch_bumps;
    workers_declared_dead += o.workers_declared_dead;
    waves_replayed += o.waves_replayed;
    return *this;
  }
  FaultCounters& operator-=(const FaultCounters& o) {
    corrupt_rejected -= o.corrupt_rejected;
    stale_dups_rejected -= o.stale_dups_rejected;
    epoch_bumps -= o.epoch_bumps;
    workers_declared_dead -= o.workers_declared_dead;
    waves_replayed -= o.waves_replayed;
    return *this;
  }
};

// A worker stopped contributing and the policy is kAbort (or every worker
// is dead under kDegrade). Carries the worker and the wave where its
// absence was detected, like ShardDeadError carries the shard.
class WorkerDeadError : public std::runtime_error {
 public:
  WorkerDeadError(int worker, std::size_t wave)
      : std::runtime_error("worker " + std::to_string(worker) +
                           " dead (no contribution by wave " +
                           std::to_string(wave) + ")"),
        worker_(worker),
        wave_(wave) {}
  int worker() const { return worker_; }
  std::size_t wave() const { return wave_; }

 private:
  int worker_;
  std::size_t wave_;
};

// One wave's packets in arrival order, as descriptors in the column layout
// FpisaSwitch::admit takes: entry i's `lanes` packed FP32 values are the
// raw bytes at payloads[i]. The wave engine owns the only queue: every
// copy that reaches the switch -- clean, duplicated, corrupted, ghost, or
// replayed after a wipe -- enters through push(). Guarded queues also fill
// the stamp column and the checksum column, computed in place over the
// clean payload; plain queues leave both empty.
//
// Ownership. A payload points either into a worker's input view or into
// the queue's side store. Input views are the caller's: they must stay
// alive and unchanged until the queue is cleared, and nothing that edits a
// queue ever writes through a payload pointer. Only a copy that differs
// from or outlives its source is materialized into the side store: the
// zero-padded tail chunk of a view, a corrupted copy, a ghost. The store
// grows in fixed blocks that never move, so a stored payload stays valid
// until recycle(), which reuses the blocks without freeing them. clear()
// empties the descriptor columns only: the wave engine's log keeps
// pointing at stored payloads after their wave's queue is cleared.
struct WaveQueue {
  explicit WaveQueue(std::size_t lanes) : lanes(lanes) {}

  void push(std::uint16_t slot, std::uint8_t worker, std::uint32_t stamp,
            const std::byte* payload) {
    slots.push_back(slot);
    workers.push_back(worker);
    payloads.push_back(payload);
    if (guarded) {
      stamps.push_back(stamp);
      checksums.push_back(pisa::fpisa_checksum(
          slot, worker, stamp, {payload, lanes * sizeof(std::uint32_t)}));
    }
  }
  // Copies `src` (at most `lanes` values' bytes) into the side store,
  // zero-padding the rest of the lanes. The copy is valid until recycle().
  std::span<std::uint32_t> materialize(std::span<const std::byte> src);
  std::size_t size() const { return slots.size(); }
  void clear() {
    slots.clear();
    workers.clear();
    stamps.clear();
    checksums.clear();
    payloads.clear();
  }
  // Hands the side store out again from its start: every stored payload
  // is void.
  void recycle() { stored_ = 0; }

  std::size_t lanes;
  bool guarded = false;
  std::vector<std::uint16_t> slots;
  std::vector<std::uint8_t> workers;
  std::vector<std::uint32_t> stamps;
  std::vector<std::uint16_t> checksums;
  std::vector<const std::byte*> payloads;

 private:
  static constexpr std::size_t kBlockPayloads = 64;
  // Side-store blocks of kBlockPayloads payloads each; a block is sized once
  // and never resized, so its buffer never moves.
  std::vector<std::vector<std::uint32_t>> store_;
  std::size_t stored_ = 0;  // payloads handed out since recycle()
};

// Per-(job, shard, pass) deterministic injector. It owns the fault RNG
// stream and the captured ghosts, not a queue: begin_wave, deliver and
// shuffle edit the wave engine's guarded WaveQueue in place, which then
// lands through the switch's guarded add path.
class FaultEngine {
 public:
  // stream_seed identifies this engine's RNG stream (derive it per shard
  // and pass so replays are independent).
  FaultEngine(const FaultOptions& opts, std::uint64_t stream_seed);

  const FaultOptions& options() const { return opts_; }

  // True if `worker` injects nothing from this wave on.
  bool worker_silent(int worker, std::size_t wave) const {
    return opts_.dead_worker == worker && wave >= opts_.dead_worker_wave;
  }

  // One-shot: true exactly once, after the adds of wave `wave` when the
  // wipe is scheduled. Survives a degrade restart (at most one wipe per
  // engine lifetime).
  bool should_wipe(std::size_t wave) {
    if (!opts_.wipe_switch || wipe_fired_ || wave < opts_.wipe_wave) {
      return false;
    }
    wipe_fired_ = true;
    return true;
  }

  // Start a wave: every ghost captured in an earlier wave is pushed onto
  // the (empty) queue ahead of the wave's fresh traffic (they are "in
  // flight" longer than one wave, landing after their slot was reused).
  // Waves begin in order, and drop_ghosts() precedes a restart.
  void begin_wave(WaveQueue& queue);

  // Push one delivered copy of `payload` (queue.lanes packed FP32 values)
  // onto the queue, then inject into it. Returns false when this copy was
  // corrupted in flight -- the switch guard will reject it, so the caller
  // must treat the attempt as undelivered (keep retransmitting, no ack
  // possible). Only the corrupted copy is materialized; `payload` itself is
  // never written.
  bool deliver(WaveQueue& queue, std::uint16_t slot, std::uint8_t worker,
               std::uint32_t stamp, std::span<const std::byte> payload);

  // Reorder the queue: adjacent swaps of descriptors across different
  // slots only, preserving per-slot FIFO order (results stay
  // bit-identical).
  void shuffle(WaveQueue& queue);

  // Forget captured ghosts (degrade restart: the replayed job must not
  // receive stale copies from the aborted attempt).
  void drop_ghosts() { ghosts_.clear(); }

 private:
  struct Ghost {
    std::uint16_t slot;
    std::uint8_t worker;
    std::uint32_t stamp;
    std::vector<std::byte> payload;
  };

  FaultOptions opts_;
  util::Rng rng_;
  bool wipe_fired_ = false;
  std::vector<Ghost> ghosts_;
};

// A reproducible chaos scenario expanded from one seed. The chaos soak
// test and example_chaos_demo draw through this SAME function, so a seed
// printed by a failing soak run replays byte-identically under the demo
// (`example_chaos_demo --seed N`). Even seeds exercise a single-switch
// session, odd seeds the multi-shard cluster fabric.
struct ChaosMix {
  bool cluster = false;    // odd seeds: run through the cluster fabric
  int num_workers = 4;     // worker views in the job (3..5)
  int num_shards = 2;      // cluster topology (ignored by sessions)
  double loss_rate = 0.0;  // clean-drop rate for the protocol loss model
  FaultOptions fault;      // the injected fault schedule
};
ChaosMix draw_chaos_mix(std::uint64_t seed);

// Parses a demo-facing fault-mix spec like
//   "corrupt=0.2,reorder=0.5,dup=0.1,stale=0.3,loss=0.1,wipe=1,dead=2,
//    dead_wave=1,policy=degrade"
// into `fault` (setting fault.enabled) and, for the `loss` key, into
// *loss_rate. Unmentioned knobs keep their current values. Returns false
// on an unknown key or malformed value.
bool parse_fault_mix(const std::string& spec, FaultOptions& fault,
                     double* loss_rate);

}  // namespace fpisa::fault
