// The SwitchML-style wave protocol (paper §5 / SwitchML §4), implemented
// once for every layer that aggregates through an FpisaSwitch: the
// single-switch AggregationSession, each cluster shard task, and both
// levels of the ToR -> spine tree.
//
// A job is a list of chunks (each chunk is `lanes` consecutive values of
// every worker's vector) run wave by wave over a slot range [lo, lo+wave)
// of one switch. Every wave runs the same steps in the same order on every
// layer, between the begin_wave and end_wave hooks, and no step of one
// wave moves into another: as in the paper's protocol, a slot's next packet
// waits for its result, and one wave's slot pool is the concurrency.
//  1. encode: the add loss schedule of every live worker's packet for
//     every chunk of the wave is drawn in per-packet protocol order
//     (request drop, delivery, ack drop, retransmit), each draw compared
//     against the loss rate as an integer cut (util::Rng::bernoulli_cut),
//     and every copy the switch would receive is queued in arrival order
//     as a descriptor: a pointer to the chunk's bytes in the worker's own
//     view, whose base the wave looks up once per worker (only a short
//     tail chunk is copied, zero-padded). Nothing is packed, and the dedup
//     bitmap absorbs duplicates exactly as it would packet by packet. The
//     queue is slot-major: a slot's workers, each retransmit right after
//     its first copy;
//  2. add: FpisaSwitch::admit, the ingress's protocol half, runs over the
//     queue (checks, guard, dedup bitmap, completion counter, occupancy),
//     and FpisaSwitch::gather adds the accepted packets' lanes into their
//     bank rows in the same switch hold (guarded mode then recovers,
//     below);
//  3. collect: the per-slot read/reset loss schedule is drawn
//     (draw_collect_schedule), and in one switch hold FpisaSwitch::release
//     clears the cleared slots' bitmaps and counters and bumps their
//     epochs, and FpisaSwitch::drain reads and clears each cleared slot
//     straight into its chunk's place in the result (only the short tail
//     chunk goes through the tail row).
// A job without an rng runs a lossless wire: each packet is queued once
// and the collect schedule takes its closed form, with no draws at all.
// The loss schedule depends only on the rng stream, never on the switch,
// which is why drawing it up front reproduces the per-packet protocol's
// results, stats and register evolution bit for bit (pinned against the
// per-packet oracle in tests/wave_oracle.h).
//
// A run is one thread from start to finish, and touches only the slots of
// its range and the switch's scalar books, which the switch keeps
// race-free. So runs over disjoint slot ranges of one switch may go at
// once: an AggregationSession cuts its slots into 16-slot ranges and runs
// each on whichever thread of the datapath pool claims it, each with its
// own loss stream (the paper's Fig 2 keeps the per-slot protocol state,
// the MAU1 bitmap and MAU4 counter, in stages of its own, and slots never
// share registers).
//
// Guarded mode (a fault::FaultEngine is supplied) runs the Byzantine-wire
// recovery protocol through the same queue and packing loop: each copy
// also carries an epoch stamp and a checksum computed in place over its
// clean payload, the fault engine edits the queue in place (copying only
// the payloads it corrupts or holds back as ghosts), and the pre-pass
// guards. The switch owns the epoch rule: the stamps come back with each
// release (the reset ack carries the slot's new epoch), and a run's first
// wave reads them from the switch. An injected wipe lands after the wave's
// adds; the wave is then re-packed and admitted under the same switch hold
// as the wipe and the wave-deadline probe, which reads the dedup bitmaps
// alone (no lane register) to find a silent worker. A wipe clears every
// slot of the switch, so a caller runs a job that may wipe on one thread.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "core/accumulator.h"
#include "fault/fault.h"
#include "pisa/fpisa_program.h"
#include "util/rng.h"

namespace fpisa::switchml {

/// A packet exhausted its retransmit budget: the protocol cannot make
/// progress without risking a silently wrong aggregate. Carries which
/// protocol phase gave up and the slot/worker context, like ShardDeadError
/// carries the shard (worker is -1 for the read/reset phases, which are
/// not worker-specific).
class RetransmitExhaustedError : public std::runtime_error {
 public:
  enum class Phase { kAdd, kRead, kReset };
  RetransmitExhaustedError(Phase phase, std::uint16_t slot, int worker)
      : std::runtime_error(
            std::string(phase == Phase::kAdd
                            ? "aggregation packet exceeded retransmits"
                        : phase == Phase::kRead
                            ? "read packet exceeded retransmits"
                            : "reset packet exceeded retransmits") +
            " (slot " + std::to_string(slot) +
            (worker >= 0 ? ", worker " + std::to_string(worker) : "") + ")"),
        phase_(phase),
        slot_(slot),
        worker_(worker) {}
  Phase phase() const { return phase_; }
  std::uint16_t slot() const { return slot_; }
  int worker() const { return worker_; }

 private:
  Phase phase_;
  std::uint16_t slot_;
  int worker_;
};

struct SessionStats {
  std::uint64_t packets_sent = 0;
  std::uint64_t packets_lost = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t duplicates_absorbed = 0;  ///< dedup hits at the switch
  std::uint64_t slot_reuses = 0;
  // Failover accounting (cluster fabric; zero on single-switch sessions).
  std::uint64_t shard_failures = 0;   ///< shards declared dead serving this
  std::uint64_t chunks_rerouted = 0;  ///< chunks re-homed onto survivors
  std::uint64_t failover_retries = 0; ///< clean retry passes run
  /// Byzantine-fault injection/recovery books (zero with faults disabled).
  fault::FaultCounters faults{};
  /// Bitmask of workers declared dead while serving this. A monotone mask,
  /// not a count: several shards may each declare the same worker dead, and
  /// kMean-over-survivors needs the distinct-worker population.
  std::uint32_t dead_workers = 0;
  /// Per-MAU kernel operation counts (§5.2.1 taxonomy), carried through
  /// every merge so table-level accounting survives aggregation end to
  /// end. Populated where a layer exclusively owns its switch (sessions,
  /// cluster per-shard books); zero where attribution is ambiguous
  /// (concurrent jobs sharing switches).
  core::OpCounters ops{};

  /// Centralized merge (cluster/shard/tenant accounting all use this).
  SessionStats& operator+=(const SessionStats& o) {
    packets_sent += o.packets_sent;
    packets_lost += o.packets_lost;
    retransmissions += o.retransmissions;
    duplicates_absorbed += o.duplicates_absorbed;
    slot_reuses += o.slot_reuses;
    shard_failures += o.shard_failures;
    chunks_rerouted += o.chunks_rerouted;
    failover_retries += o.failover_retries;
    faults += o.faults;
    dead_workers |= o.dead_workers;
    ops += o.ops;
    return *this;
  }
  /// Delta against an earlier snapshot of the same cumulative stats (used
  /// to attribute one reduce out of a long-lived session's running total).
  SessionStats& operator-=(const SessionStats& o) {
    packets_sent -= o.packets_sent;
    packets_lost -= o.packets_lost;
    retransmissions -= o.retransmissions;
    duplicates_absorbed -= o.duplicates_absorbed;
    slot_reuses -= o.slot_reuses;
    shard_failures -= o.shard_failures;
    chunks_rerouted -= o.chunks_rerouted;
    failover_retries -= o.failover_retries;
    faults -= o.faults;
    // Delta semantics for a monotone mask: keep only the workers that died
    // after the `o` snapshot was taken.
    dead_workers &= ~o.dead_workers;
    ops -= o.ops;
    return *this;
  }
};

/// Where a wave run gave up; WaveHooks::fail turns it into the caller's
/// typed error.
enum class WaveFailure {
  kAddExhausted,      ///< an add packet exhausted its retransmit budget
  kReadExhausted,     ///< a read packet exhausted its retransmit budget
  kResetExhausted,    ///< a reset packet exhausted its retransmit budget
  kReplayBudget,      ///< switch state loss outlived max_wave_replays
  kKilledMidAdd,      ///< WaveHooks::kill_mid_add fired
  kKilledMidCollect,  ///< WaveHooks::kill_mid_collect fired
};

/// A wave's collect: the prefix of slots that get their read-and-reset
/// through, the switch traversals that implies, and why the collect stops
/// short, if it does. Drawn by draw_collect_schedule, or half a wave for an
/// injected kill mid-collect.
struct CollectSchedule {
  std::uint64_t delivered = 0;  ///< switch traversals the schedule implies
  std::size_t cleared = 0;      ///< prefix of slots whose reset was delivered
  /// kReadExhausted / kResetExhausted from the draw, kKilledMidCollect
  /// from the kill hook; empty when every slot was collected.
  std::optional<WaveFailure> failure;
};

/// Draws the per-slot read/reset retry schedule for `n` slots exactly as
/// the per-slot collect loop would — same rng draw order, same
/// packets_sent / packets_lost / slot_reuses counting. Reads are
/// idempotent and re-clearing an already-reset slot is a no-op, so ONE
/// physical read-and-reset per fully-collected slot (the `cleared`
/// prefix) plus `delivered` accounted traversals reproduces the per-slot
/// protocol's register evolution and packet accounting exactly. A null
/// `rng` is a lossless wire and returns the closed form without drawing:
/// delivered = 2n, cleared = n, packets_sent += 2n, slot_reuses += n; it
/// throws std::invalid_argument unless loss_rate is 0.
CollectSchedule draw_collect_schedule(std::size_t n, double loss_rate,
                                      int max_retransmits, util::Rng* rng,
                                      SessionStats& stats);

/// The engine's only route to a switch. `with(fn)` runs fn(switch) with
/// exclusive access for one protocol phase — the cluster takes its shard
/// mutex here, so each phase is one lock hold; a caller that owns its
/// switch outright uses DirectAccess.
class SwitchAccess {
 public:
  virtual ~SwitchAccess() = default;
  template <class F>
  void with(F&& fn) {
    using Fn = std::remove_reference_t<F>;
    run(
        +[](void* ctx, pisa::FpisaSwitch& sw) { (*static_cast<Fn*>(ctx))(sw); },
        &fn);
  }

 protected:
  using Thunk = void (*)(void* ctx, pisa::FpisaSwitch& sw);
  virtual void run(Thunk thunk, void* ctx) = 0;
};

class DirectAccess final : public SwitchAccess {
 public:
  explicit DirectAccess(pisa::FpisaSwitch& sw) : sw_(sw) {}

 private:
  void run(Thunk thunk, void* ctx) override { thunk(ctx, sw_); }
  pisa::FpisaSwitch& sw_;
};

/// One finished wave's phase split. The add phase covers encode, add (its
/// pre-pass and its gather kernel) and any guarded recovery; the collect
/// phase the schedule draw, the release and the drain into the result. The
/// windows end at `add_end` / `collect_end` and never overlap: the collect
/// window opens at `add_end`, and the next wave's add window opens after
/// `collect_end`.
struct WaveTiming {
  std::size_t wave = 0;
  std::uint64_t add_ns = 0;
  std::uint64_t collect_ns = 0;
  std::chrono::steady_clock::time_point add_end;
  std::chrono::steady_clock::time_point collect_end;
};

/// Caller hook points. The defaults inject nothing and fail with
/// RetransmitExhaustedError (or std::runtime_error for the replay budget).
class WaveHooks {
 public:
  virtual ~WaveHooks() = default;
  /// Top of every wave, before its adds land (straggler injection).
  virtual void begin_wave(std::size_t /*wave*/) {}
  /// Asked once per wave at the wave's middle chunk while encoding: true
  /// stops the encode there; the packets already queued still land, then
  /// the run fails with kKilledMidAdd.
  virtual bool kill_mid_add(std::size_t /*wave*/) { return false; }
  /// Asked once per wave after its adds: true collects only the first half
  /// of the wave's slots, then the run fails with kKilledMidCollect.
  virtual bool kill_mid_collect(std::size_t /*wave*/) { return false; }
  virtual void end_wave(const WaveTiming& /*timing*/) {}
  /// Must throw. `slot` is absolute; `worker` is -1 where none applies.
  [[noreturn]] virtual void fail(WaveFailure failure, std::uint16_t slot,
                                 int worker);
};

/// One run of the wave protocol.
struct WaveJob {
  /// Input views, all out.size() long.
  std::span<const std::span<const float>> workers;
  /// Bitmap id of each view; empty means the view's index.
  std::span<const std::uint8_t> ids;
  /// Chunk ids in wave order: the k-th listed chunk rides slot
  /// lo + k % wave of wave k / wave. The ids are distinct (two slots
  /// draining one chunk would race on out), so a run has at most one short
  /// chunk: the one that ends out.
  std::span<const std::size_t> chunks;
  std::span<float> out;
  std::uint16_t lo = 0;
  std::size_t wave = 1;  ///< slot range size = chunks per wave
  double loss_rate = 0.0;
  int max_retransmits = 0;
  /// The wire's loss stream; null is a lossless wire (loss_rate 0, no
  /// faults), which draws nothing.
  util::Rng* rng = nullptr;
  SessionStats* stats = nullptr;  ///< required
  std::uint32_t dead_mask = 0;  ///< views that send nothing
  fault::FaultEngine* faults = nullptr;  ///< non-null: guarded mode
  WaveHooks* hooks = nullptr;  ///< null: the defaults
  /// Where the run adds its kernel operation counts; null books them on
  /// the switch (FpisaSwitch::book_ops) at the run's end. Runs that share
  /// a switch at once leave the booking to their caller.
  core::OpCounters* ops = nullptr;
};

/// Throws std::invalid_argument unless loss_rate and every fault rate lie
/// in [0, 1] (NaN and infinities do not) and max_retransmits >= 0. A NaN
/// loss rate would book every ack as lost and still return a sum.
void check_wire_params(double loss_rate, int max_retransmits,
                       const fault::FaultOptions& fault = {});

/// The one dead-worker declaration (session, cluster job loop, wire-less
/// collective backends): books `worker` into stats.faults,
/// stats.dead_workers and `dead_mask`, and returns whether the job may
/// rerun over the survivors -- only under kDegrade with one of
/// `num_workers` still alive. On false the caller throws WorkerDeadError.
bool declare_dead_worker(int worker, std::size_t num_workers,
                         fault::DeadWorkerPolicy policy, SessionStats& stats,
                         std::uint32_t& dead_mask);

/// Control-plane cleanup, in one hold of `sw`: release() with reset and
/// drain() over slots [lo, lo + n), the sums thrown away, so a failed or
/// abandoned run leaks no partial sums, dedup bits or epochs into the
/// range's next user.
void scrub(SwitchAccess& sw, std::uint16_t lo, std::size_t n);

class WaveEngine {
 public:
  /// Throws std::invalid_argument unless lanes >= 1.
  explicit WaveEngine(int lanes);

  /// Runs every wave of `job`, writing each collected chunk into
  /// job.out; a failed wave writes nothing there. Throws through
  /// job.hooks->fail, or fault::WorkerDeadError when a guarded wave's
  /// deadline finds a silent worker. Throws std::invalid_argument, before
  /// any switch state changes, when job.stats is null, or job.rng is null
  /// while loss_rate is not 0 or job.faults is set.
  void run(SwitchAccess& sw, const WaveJob& job);

 private:
  /// Outcome of encoding one wave.
  struct Encoded {
    bool ok = true;       ///< false: a packet exhausted its retransmits
    bool killed = false;  ///< kill_mid_add fired
    std::uint16_t slot = 0;
    int worker = -1;
  };
  Encoded encode(const WaveJob& job, WaveHooks& hooks, std::size_t wave);
  /// A worker that sends in the current wave: its index, bitmap id and
  /// input bytes.
  struct Source {
    std::size_t w = 0;
    std::uint8_t id = 0;
    std::span<const std::byte> view;
  };
  /// Lists the workers that send in `wave` (neither dead nor silenced by
  /// an injected death) into sources_, once per wave.
  void gather_sources(const WaveJob& job, std::size_t wave);
  /// The one packing loop: for chunks [k0, k1) of `wave`, calls
  /// fn(slot, source, payload) for each of sources_ in protocol order, the
  /// payload being the chunk's lanes_ values' bytes in the worker's view
  /// (a short tail chunk zero-padded in the queue's store); false as soon
  /// as fn returns false.
  template <class Fn>
  bool pack(const WaveJob& job, std::size_t wave, std::size_t k0,
            std::size_t k1, Fn&& fn);
  /// Draws one packet's add loss schedule and queues each delivered copy;
  /// false when the packet exhausts its retransmit budget.
  bool send(const WaveJob& job, std::uint16_t slot, std::uint8_t id,
            const std::byte* payload);
  /// Admits the queue on an already-held switch (guarded or not), books
  /// the guard's rejects, gathers the accepted packets' lanes, and empties
  /// the queue.
  void admit(pisa::FpisaSwitch& sw, const WaveJob& job);
  /// Guarded only: injected wipe, re-admission after state loss, wave
  /// deadline.
  void recover(SwitchAccess& sw, const WaveJob& job, WaveHooks& hooks,
               std::size_t wave);
  /// The only place a wave drains: releases the schedule's cleared prefix
  /// and drains it in one switch hold (guarded: taking back each reset
  /// slot's new stamp), each slot landing at its chunk's place in job.out.
  /// A failed schedule drains every slot into the bounce rows instead and
  /// hands the failure to hooks.fail; the short tail chunk goes through
  /// the tail row and only its in-range lanes are copied out.
  void collect(SwitchAccess& sw, const WaveJob& job, WaveHooks& hooks,
               std::size_t wave, const CollectSchedule& sched);
  /// A run's only end (or, rethrowing, its failure): hands the run's
  /// operation counts to job.ops or books them on the switch.
  void book(SwitchAccess& sw, const WaveJob& job);
  /// Reads the range's stamps and the switch generation they belong to.
  void resync(pisa::FpisaSwitch& sw, const WaveJob& job);
  std::uint8_t id_of(const WaveJob& job, std::size_t w) const {
    return job.ids.empty() ? static_cast<std::uint8_t>(w) : job.ids[w];
  }

  std::size_t lanes_;
  /// The run's loss rate as an integer cut on the rng's draws
  /// (util::Rng::bernoulli_cut): the same decisions, no per-draw
  /// conversion to double.
  std::uint64_t loss_cut_ = 0;
  core::OpCounters ops_{};  ///< the run's kernel operation counts
  // Reused across waves and runs: no steady-state allocation.
  fault::WaveQueue queue_;  ///< the only packet queue
  std::vector<Source> sources_;  ///< the current wave's sending workers
  /// admit's accepted packets, and a collect's drain destinations.
  std::vector<const std::byte*> accepted_payloads_;
  std::vector<std::uint32_t> accepted_rows_;
  std::vector<std::byte*> dests_;
  /// Bounce rows of a failed wave.
  std::vector<std::uint32_t> wave_values_;
  /// The short tail chunk's drain row (a run has at most one, see
  /// WaveJob::chunks).
  std::vector<std::uint32_t> tail_row_;
  // Guarded mode: the range's slot stamps as the switch last handed them
  // back, the generation resync last read, and the wave deadline's bitmap
  // probe.
  std::vector<std::uint32_t> stamps_;
  std::uint16_t stamp_generation_ = 0;
  std::vector<std::uint32_t> bitmaps_;
};

}  // namespace fpisa::switchml
