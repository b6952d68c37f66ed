// Shard liveness tracking and fault injection for the rack-scale
// aggregation service. A shard that keeps exhausting retransmit budgets is
// declared dead; the service then re-routes its chunk set onto survivors
// (JobPlanner::failover) instead of failing every tenant's job — the
// paper's rack-scale capacity argument only survives production if one
// dead switch doesn't stall the fabric.
//
// Fault injection (kill at a chosen protocol phase, or a persistent
// slowdown) exists so the failover path is exercised deterministically in
// tests and benches; the same ShardDeadError is thrown by the real
// retransmit-exhaustion path, so injected and organic deaths take the
// identical recovery route.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/ordered_mutex.h"
#include "util/thread_annotations.h"

namespace fpisa::cluster {

/// What an injected fault does to its shard.
enum class FaultKind {
  kKill,      ///< shard stops answering: packets exhaust retransmits
  kSlowdown,  ///< straggler: every wave takes extra wall time, job completes
};

/// Protocol phase at which a kKill fault fires.
enum class FaultPhase {
  kBeforeJob,   ///< before the shard task sends anything
  kMidAdd,      ///< halfway through a wave's add (submit) phase
  kMidCollect,  ///< halfway through a wave's collect phase
};

/// One injected fault. Kills are one-shot (the shard dies once); slowdowns
/// are persistent (the shard straggles on every wave until the service is
/// torn down).
struct ShardFault {
  int shard = 0;
  FaultKind kind = FaultKind::kKill;
  FaultPhase phase = FaultPhase::kBeforeJob;
  std::size_t wave = 0;       ///< wave index (within the job) a kill fires at
  double slowdown_ms = 0.0;   ///< kSlowdown: extra wall time per wave
};

/// Failover policy knobs (ClusterOptions::failover). Faults fire whether or
/// not failover is enabled — `enabled` only governs whether the service
/// recovers (re-route + retry) or surfaces the failure to the tenant.
struct FailoverOptions {
  bool enabled = false;
  /// Consecutive retransmit-exhaustion failures before a shard is declared
  /// dead (and its chunks become eligible for re-routing); must be >= 1.
  int max_consecutive_failures = 1;
  /// Clean retry passes a single job may run after re-routing; past this
  /// the job fails even with survivors left. Must be >= 0.
  int max_reroutes_per_job = 1;
  /// Test/bench fault injection; empty in production.
  std::vector<ShardFault> faults;
};

/// Thrown when a shard stops responding (retransmit exhaustion or an
/// injected kill). Derived from std::runtime_error so pre-failover callers
/// that catch the old exception keep working; the shard id lets the
/// service attribute the death without parsing messages.
class ShardDeadError : public std::runtime_error {
 public:
  ShardDeadError(int shard, const std::string& what)
      : std::runtime_error(what), shard_(shard) {}
  int shard() const { return shard_; }

 private:
  int shard_;
};

/// Per-shard liveness state: consecutive retransmit-exhaustion failures,
/// death marking, and cumulative counters. Internally synchronized —
/// concurrent jobs report failures from the job-runner pool.
class ShardHealth {
 public:
  /// Throws std::invalid_argument for no shards or a threshold below 1.
  ShardHealth(int num_shards, int max_consecutive_failures);

  bool alive(int shard) const FPISA_EXCLUDES(mu_);
  int num_alive() const FPISA_EXCLUDES(mu_);
  /// Ascending ids of every live shard.
  std::vector<int> alive_shards() const FPISA_EXCLUDES(mu_);

  /// Records one retransmit-exhaustion (or injected-kill) event; the shard
  /// is declared dead once `max_consecutive_failures` accumulate without an
  /// intervening success. Returns true when the shard is dead afterwards.
  bool record_failure(int shard) FPISA_EXCLUDES(mu_);
  /// A completed shard task: resets the consecutive-failure streak.
  void record_success(int shard) FPISA_EXCLUDES(mu_);
  /// Administrative kill (bench degraded mode, operator drain).
  void mark_dead(int shard) FPISA_EXCLUDES(mu_);

  std::uint64_t total_failures(int shard) const FPISA_EXCLUDES(mu_);
  std::uint64_t deaths() const FPISA_EXCLUDES(mu_);

 private:
  struct State {
    bool alive = true;
    std::uint64_t consecutive = 0;
    std::uint64_t total = 0;
  };
  mutable util::OrderedMutex mu_{util::lock_rank::kHealth};
  std::vector<State> shards_ FPISA_GUARDED_BY(mu_);
  int threshold_;
  std::uint64_t deaths_ FPISA_GUARDED_BY(mu_) = 0;
};

}  // namespace fpisa::cluster
