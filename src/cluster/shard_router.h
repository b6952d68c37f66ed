// Where a cluster job runs: deterministic chunk -> shard routing (the same
// job always lands on the same shards, so retransmissions find their
// state), the pure job planner (no locks, threads or service state) that
// decides every pass's placement, and per-tenant disjoint slot ranges, so
// concurrent jobs sharing a shard never touch each other's registers.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <vector>

namespace fpisa::cluster {

/// Seed of the independent loss (or fault) stream of one (job, shard,
/// pass) shard task: results are deterministic regardless of scheduling.
/// Pass 0 reproduces the pre-failover stream exactly; retry passes draw
/// fresh schedules. A session's 16-slot ranges derive theirs the same way.
std::uint64_t task_seed(std::uint64_t base, std::uint64_t job_id, int shard,
                        std::uint64_t pass);

enum class RoutingPolicy {
  kHash,   ///< splitmix64(chunk ^ salt) % shards — spreads hot prefixes
  kRange,  ///< contiguous chunk blocks per shard — locality, trivial debug
};

const char* routing_policy_name(RoutingPolicy p);

/// Deterministic chunk -> shard placement for a job of `total_chunks`.
class ShardRouter {
 public:
  ShardRouter(int num_shards, RoutingPolicy policy, std::uint64_t salt = 0);

  int num_shards() const { return num_shards_; }
  std::uint64_t salt() const { return salt_; }

  /// Shard owning chunk `chunk` of a `total_chunks`-chunk job. Throws
  /// std::out_of_range when `chunk >= total_chunks`.
  int route(std::size_t chunk, std::size_t total_chunks) const;

  /// All chunks of a job grouped per shard; each shard's list is ascending.
  /// Every chunk in [0, total_chunks) appears in exactly one list.
  std::vector<std::vector<std::size_t>> partition(
      std::size_t total_chunks) const;

 private:
  int num_shards_;
  RoutingPolicy policy_;
  std::uint64_t salt_;
};

/// One pass of a job, as the planner lays it out.
struct JobPlan {
  /// Chunk ids per shard, each list ascending; empty: the shard sits idle.
  std::vector<std::vector<std::size_t>> chunks;
  /// Slots each shard asks for: slots_per_job if it has chunks, else 0.
  std::vector<std::size_t> slots;
  /// Chunks moved off dead shards (SessionStats::chunks_rerouted).
  std::size_t rerouted = 0;
};

/// A plan was asked for with no live shard to run on.
class NoLiveShardsError : public std::runtime_error {
 public:
  NoLiveShardsError() : std::runtime_error("cluster: no alive shards") {}
};

/// Turns a job's shape, the live shard set and the slot budget into plans.
/// A shard outside `live` has its chunks folded onto the survivors by a
/// hash of (chunk, salt, dead shard), even under kRange, so a retry pass
/// and a later job routing around the same corpse agree on placement. An
/// empty `live` throws NoLiveShardsError; shard lists that are not strictly
/// ascending in [0, num_shards), or overlap, throw std::invalid_argument.
class JobPlanner {
 public:
  /// Throws std::invalid_argument when `slots_per_job` is 0.
  JobPlanner(ShardRouter router, std::size_t slots_per_job);

  /// A job's first pass: its partition folded around the shards outside
  /// `live`; `rerouted` counts every chunk folded.
  JobPlan plan(std::size_t total_chunks, std::span<const int> live) const;
  /// Worker replay: the whole job again over `live`. `rerouted` counts only
  /// the chunks of `died`, the shards the last pass lost (earlier corpses
  /// were counted when they first left the job's plan).
  JobPlan replay(std::size_t total_chunks, std::span<const int> live,
                 std::span<const int> died) const;
  /// Failover retry: the chunks `died` held in `last`, folded onto `live`;
  /// every other shard idle, every chunk counted.
  JobPlan failover(const JobPlan& last, std::span<const int> died,
                   std::span<const int> live) const;

 private:
  void check(std::span<const int> live, std::span<const int> died) const;
  /// Folds every list outside `live` onto the survivors (`rerouted`: how
  /// many chunks moved) and sets the slots.
  JobPlan fold(std::vector<std::vector<std::size_t>> parts,
               std::span<const int> live) const;

  ShardRouter router_;
  std::size_t slots_per_job_;
};

/// A half-open run of aggregation slots [lo, hi) on one shard.
struct SlotRange {
  std::size_t lo = 0;
  std::size_t hi = 0;
  std::size_t size() const { return hi - lo; }
  bool empty() const { return hi <= lo; }
};

/// First-fit free-list allocator over one shard's aggregation slots.
/// Concurrent tenants receive disjoint ranges; release() coalesces
/// neighbours so the pool does not fragment across job churn.
///
/// allocate(want) returns a range of up to `want` slots: the first free
/// block large enough, else the largest free block (a smaller range just
/// means more protocol waves, not failure). Returns nullopt only when the
/// shard has zero free slots — callers wait and retry on release.
class SlotRangeAllocator {
 public:
  explicit SlotRangeAllocator(std::size_t total_slots);

  std::size_t free_slots() const;

  std::optional<SlotRange> allocate(std::size_t want);
  /// Throws std::out_of_range for a range past the pool's end.
  void release(const SlotRange& r);

 private:
  std::size_t total_;
  std::vector<SlotRange> free_;  ///< sorted by lo, non-adjacent
};

}  // namespace fpisa::cluster
