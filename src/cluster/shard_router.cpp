#include "cluster/shard_router.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "util/rng.h"

namespace fpisa::cluster {

std::uint64_t task_seed(std::uint64_t base, std::uint64_t job_id, int shard,
                        std::uint64_t pass) {
  std::uint64_t state = base ^ (job_id * 0x9e3779b97f4a7c15ULL) ^
                        (static_cast<std::uint64_t>(shard) << 32) ^
                        (pass * 0xc2b2ae3d27d4eb4fULL);
  return util::splitmix64(state);
}

const char* routing_policy_name(RoutingPolicy p) {
  switch (p) {
    case RoutingPolicy::kHash: return "hash";
    case RoutingPolicy::kRange: return "range";
  }
  return "?";
}

ShardRouter::ShardRouter(int num_shards, RoutingPolicy policy,
                         std::uint64_t salt)
    : num_shards_(num_shards), policy_(policy), salt_(salt) {
  if (num_shards <= 0) throw std::invalid_argument("num_shards must be > 0");
}

int ShardRouter::route(std::size_t chunk, std::size_t total_chunks) const {
  if (chunk >= total_chunks) {
    throw std::out_of_range("shard router: chunk outside the job");
  }
  if (num_shards_ == 1) return 0;
  switch (policy_) {
    case RoutingPolicy::kHash: {
      std::uint64_t state = static_cast<std::uint64_t>(chunk) ^ salt_;
      return static_cast<int>(util::splitmix64(state) %
                              static_cast<std::uint64_t>(num_shards_));
    }
    case RoutingPolicy::kRange: {
      // Contiguous blocks, remainder spread over the leading shards.
      const std::size_t shards = static_cast<std::size_t>(num_shards_);
      const std::size_t base = total_chunks / shards;
      const std::size_t extra = total_chunks % shards;
      const std::size_t boundary = extra * (base + 1);
      if (chunk < boundary) {
        return static_cast<int>(chunk / (base + 1));
      }
      return static_cast<int>(extra + (chunk - boundary) / base);
    }
  }
  return 0;
}

std::vector<std::vector<std::size_t>> ShardRouter::partition(
    std::size_t total_chunks) const {
  std::vector<std::vector<std::size_t>> out(
      static_cast<std::size_t>(num_shards_));
  for (std::size_t c = 0; c < total_chunks; ++c) {
    out[static_cast<std::size_t>(route(c, total_chunks))].push_back(c);
  }
  return out;
}

JobPlanner::JobPlanner(ShardRouter router, std::size_t slots_per_job)
    : router_(router), slots_per_job_(slots_per_job) {
  if (slots_per_job == 0) {
    throw std::invalid_argument("cluster: slots_per_job must be > 0");
  }
}

void JobPlanner::check(std::span<const int> live,
                       std::span<const int> died) const {
  if (live.empty()) throw NoLiveShardsError();
  const int n = router_.num_shards();
  std::vector<char> seen(static_cast<std::size_t>(n), 0);
  for (const std::span<const int> ids : {live, died}) {
    for (std::size_t i = 0; i < ids.size(); ++i) {
      if (ids[i] < 0 || ids[i] >= n || (i > 0 && ids[i] <= ids[i - 1]) ||
          std::exchange(seen[static_cast<std::size_t>(ids[i])], 1) != 0) {
        throw std::invalid_argument(
            "cluster planner: shard lists must be ascending, in range and "
            "disjoint");
      }
    }
  }
}

JobPlan JobPlanner::fold(std::vector<std::vector<std::size_t>> parts,
                         std::span<const int> live) const {
  JobPlan plan;
  std::vector<char> is_live(parts.size(), 0);
  for (const int s : live) is_live[static_cast<std::size_t>(s)] = 1;
  for (std::size_t s = 0; s < parts.size(); ++s) {
    if (is_live[s] || parts[s].empty()) continue;
    // Mix the dead shard's id into the hash so the failover placement of a
    // chunk is decorrelated from its primary placement (and from other
    // shards' failovers), while staying a pure function of (chunk, salt,
    // dead shard).
    const std::uint64_t dead_mix =
        (static_cast<std::uint64_t>(s) + 1) * 0x9e3779b97f4a7c15ULL;
    for (const std::size_t c : parts[s]) {
      std::uint64_t state =
          static_cast<std::uint64_t>(c) ^ router_.salt() ^ dead_mix;
      const std::size_t pick = static_cast<std::size_t>(
          util::splitmix64(state) % static_cast<std::uint64_t>(live.size()));
      parts[static_cast<std::size_t>(live[pick])].push_back(c);
    }
    plan.rerouted += parts[s].size();
    parts[s].clear();
  }
  plan.slots.resize(parts.size());
  for (std::size_t s = 0; s < parts.size(); ++s) {
    if (plan.rerouted != 0) std::sort(parts[s].begin(), parts[s].end());
    plan.slots[s] = parts[s].empty() ? 0 : slots_per_job_;
  }
  plan.chunks = std::move(parts);
  return plan;
}

JobPlan JobPlanner::plan(std::size_t total_chunks,
                         std::span<const int> live) const {
  check(live, {});
  return fold(router_.partition(total_chunks), live);
}

JobPlan JobPlanner::replay(std::size_t total_chunks,
                           std::span<const int> live,
                           std::span<const int> died) const {
  check(live, died);
  std::vector<std::vector<std::size_t>> parts =
      router_.partition(total_chunks);
  std::size_t rerouted = 0;
  for (const int d : died) {
    rerouted += parts[static_cast<std::size_t>(d)].size();
  }
  JobPlan plan = fold(std::move(parts), live);
  plan.rerouted = rerouted;
  return plan;
}

JobPlan JobPlanner::failover(const JobPlan& last, std::span<const int> died,
                             std::span<const int> live) const {
  check(live, died);
  std::vector<std::vector<std::size_t>> parts(
      static_cast<std::size_t>(router_.num_shards()));
  for (const int d : died) {
    parts[static_cast<std::size_t>(d)] =
        last.chunks.at(static_cast<std::size_t>(d));
  }
  return fold(std::move(parts), live);
}

SlotRangeAllocator::SlotRangeAllocator(std::size_t total_slots)
    : total_(total_slots) {
  if (total_slots == 0) throw std::invalid_argument("need at least one slot");
  free_.push_back({0, total_slots});
}

std::size_t SlotRangeAllocator::free_slots() const {
  std::size_t n = 0;
  for (const SlotRange& r : free_) n += r.size();
  return n;
}

std::optional<SlotRange> SlotRangeAllocator::allocate(std::size_t want) {
  if (want == 0 || free_.empty()) return std::nullopt;
  // First fit at the requested size; otherwise the largest block we have.
  std::size_t best = free_.size();
  for (std::size_t i = 0; i < free_.size(); ++i) {
    if (free_[i].size() >= want) {
      best = i;
      break;
    }
    if (best == free_.size() || free_[i].size() > free_[best].size()) {
      best = i;
    }
  }
  SlotRange& block = free_[best];
  const std::size_t take = std::min(want, block.size());
  const SlotRange out{block.lo, block.lo + take};
  block.lo += take;
  if (block.empty()) free_.erase(free_.begin() + static_cast<long>(best));
  return out;
}

void SlotRangeAllocator::release(const SlotRange& r) {
  if (r.empty()) return;
  if (r.hi > total_) {
    throw std::out_of_range("slot allocator: range past the pool's end");
  }
  const auto it = std::lower_bound(
      free_.begin(), free_.end(), r,
      [](const SlotRange& a, const SlotRange& b) { return a.lo < b.lo; });
  const auto pos = free_.insert(it, r);
  const std::size_t i = static_cast<std::size_t>(pos - free_.begin());
  // Coalesce with the right neighbour, then the left.
  if (i + 1 < free_.size() && free_[i].hi == free_[i + 1].lo) {
    free_[i].hi = free_[i + 1].hi;
    free_.erase(free_.begin() + static_cast<long>(i) + 1);
  }
  if (i > 0 && free_[i - 1].hi == free_[i].lo) {
    free_[i - 1].hi = free_[i].hi;
    free_.erase(free_.begin() + static_cast<long>(i));
  }
}

}  // namespace fpisa::cluster
