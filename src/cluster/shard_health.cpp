#include "cluster/shard_health.h"

#include <algorithm>

namespace fpisa::cluster {

ShardHealth::ShardHealth(int num_shards, int max_consecutive_failures)
    : shards_(static_cast<std::size_t>(std::max(num_shards, 0))),
      threshold_(max_consecutive_failures) {
  if (num_shards <= 0) {
    throw std::invalid_argument("shard health: need at least one shard");
  }
  if (max_consecutive_failures < 1) {
    throw std::invalid_argument(
        "shard health: max_consecutive_failures must be >= 1");
  }
}

bool ShardHealth::alive(int shard) const {
  util::LockGuard lk(mu_);
  return shards_[static_cast<std::size_t>(shard)].alive;
}

int ShardHealth::num_alive() const {
  util::LockGuard lk(mu_);
  int n = 0;
  for (const State& s : shards_) n += s.alive ? 1 : 0;
  return n;
}

std::vector<int> ShardHealth::alive_shards() const {
  util::LockGuard lk(mu_);
  std::vector<int> out;
  out.reserve(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (shards_[s].alive) out.push_back(static_cast<int>(s));
  }
  return out;
}

bool ShardHealth::record_failure(int shard) {
  util::LockGuard lk(mu_);
  State& s = shards_[static_cast<std::size_t>(shard)];
  ++s.total;
  ++s.consecutive;
  if (s.alive && s.consecutive >= static_cast<std::uint64_t>(threshold_)) {
    s.alive = false;
    ++deaths_;
  }
  return !s.alive;
}

void ShardHealth::record_success(int shard) {
  util::LockGuard lk(mu_);
  shards_[static_cast<std::size_t>(shard)].consecutive = 0;
}

void ShardHealth::mark_dead(int shard) {
  util::LockGuard lk(mu_);
  State& s = shards_[static_cast<std::size_t>(shard)];
  if (s.alive) {
    s.alive = false;
    ++deaths_;
  }
}

std::uint64_t ShardHealth::total_failures(int shard) const {
  util::LockGuard lk(mu_);
  return shards_[static_cast<std::size_t>(shard)].total;
}

std::uint64_t ShardHealth::deaths() const {
  util::LockGuard lk(mu_);
  return deaths_;
}

}  // namespace fpisa::cluster
