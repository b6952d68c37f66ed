// Deterministic token-bucket rate limiter.
//
// All arithmetic is integer: tokens are held in nanotokens (1e-9 of a
// job) and the refill rate is a Q32 fixed-point value in nanotokens per
// nanosecond. Refill accumulates through a 128-bit product with the
// fractional remainder carried between calls, so the bucket's state is
// an exact function of the call sequence and clock readings — two runs
// with the same ManualClock script make byte-identical decisions, and
// long-running buckets never drift from their configured rate.
#pragma once

#include <cstdint>

namespace fpisa::qos {

class TokenBucket {
 public:
  /// rate_jobs_per_s <= 0 disables limiting (every acquire succeeds).
  /// burst_jobs is the bucket capacity; the bucket starts full.
  TokenBucket(double rate_jobs_per_s, std::uint32_t burst_jobs,
              std::uint64_t now_ns);

  /// Take `jobs` tokens if available at time `now_ns`. Returns true on
  /// success; on failure the bucket is refilled but not debited.
  bool try_acquire(std::uint32_t jobs, std::uint64_t now_ns);

  /// Nanoseconds from `now_ns` until `jobs` tokens will be available
  /// (0 if available now, ~UINT64_MAX if `jobs` exceeds capacity so
  /// they never will be). Call after a failed try_acquire to size a
  /// kBlock wait.
  std::uint64_t ns_until_available(std::uint32_t jobs,
                                   std::uint64_t now_ns) const;

  bool unlimited() const { return rate_fp_ == 0; }

 private:
  static constexpr std::uint64_t kNanotokensPerJob = 1'000'000'000ull;

  void refill(std::uint64_t now_ns);

  std::uint64_t rate_fp_ = 0;  ///< Q32 nanotokens per ns; 0 = unlimited
  std::uint64_t capacity_nt_ = 0;
  std::uint64_t nanotokens_ = 0;
  std::uint64_t frac_ = 0;  ///< sub-nanotoken remainder (Q32 fraction)
  std::uint64_t last_ns_ = 0;
};

}  // namespace fpisa::qos
