// Deterministic, seedable random number generation used across all
// experiments so every bench and test is exactly reproducible.
//
// We deliberately avoid <random>'s distributions (their results are
// implementation-defined across standard libraries) and implement
// xoshiro256++ with splitmix64 seeding plus the handful of distributions the
// experiments need.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <numbers>

namespace fpisa::util {

/// splitmix64: used to expand a single 64-bit seed into xoshiro state.
constexpr std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// xoshiro256++ PRNG. Fast, high quality, deterministic across platforms.
class Rng {
 public:
  explicit constexpr Rng(std::uint64_t seed = 0x5eedf15aULL) {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64(sm);
  }

  constexpr std::uint64_t next_u64() {
    const std::uint64_t result = rotl(state_[0] + state_[3], 23) + state_[0];
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  constexpr std::uint32_t next_u32() {
    return static_cast<std::uint32_t>(next_u64() >> 32);
  }

  /// Uniform in [0, bound). Unbiased for bound > 0 via rejection.
  constexpr std::uint64_t next_below(std::uint64_t bound) {
    // Lemire-style rejection on the top bits.
    const std::uint64_t threshold = (-bound) % bound;
    for (;;) {
      const std::uint64_t r = next_u64();
      if (r >= threshold) return r % bound;
    }
  }

  /// Uniform double in [0, 1).
  constexpr double next_double() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  constexpr double uniform(double lo, double hi) {
    return lo + (hi - lo) * next_double();
  }

  /// Uniform integer in [lo, hi] inclusive.
  constexpr std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(
                    next_below(static_cast<std::uint64_t>(hi - lo) + 1));
  }

  /// Standard normal via Box-Muller (no cached spare: keeps state simple).
  double normal() {
    double u1 = next_double();
    while (u1 <= 0.0) u1 = next_double();
    const double u2 = next_double();
    return std::sqrt(-2.0 * std::log(u1)) *
           std::cos(2.0 * std::numbers::pi * u2);
  }

  double normal(double mean, double stddev) { return mean + stddev * normal(); }

  /// Log-normal: exp(N(mu, sigma)).
  double lognormal(double mu, double sigma) {
    return std::exp(normal(mu, sigma));
  }

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(T* data, std::size_t n) {
    for (std::size_t i = n; i > 1; --i) {
      const std::size_t j = next_below(i);
      std::swap(data[i - 1], data[j]);
    }
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

}  // namespace fpisa::util
