// Statistics helpers used by the experiment harnesses and the SLO books:
// log2 histograms (error and ratio distributions), nearest-rank
// percentiles and a bounded reservoir (latency summaries).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "util/rng.h"

namespace fpisa::util {

/// Fixed-bucket histogram over log2(x): bucket i covers [2^(lo+i), 2^(lo+i+1)).
/// Matches the paper's Fig 7 (max/min ratio vs powers of two) and Fig 8
/// (error magnitude vs powers of ten mapped onto log buckets).
class Log2Histogram {
 public:
  Log2Histogram(int lo_exp, int hi_exp)
      : lo_(lo_exp), counts_(static_cast<std::size_t>(hi_exp - lo_exp) + 2) {}

  void add(double x) {
    ++total_;
    if (!(x > 0.0) || !std::isfinite(x)) {
      ++counts_.front();  // underflow bucket (zero / nonpositive / nonfinite)
      return;
    }
    const int e = static_cast<int>(std::floor(std::log2(x)));
    const int idx =
        std::clamp(e - lo_ + 1, 0, static_cast<int>(counts_.size()) - 1);
    ++counts_[static_cast<std::size_t>(idx)];
  }

  std::uint64_t total() const { return total_; }
  std::size_t buckets() const { return counts_.size(); }
  std::uint64_t count(std::size_t i) const { return counts_[i]; }
  double frequency(std::size_t i) const {
    return total_ ? static_cast<double>(counts_[i]) /
                        static_cast<double>(total_)
                  : 0.0;
  }
  /// Lower log2 edge of bucket i (bucket 0 is the underflow bucket).
  int bucket_log2_lo(std::size_t i) const { return lo_ + static_cast<int>(i) - 1; }

  /// Fraction of samples with value < 2^e.
  double fraction_below_pow2(int e) const {
    std::uint64_t below = 0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      if (i == 0 || bucket_log2_lo(i) + 1 <= e) below += counts_[i];
    }
    return total_ ? static_cast<double>(below) / static_cast<double>(total_)
                  : 0.0;
  }

 private:
  int lo_;
  std::uint64_t total_ = 0;
  std::vector<std::uint64_t> counts_;
};

/// Nearest-rank percentile over an ascending-sorted sample; q in [0, 1]:
/// index floor(q * (n - 1) + 0.5), 0 for an empty sample. The one rounding
/// convention behind Reservoir and the SLO books.
inline double sorted_percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto idx = static_cast<std::size_t>(
      q * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)];
}

/// Fixed-capacity uniform sample over an unbounded stream (Vitter's
/// algorithm R) with a deterministic replacement stream, so percentile
/// summaries (per-tenant job wall times in the cluster service's SLO
/// accounting) stay cheap and reproducible no matter how many jobs run.
class Reservoir {
 public:
  explicit Reservoir(std::size_t capacity = 128,
                     std::uint64_t seed = 0x510eedULL)
      : cap_(capacity ? capacity : 1), rng_seed_(seed) {}

  void add(double x) {
    ++n_;
    if (xs_.size() < cap_) {
      xs_.push_back(x);
      return;
    }
    const std::uint64_t j = splitmix64(rng_seed_) % n_;
    if (j < cap_) xs_[static_cast<std::size_t>(j)] = x;
  }

  std::uint64_t count() const { return n_; }
  std::size_t sample_size() const { return xs_.size(); }

  /// Ascending copy of the current sample — callers reading several
  /// percentiles sort once and use sorted_percentile directly.
  std::vector<double> sorted_samples() const {
    std::vector<double> sorted(xs_);
    std::sort(sorted.begin(), sorted.end());
    return sorted;
  }

  /// Nearest-rank percentile over the sampled set; q in [0, 1].
  double percentile(double q) const {
    return sorted_percentile(sorted_samples(), q);
  }

 private:
  std::size_t cap_;
  std::uint64_t rng_seed_;
  std::uint64_t n_ = 0;
  std::vector<double> xs_;
};

/// Renders a sequence of (label, fraction) rows as a small ASCII bar chart,
/// used by the figure-reproduction benches.
std::string ascii_bars(const std::vector<std::pair<std::string, double>>& rows,
                       int width = 40);

}  // namespace fpisa::util
