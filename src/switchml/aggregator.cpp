#include "switchml/aggregator.h"

#include <algorithm>
#include <cmath>

#include "core/packed.h"

namespace fpisa::switchml {

void ExactAggregator::reduce(std::span<const std::span<const float>> workers,
                             std::span<float> out) {
  core::check_views(workers, out.size(), name());
  std::vector<double> acc(out.size(), 0.0);
  for (const auto w : workers) {
    for (std::size_t i = 0; i < w.size(); ++i) {
      acc[i] += static_cast<double>(w[i]);
    }
  }
  for (std::size_t i = 0; i < acc.size(); ++i) {
    out[i] = static_cast<float>(acc[i]);
  }
}

void FloatSumAggregator::reduce(
    std::span<const std::span<const float>> workers, std::span<float> out) {
  core::check_views(workers, out.size(), name());
  std::fill(out.begin(), out.end(), 0.0f);
  for (const auto w : workers) {
    for (std::size_t i = 0; i < w.size(); ++i) out[i] += w[i];
  }
}

void PackedSumAggregator::reduce(
    std::span<const std::span<const float>> workers, std::span<float> out) {
  core::check_views(workers, out.size(), name());
  std::fill(out.begin(), out.end(), 0.0f);
  for (const auto w : workers) {
    for (std::size_t i = 0; i < w.size(); ++i) {
      // Quantize the operand and the running sum to the packed format, as
      // a low-precision host pipeline would.
      const double vq = core::decode(core::encode(w[i], *fmt_), *fmt_);
      const double sum = static_cast<double>(out[i]) + vq;
      out[i] =
          static_cast<float>(core::decode(core::encode(sum, *fmt_), *fmt_));
    }
  }
}

void SwitchMlAggregator::reduce(
    std::span<const std::span<const float>> workers, std::span<float> out) {
  core::check_views(workers, out.size(), name());
  const std::size_t n = out.size();
  const auto w_count = static_cast<double>(workers.size());
  std::fill(out.begin(), out.end(), 0.0f);

  for (std::size_t base = 0; base < n; base += chunk_) {
    const std::size_t end = std::min(base + chunk_, n);

    // Round 1: exchange chunk max-magnitude so everyone picks the same
    // scaling factor (the protocol overhead FPISA removes).
    ++round_trips_;
    float max_abs = 0.0f;
    for (const auto w : workers) {
      for (std::size_t i = base; i < end; ++i) {
        max_abs = std::max(max_abs, std::fabs(w[i]));
      }
    }
    if (max_abs == 0.0f) continue;

    // Scale so worker-count times the max cannot overflow int32.
    int max_exp = 0;
    (void)std::frexp(max_abs, &max_exp);
    const int worker_bits =
        static_cast<int>(std::ceil(std::log2(w_count))) + 1;
    const int shift = 30 - max_exp - worker_bits;

    // Round 2: quantize on hosts, integer-add "in the switch", dequantize.
    for (std::size_t i = base; i < end; ++i) {
      std::int64_t acc = 0;
      for (const auto w : workers) {
        acc += static_cast<std::int64_t>(
            std::llrint(std::ldexp(static_cast<double>(w[i]), shift)));
      }
      out[i] = static_cast<float>(std::ldexp(static_cast<double>(acc), -shift));
    }
  }
}

void FpisaAggregator::reduce(std::span<const std::span<const float>> workers,
                             std::span<float> out) {
  counters_ += core::aggregate_into(workers, out, cfg_);
}

}  // namespace fpisa::switchml
