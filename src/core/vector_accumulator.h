// Vector-wide FPISA accumulation: the in-network-aggregation data layout.
// One exponent register array + one mantissa register array (Fig 3), shared
// configuration and pooled event counters. This is what a SwitchML-style
// aggregation slot region looks like, and what the ML substrate uses to
// aggregate gradient vectors.
//
// Storage is a structure-of-arrays RegisterFile so element-wise adds run
// through the batched branchless kernel (core/batch_accumulator.h) and
// truncating reads run through its egress twin (fpisa_read_batch) — the
// scalar reference loops remain as the fallback for non-FP32 formats and
// are the bit-exactness oracle either way.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>

#include "core/accumulator.h"
#include "core/batch_accumulator.h"

namespace fpisa::core {

class FpisaVector {
 public:
  FpisaVector(std::size_t size, AccumulatorConfig cfg = {});

  std::size_t size() const { return regs_.size(); }

  // Every span below must be size() long, and add needs an FP32 config;
  // otherwise they throw std::invalid_argument, in every build.

  /// Element-wise add of one worker's packed vector (FP32 fast path: the
  /// batched branchless kernel reads `values` in place when the config is
  /// batch-eligible).
  void add(std::span<const float> values);
  /// Element-wise add in the configured format's packed encoding.
  void add_bits(std::span<const std::uint64_t> bits);

  /// Renormalize every element into `out` (state unchanged).
  void read(std::span<float> out) const;
  void read_bits(std::span<std::uint64_t> out) const;

  void reset();

  const OpCounters& counters() const { return counters_; }
  FpState state(std::size_t i) const { return {regs_.exp[i], regs_.man[i]}; }

 private:
  AccumulatorConfig cfg_;
  RegisterFile regs_;
  OpCounters counters_{};
};

/// Sums equal-length worker *views* (span-of-spans — the collective
/// layer's currency) with the given config into `out` (out.size() == view
/// length); returns the pooled counters.
OpCounters aggregate_into(std::span<const std::span<const float>> workers,
                          std::span<float> out, AccumulatorConfig cfg = {});

/// The one shape check for a reduce over worker views, in every build:
/// throws std::invalid_argument (prefixed with `who`) unless there is at
/// least one view, every view has one length, and out_size is that length.
void check_views(std::span<const std::span<const float>> workers,
                 std::size_t out_size, std::string_view who);

}  // namespace fpisa::core
