// Gradient aggregation strategies (paper §5): the SwitchML fixed-point
// baseline (host-side quantization + per-chunk scaling-factor exchange) and
// the FPISA in-switch floating-point path, behind one interface so the ML
// substrate can swap them.
#pragma once

#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "core/accumulator.h"
#include "core/vector_accumulator.h"

namespace fpisa::switchml {

/// Sums equal-length gradient vectors through the zero-copy `reduce` over
/// worker *views* (span-of-spans into caller-owned storage — the
/// collective layer's currency).
class GradientAggregator {
 public:
  virtual ~GradientAggregator() = default;
  virtual std::string_view name() const = 0;
  /// Sums `workers` element-wise into `out` (out.size() == view length).
  virtual void reduce(std::span<const std::span<const float>> workers,
                      std::span<float> out) = 0;
};

/// Double-precision reference (what an ideal aggregator would produce).
class ExactAggregator final : public GradientAggregator {
 public:
  std::string_view name() const override { return "exact"; }
  void reduce(std::span<const std::span<const float>> workers,
              std::span<float> out) override;
};

/// Host-side FP32 summation — the paper's "default addition" baseline.
class FloatSumAggregator final : public GradientAggregator {
 public:
  std::string_view name() const override { return "fp32-host"; }
  void reduce(std::span<const std::span<const float>> workers,
              std::span<float> out) override;
};

/// Host-side summation carried out in an arbitrary packed format (e.g.
/// FP16): every partial sum is re-encoded, modeling low-precision hosts.
class PackedSumAggregator final : public GradientAggregator {
 public:
  explicit PackedSumAggregator(const core::FloatFormat& fmt) : fmt_(&fmt) {}
  std::string_view name() const override { return "packed-host"; }
  void reduce(std::span<const std::span<const float>> workers,
              std::span<float> out) override;

 private:
  const core::FloatFormat* fmt_;
};

/// SwitchML: per-chunk scaling factor from the global max exponent (the
/// extra communication round the paper charges it for), int32 quantization
/// on hosts, integer addition in the switch, dequantization on hosts.
class SwitchMlAggregator final : public GradientAggregator {
 public:
  explicit SwitchMlAggregator(std::size_t chunk_elements = 256)
      : chunk_(chunk_elements) {}

  std::string_view name() const override { return "switchml-int"; }
  void reduce(std::span<const std::span<const float>> workers,
              std::span<float> out) override;

  /// One per chunk: the exponent-exchange round trips the protocol needs.
  std::uint64_t extra_round_trips() const { return round_trips_; }

 private:
  std::size_t chunk_;
  std::uint64_t round_trips_ = 0;
};

/// FPISA in-switch aggregation: values stream to the switch as native FP
/// (any supported format), accumulated by the decomposed representation.
/// Uses the core reference implementation, which is bit-identical to the
/// pisa switch program (proven in tests/test_pisa_fpisa_program.cpp).
class FpisaAggregator final : public GradientAggregator {
 public:
  explicit FpisaAggregator(core::AccumulatorConfig cfg = {}) : cfg_(cfg) {}

  std::string_view name() const override {
    return cfg_.variant == core::Variant::kFull ? "fpisa" : "fpisa-a";
  }
  void reduce(std::span<const std::span<const float>> workers,
              std::span<float> out) override;

  /// Pooled error-event counters across all reduce() calls (Fig 8's
  /// overwrite / left-shift / rounding taxonomy).
  const core::OpCounters& counters() const { return counters_; }

 private:
  core::AccumulatorConfig cfg_;
  core::OpCounters counters_{};
};

}  // namespace fpisa::switchml
