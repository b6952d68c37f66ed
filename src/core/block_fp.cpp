#include "core/block_fp.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace fpisa::core {

BlockFp block_encode(std::span<const float> values, const BlockFpFormat& fmt) {
  BlockFp block;
  block.mantissas.assign(values.size(), 0);

  float max_abs = 0.0f;
  for (const float v : values) max_abs = std::max(max_abs, std::fabs(v));
  if (max_abs == 0.0f) return block;  // shared_exp 0, all-zero mantissas

  int ex = 0;
  (void)std::frexp(max_abs, &ex);  // max_abs = m * 2^ex, m in [0.5, 1)
  block.shared_exp = (ex - 1) + fmt.bias();

  const int scale = block.shared_exp - fmt.bias() - fmt.frac_bits();
  const std::int32_t lim = (1 << (fmt.mantissa_bits - 1)) - 1;
  for (std::size_t i = 0; i < values.size(); ++i) {
    const auto m = static_cast<std::int64_t>(
        std::llrint(std::ldexp(static_cast<double>(values[i]), -scale)));
    block.mantissas[i] =
        static_cast<std::int32_t>(std::clamp<std::int64_t>(m, -lim, lim));
  }
  return block;
}

std::vector<float> block_decode(const BlockFp& block, const BlockFpFormat& fmt) {
  std::vector<float> out(block.mantissas.size());
  const int scale = block.shared_exp - fmt.bias() - fmt.frac_bits();
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<float>(
        std::ldexp(static_cast<double>(block.mantissas[i]), scale));
  }
  return out;
}

BlockFpisaAccumulator::BlockFpisaAccumulator(std::size_t lanes,
                                             BlockFpFormat fmt,
                                             Variant variant, int reg_bits)
    : fmt_(fmt), variant_(variant), reg_bits_(reg_bits), man_(lanes, 0) {}

void BlockFpisaAccumulator::add_block(const BlockFp& block) {
  if (block.mantissas.size() != man_.size()) {
    throw std::invalid_argument(
        "BlockFpisaAccumulator::add_block: block has " +
        std::to_string(block.mantissas.size()) + " mantissas for " +
        std::to_string(man_.size()) + " lanes");
  }
  ++counters_.adds;

  if (empty_) {
    empty_ = false;
    exp_ = block.shared_exp;
    for (std::size_t i = 0; i < man_.size(); ++i) man_[i] = block.mantissas[i];
    return;
  }

  if (block.shared_exp <= exp_) {
    // One exponent comparison covers all lanes: shift each incoming
    // mantissa right and add (the block-FP efficiency win).
    const int d = exp_ - block.shared_exp;
    for (std::size_t i = 0; i < man_.size(); ++i) {
      const std::int64_t m = block.mantissas[i];
      if (detail::asr_inexact(m, d)) ++counters_.rounded_adds;
      man_[i] = detail::add_register(man_[i], detail::asr(m, d), reg_bits_,
                                     OverflowPolicy::kSaturate, counters_);
    }
    return;
  }

  const int d = block.shared_exp - exp_;
  if (variant_ == Variant::kFull) {
    for (std::size_t i = 0; i < man_.size(); ++i) {
      if (detail::asr_inexact(man_[i], d)) ++counters_.rounded_adds;
      man_[i] = detail::add_register(detail::asr(man_[i], d),
                                     block.mantissas[i], reg_bits_,
                                     OverflowPolicy::kSaturate, counters_);
    }
    exp_ = block.shared_exp;
    return;
  }

  // FPISA-A at block granularity.
  const int headroom = reg_bits_ - fmt_.mantissa_bits - 1;
  if (d <= headroom) {
    for (std::size_t i = 0; i < man_.size(); ++i) {
      const std::uint64_t before = counters_.saturations;
      man_[i] = detail::add_register(
          man_[i], static_cast<std::int64_t>(block.mantissas[i]) << d,
          reg_bits_, OverflowPolicy::kSaturate, counters_);
      if (counters_.saturations != before) ++counters_.lshift_overflows;
    }
    return;
  }
  for (std::size_t i = 0; i < man_.size(); ++i) {
    if (man_[i] != 0) ++counters_.overwrites;
    man_[i] = block.mantissas[i];
  }
  exp_ = block.shared_exp;
}

std::vector<float> BlockFpisaAccumulator::read() const {
  std::vector<float> out(man_.size());
  const int scale = exp_ - fmt_.bias() - fmt_.frac_bits();
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] =
        static_cast<float>(std::ldexp(static_cast<double>(man_[i]), scale));
  }
  return out;
}

}  // namespace fpisa::core
