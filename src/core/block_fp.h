// Block floating point support (paper §3.3: "block floating point formats,
// where multiple values share one exponent, can be supported by replicating
// the exponent register"). This models MSFP-style formats: a block of
// narrow signed mantissas sharing a single 8-bit exponent.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/accumulator.h"

namespace fpisa::core {

/// One encoded block: `mantissas[i] * 2^(shared_exp - bias - frac_bits)`.
struct BlockFp {
  std::int32_t shared_exp = 0;  ///< biased, 8-bit style (bias 127)
  std::vector<std::int32_t> mantissas;
};

struct BlockFpFormat {
  int mantissa_bits = 8;  ///< signed mantissa width incl. sign (MSFP-12 ~ 8)
  int exp_bits = 8;
  int bias() const { return (1 << (exp_bits - 1)) - 1; }
  /// Fraction bits to the right of the implied leading position.
  int frac_bits() const { return mantissa_bits - 2; }
};

/// Encodes a float block: shared exponent = max exponent over the block,
/// mantissas rounded to nearest. Values too small for the shared scale
/// quantize to zero — the inherent block-FP tradeoff.
BlockFp block_encode(std::span<const float> values, const BlockFpFormat& fmt);

/// Decodes to floats.
std::vector<float> block_decode(const BlockFp& block, const BlockFpFormat& fmt);

/// A switch-resident block accumulator: one shared exponent register + one
/// wide signed mantissa register per lane. Alignment decisions are made
/// once per block against the shared exponent (this is the efficiency win:
/// one exponent comparison serves the whole block).
class BlockFpisaAccumulator {
 public:
  BlockFpisaAccumulator(std::size_t lanes, BlockFpFormat fmt,
                        Variant variant = Variant::kFull, int reg_bits = 32);

  /// Throws std::invalid_argument, before any state changes, unless the
  /// block has one mantissa per lane.
  void add_block(const BlockFp& block);

  /// Renormalized result per lane.
  std::vector<float> read() const;

  const OpCounters& counters() const { return counters_; }

 private:
  BlockFpFormat fmt_;
  Variant variant_;
  int reg_bits_;
  std::int32_t exp_ = 0;
  std::vector<std::int64_t> man_;
  bool empty_ = true;
  OpCounters counters_{};
};

}  // namespace fpisa::core
