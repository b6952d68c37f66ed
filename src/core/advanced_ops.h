// Advanced floating-point operations (paper Appendix A.2).
//
// Addition and comparison cover the paper's two case studies; these extras
// demonstrate the forward path it sketches:
//  * multiplication — exponents add, mantissas multiply as integers. Small
//    formats can use table lookups (no hardware change); larger formats use
//    the proposed integer-multiplier functional unit (costed in src/hw/).
//  * division — reciprocal computed at the end host, multiply in-switch.
//  * logarithm — integer log of the mantissa via a <2000-entry lookup table
//    with <1% error, plus the exponent contribution.
//  * square root — exponent halving + a parity-indexed mantissa table.
//
// Everything here uses only integer/fixed-point arithmetic and table
// lookups, i.e. operations a PISA pipeline can express.
#pragma once

#include <cstdint>
#include <vector>

#include "core/float_format.h"

namespace fpisa::core {

/// Exact-significand multiplication using an integer multiplier unit:
/// exponents add (minus bias), significands multiply, product renormalized.
/// Round-to-nearest on the discarded low product bits.
std::uint64_t fpisa_multiply(std::uint64_t a_bits, std::uint64_t b_bits,
                             const FloatFormat& fmt);

/// Division via end-host reciprocal + in-switch multiply: the host computes
/// 1/b in the same format; the switch multiplies. Error is one extra
/// rounding step versus true division.
std::uint64_t host_reciprocal(std::uint64_t b_bits, const FloatFormat& fmt);
std::uint64_t fpisa_divide_via_reciprocal(std::uint64_t a_bits,
                                          std::uint64_t b_bits,
                                          const FloatFormat& fmt);

/// Table-driven log2 for positive finite inputs. The result is a Q16
/// fixed-point number: log2(x) * 2^16, computed as
/// (exp - bias) * 2^16 + table[top mantissa bits].
class Log2Table {
 public:
  explicit Log2Table(const FloatFormat& fmt = kFp32, int index_bits = 11);

  /// Q16 fixed-point log2(x). Throws std::invalid_argument unless x is
  /// positive and finite (zero, negatives, infinities and NaN are not).
  std::int64_t log2_q16(std::uint64_t bits) const;
  /// Convenience: as double.
  double log2(std::uint64_t bits) const {
    return static_cast<double>(log2_q16(bits)) * 0x1.0p-16;
  }

  std::size_t entries() const { return table_.size(); }

 private:
  FloatFormat fmt_;
  int index_bits_;
  std::vector<std::int32_t> table_;  // Q16 log2(1 + i/2^index_bits) midpoints
};

/// Table-driven square root for nonnegative finite inputs: the exponent is
/// halved; a table indexed by (exponent parity, top mantissa bits) supplies
/// the output significand.
class SqrtTable {
 public:
  explicit SqrtTable(const FloatFormat& fmt = kFp32, int index_bits = 10);

  std::uint64_t sqrt(std::uint64_t bits) const;

  std::size_t entries() const { return table_.size(); }

 private:
  FloatFormat fmt_;
  int index_bits_;
  std::vector<std::uint32_t> table_;  // output significand, 2*2^index_bits
};

/// Multiplication without a hardware multiplier, for small formats:
/// log/antilog tables (significand -> Q-fixed log2; sum of logs -> product
/// significand). Approximate; relative error bounded by table resolution.
class TableMultiplier {
 public:
  explicit TableMultiplier(const FloatFormat& fmt = kFp16, int index_bits = 11);

  std::uint64_t multiply(std::uint64_t a_bits, std::uint64_t b_bits) const;

  std::size_t table_entries() const { return log_.size() + antilog_.size(); }

 private:
  FloatFormat fmt_;
  int index_bits_;
  std::vector<std::int32_t> log_;      // Q16 log2 of significand/2^man
  std::vector<std::uint32_t> antilog_; // significand for fractional log2
};

}  // namespace fpisa::core
