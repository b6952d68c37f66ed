#include "core/advanced_ops.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/decompose.h"
#include "core/packed.h"

namespace fpisa::core {
namespace {

std::uint64_t make_inf(bool neg, const FloatFormat& fmt) {
  return (neg ? fmt.sign_mask() : 0) | (fmt.exp_mask() << fmt.man_bits);
}

std::uint64_t make_nan(const FloatFormat& fmt) {
  return (fmt.exp_mask() << fmt.man_bits) |
         (std::uint64_t{1} << (fmt.man_bits - 1));
}

/// Normalizes a nonzero decomposed value so the leading 1 sits at man_bits
/// (subnormals get their exponent decremented accordingly) — in hardware
/// this is the same LPM + shift machinery as the read path.
void normalize(std::int32_t& exp, std::uint64_t& mag, const FloatFormat& fmt) {
  const int p = 63 - std::countl_zero(mag);
  const int delta = p - fmt.man_bits;
  if (delta > 0) {
    mag >>= delta;
  } else if (delta < 0) {
    mag <<= -delta;
  }
  exp += delta;
}

}  // namespace

std::uint64_t fpisa_multiply(std::uint64_t a_bits, std::uint64_t b_bits,
                             const FloatFormat& fmt) {
  const FpClass ca = classify(a_bits, fmt);
  const FpClass cb = classify(b_bits, fmt);
  const bool neg = ((a_bits ^ b_bits) & fmt.sign_mask()) != 0;

  if (ca == FpClass::kNaN || cb == FpClass::kNaN) return make_nan(fmt);
  if (ca == FpClass::kInf || cb == FpClass::kInf) {
    if (ca == FpClass::kZero || cb == FpClass::kZero) return make_nan(fmt);
    return make_inf(neg, fmt);
  }
  if (ca == FpClass::kZero || cb == FpClass::kZero) {
    return neg ? fmt.sign_mask() : 0;
  }

  const Decomposed a = extract(a_bits, fmt).value;
  const Decomposed b = extract(b_bits, fmt).value;
  const auto ma = static_cast<unsigned __int128>(a.man < 0 ? -a.man : a.man);
  const auto mb = static_cast<unsigned __int128>(b.man < 0 ? -b.man : b.man);

  // value = ma*mb * 2^(ea + eb - bias - man_bits   - bias - man_bits),
  // i.e. assemble-invariant exponent = ea + eb - bias - man_bits.
  unsigned __int128 p = ma * mb;
  std::int64_t exp = std::int64_t{a.exp} + b.exp - fmt.bias() - fmt.man_bits;

  // Reduce the product into 62 bits, folding dropped bits into a sticky
  // LSB so assemble()'s round-to-nearest stays correct.
  bool sticky = false;
  while (p >= (static_cast<unsigned __int128>(1) << 62)) {
    sticky = sticky || (p & 1);
    p >>= 1;
    ++exp;
  }
  auto man = static_cast<std::int64_t>(p);
  if (sticky) man |= 1;
  if (neg) man = -man;

  // Exponent may exceed int32 bounds only for absurd formats; clamp safely.
  const auto exp32 = static_cast<std::int32_t>(
      std::clamp<std::int64_t>(exp, INT32_MIN / 2, INT32_MAX / 2));
  const AssembleResult r =
      assemble(exp32, man, fmt, /*guard_bits=*/0, Rounding::kNearestEven);
  return r.bits;
}

std::uint64_t host_reciprocal(std::uint64_t b_bits, const FloatFormat& fmt) {
  const double v = decode(b_bits, fmt);
  return encode(1.0 / v, fmt);
}

std::uint64_t fpisa_divide_via_reciprocal(std::uint64_t a_bits,
                                          std::uint64_t b_bits,
                                          const FloatFormat& fmt) {
  return fpisa_multiply(a_bits, host_reciprocal(b_bits, fmt), fmt);
}

Log2Table::Log2Table(const FloatFormat& fmt, int index_bits)
    : fmt_(fmt), index_bits_(std::min(index_bits, fmt.man_bits)) {
  const std::size_t n = std::size_t{1} << index_bits_;
  table_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    // Midpoint of the fraction interval the entry covers.
    const double x = 1.0 + (static_cast<double>(i) + 0.5) /
                               static_cast<double>(n);
    table_[i] = static_cast<std::int32_t>(std::lrint(std::log2(x) * 65536.0));
  }
}

std::int64_t Log2Table::log2_q16(std::uint64_t bits) const {
  const FpClass c = classify(bits, fmt_);
  if ((c != FpClass::kNormal && c != FpClass::kSubnormal) ||
      (bits & fmt_.sign_mask()) != 0) {
    throw std::invalid_argument(
        "Log2Table::log2_q16: input must be positive and finite");
  }
  Decomposed d = extract(bits, fmt_).value;
  auto mag = static_cast<std::uint64_t>(d.man);
  normalize(d.exp, mag, fmt_);
  const std::uint64_t frac = mag & fmt_.man_mask();
  const auto idx = static_cast<std::size_t>(
      frac >> (fmt_.man_bits - index_bits_));
  return (static_cast<std::int64_t>(d.exp) - fmt_.bias()) * 65536 +
         table_[idx];
}

SqrtTable::SqrtTable(const FloatFormat& fmt, int index_bits)
    : fmt_(fmt), index_bits_(std::min(index_bits, fmt.man_bits)) {
  const std::size_t n = std::size_t{1} << index_bits_;
  table_.resize(2 * n);
  for (int parity = 0; parity < 2; ++parity) {
    for (std::size_t i = 0; i < n; ++i) {
      const double x = (1.0 + (static_cast<double>(i) + 0.5) /
                                  static_cast<double>(n)) *
                       (parity ? 2.0 : 1.0);
      const double sig = std::sqrt(x) * std::ldexp(1.0, fmt.man_bits);
      table_[static_cast<std::size_t>(parity) * n + i] =
          static_cast<std::uint32_t>(std::lrint(sig));
    }
  }
}

std::uint64_t SqrtTable::sqrt(std::uint64_t bits) const {
  const FpClass c = classify(bits, fmt_);
  if (c == FpClass::kZero) return 0;
  if ((bits & fmt_.sign_mask()) != 0) return make_nan(fmt_);
  if (c == FpClass::kNaN) return make_nan(fmt_);
  if (c == FpClass::kInf) return make_inf(false, fmt_);

  Decomposed d = extract(bits, fmt_).value;
  auto mag = static_cast<std::uint64_t>(d.man);
  normalize(d.exp, mag, fmt_);

  const std::int32_t unbiased = d.exp - fmt_.bias();
  const int parity = ((unbiased % 2) + 2) % 2;
  const std::int32_t half = (unbiased - parity) / 2;

  const std::uint64_t frac = mag & fmt_.man_mask();
  const auto idx = static_cast<std::size_t>(
      frac >> (fmt_.man_bits - index_bits_));
  const std::uint64_t sig =
      table_[static_cast<std::size_t>(parity) * (table_.size() / 2) + idx];

  const std::int64_t e_out = std::int64_t{half} + fmt_.bias();
  if (e_out <= 0) return 0;  // deep subnormal: flush (outside table range)
  return (static_cast<std::uint64_t>(e_out) << fmt_.man_bits) |
         (sig & fmt_.man_mask());
}

TableMultiplier::TableMultiplier(const FloatFormat& fmt, int index_bits)
    : fmt_(fmt), index_bits_(std::min(index_bits, fmt.man_bits)) {
  const std::size_t n = std::size_t{1} << index_bits_;
  log_.resize(n);
  antilog_.resize(n + 1);
  for (std::size_t i = 0; i < n; ++i) {
    const double x =
        1.0 + (static_cast<double>(i) + 0.5) / static_cast<double>(n);
    log_[i] = static_cast<std::int32_t>(std::lrint(std::log2(x) * 65536.0));
  }
  for (std::size_t i = 0; i <= n; ++i) {
    const double l = static_cast<double>(i) / static_cast<double>(n);
    antilog_[i] = static_cast<std::uint32_t>(
        std::lrint(std::exp2(l) * std::ldexp(1.0, fmt.man_bits)));
  }
}

std::uint64_t TableMultiplier::multiply(std::uint64_t a_bits,
                                        std::uint64_t b_bits) const {
  const FpClass ca = classify(a_bits, fmt_);
  const FpClass cb = classify(b_bits, fmt_);
  const bool neg = ((a_bits ^ b_bits) & fmt_.sign_mask()) != 0;
  if (ca == FpClass::kNaN || cb == FpClass::kNaN) return make_nan(fmt_);
  if (ca == FpClass::kInf || cb == FpClass::kInf) {
    if (ca == FpClass::kZero || cb == FpClass::kZero) return make_nan(fmt_);
    return make_inf(neg, fmt_);
  }
  if (ca == FpClass::kZero || cb == FpClass::kZero) {
    return neg ? fmt_.sign_mask() : 0;
  }

  auto sig_log = [&](std::uint64_t bits, std::int32_t& exp) {
    Decomposed d = extract(bits, fmt_).value;
    auto mag = static_cast<std::uint64_t>(d.man < 0 ? -d.man : d.man);
    normalize(d.exp, mag, fmt_);
    exp = d.exp;
    const std::uint64_t frac = mag & fmt_.man_mask();
    return log_[static_cast<std::size_t>(
        frac >> (fmt_.man_bits - index_bits_))];
  };

  std::int32_t ea = 0;
  std::int32_t eb = 0;
  const std::int64_t l = std::int64_t{sig_log(a_bits, ea)} + sig_log(b_bits, eb);
  std::int64_t exp = std::int64_t{ea} + eb - fmt_.bias();
  std::int64_t lfrac = l;
  if (lfrac >= 65536) {
    lfrac -= 65536;
    ++exp;
  }
  // Antilog: significand for the fractional part.
  const auto n = static_cast<std::int64_t>(antilog_.size() - 1);
  const auto idx = static_cast<std::size_t>((lfrac * n + 32768) / 65536);
  std::uint64_t sig = antilog_[idx];
  if (sig >= (std::uint64_t{1} << (fmt_.man_bits + 1))) {
    sig >>= 1;  // antilog table's last entry is exactly 2.0
    ++exp;
  }

  if (exp >= fmt_.max_biased_exp()) return make_inf(neg, fmt_);
  if (exp <= 0) {
    // Subnormal range: shift the significand down.
    const int shift = static_cast<int>(1 - exp);
    const std::uint64_t frac = shift >= 64 ? 0 : sig >> shift;
    return (neg ? fmt_.sign_mask() : 0) | frac;
  }
  return (neg ? fmt_.sign_mask() : 0) |
         (static_cast<std::uint64_t>(exp) << fmt_.man_bits) |
         (sig & fmt_.man_mask());
}

}  // namespace fpisa::core
