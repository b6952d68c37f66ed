// Stateful register arrays and stateful ALUs.
//
// PISA constraint (paper §2.3): "registers are associated with specific
// pipeline stages, and can only be accessed from that stage... each
// register can only be accessed once per packet". RegisterArray enforces
// the once-per-packet rule; MauStage enforces stage binding.
//
// The StatefulAlu offers a menu of hardware-plausible atomic programs
// (Tofino's stateful ALU is a predicated read-modify-write engine).
// kExpUpdate/kManUpdate encode the FPISA exponent and mantissa stage
// programs of Fig 2; kManUpdate's RSAW case (atomic read-shift-add-write,
// §4.2) is only legal when the switch config enables that extension.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "pisa/phv.h"

namespace fpisa::pisa {

/// Stateful register array (SRAM-backed). Values are stored masked to
/// `width_bits`; signed reads sign-extend.
///
/// An array either owns its cells or is a strided view onto storage owned
/// by its switch (SwitchSim::bank): element i then lives at
/// cells[i * stride]. Views let a compiled fast path run the core lane
/// kernels on the very cells the interpreter reads and writes, so the
/// switch keeps exactly one copy of its register state.
class RegisterArray {
 public:
  /// How a view's cells hold a value: zero-extended from the register
  /// width (an unsigned field such as a biased exponent) or sign-extended
  /// (a two's-complement mantissa), i.e. the form the kernels sharing the
  /// cells read. Owning arrays zero-extend.
  enum class Extend : std::uint8_t { kZero, kSign };

  /// An array that owns `size` zeroed cells.
  RegisterArray(std::string name, int width_bits, std::size_t size);
  /// Strided views; `cells` must outlive the array. 32-bit cells need
  /// width_bits <= 31 zero-extended or <= 32 sign-extended.
  RegisterArray(std::string name, int width_bits, std::size_t size,
                std::int32_t* cells, std::size_t stride, Extend extend);
  RegisterArray(std::string name, int width_bits, std::size_t size,
                std::int64_t* cells, std::size_t stride, Extend extend);
  RegisterArray(const RegisterArray&) = delete;
  RegisterArray& operator=(const RegisterArray&) = delete;

  std::uint64_t read(std::size_t i) const {
    return static_cast<std::uint64_t>(load(i)) & mask_;
  }
  std::int64_t read_signed(std::size_t i) const {
    return static_cast<std::int64_t>((read(i) ^ sign_bit_) - sign_bit_);
  }
  void write(std::size_t i, std::uint64_t v) {
    v &= mask_;
    store(i, extend_ == Extend::kSign
                 ? static_cast<std::int64_t>((v ^ sign_bit_) - sign_bit_)
                 : static_cast<std::int64_t>(v));
  }
  /// Zeroes every element (control-plane bulk reset).
  void clear() {
    for (std::size_t i = 0; i < size_; ++i) store(i, 0);
  }

  std::size_t size() const { return size_; }
  int width_bits() const { return width_bits_; }
  const std::string& name() const { return name_; }

  /// Once-per-packet access guard (enforced by apply_salu).
  void begin_packet() { accessed_this_packet_ = false; }
  bool mark_access();

 private:
  std::int64_t load(std::size_t i) const {
    return cells32_ ? cells32_[i * stride_] : cells64_[i * stride_];
  }
  void store(std::size_t i, std::int64_t v) {
    if (cells32_) {
      cells32_[i * stride_] = static_cast<std::int32_t>(v);
    } else {
      cells64_[i * stride_] = v;
    }
  }

  std::string name_;
  int width_bits_;
  std::size_t size_;
  std::uint64_t mask_;
  std::uint64_t sign_bit_;
  std::vector<std::int64_t> owned_;  ///< cells of an owning array
  std::int32_t* cells32_ = nullptr;
  std::int64_t* cells64_ = nullptr;
  std::size_t stride_ = 1;
  Extend extend_ = Extend::kZero;
  bool accessed_this_packet_ = false;
};

/// The atomic programs the stateful ALU can run.
enum class SaluKind {
  kReadOnly,   ///< out = reg
  kWriteX,     ///< out = reg (old); reg = x
  kAddX,       ///< reg += x (wraps at width); out = new value
  kOrX,        ///< reg |= x; out = OLD value (worker-bitmap dedup)
  kIncrement,  ///< reg += 1; out = new value (completion counters)
  kMaxX,       ///< reg = max_signed(reg, x); out = old value
  kMinX,       ///< reg = min_signed(reg, x); out = old value
  kClear,      ///< out = reg (old); reg = 0
  /// FPISA exponent stage (Fig 2 MAU2): out = old reg.
  ///   full variant:       if (x > reg) reg = x
  ///   FPISA-A variant:    if (x > reg + headroom) reg = x   (overwrite)
  kExpUpdate,
  /// FPISA mantissa stage (Fig 2 MAU4), driven by a code field:
  ///   code 0 (add):        reg += x
  ///   code 1 (overwrite):  reg = x
  ///   code 2 (rsaw):       reg = asr(reg, d) + x   [RSAW extension, §4.2]
  /// out = new value.
  kManUpdate,
};

struct SaluSpec {
  SaluKind kind = SaluKind::kReadOnly;
  FieldId index;     ///< which register element to touch
  FieldId x;         ///< data input
  FieldId code;      ///< kManUpdate: branch code
  FieldId distance;  ///< kManUpdate: RSAW shift distance
  FieldId out;       ///< result destination (invalid = discard)
  std::int64_t imm = 0;  ///< kExpUpdate: headroom for the FPISA-A predicate
};

/// Executes one stateful ALU invocation. In every build, an index past the
/// register's end throws std::out_of_range before any access, a second
/// access to `reg` in one packet traversal (since its begin_packet) throws
/// std::invalid_argument naming the register, and without `rsaw_extension`
/// the kManUpdate code-2 path throws std::invalid_argument.
void apply_salu(const SaluSpec& spec, RegisterArray& reg, Phv& phv,
                bool rsaw_extension);

}  // namespace fpisa::pisa
