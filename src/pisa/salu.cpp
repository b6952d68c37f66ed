#include "pisa/salu.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

namespace fpisa::pisa {
namespace {

std::int64_t ashr(std::int64_t v, std::int64_t d) {
  if (d >= 64) return v < 0 ? -1 : 0;
  if (d <= 0) return v;
  return v >> d;
}

std::uint64_t width_mask(int width_bits) {
  return width_bits >= 64 ? ~std::uint64_t{0}
                          : (std::uint64_t{1} << width_bits) - 1;
}

}  // namespace

RegisterArray::RegisterArray(std::string name, int width_bits,
                             std::size_t size)
    : name_(std::move(name)),
      width_bits_(width_bits),
      size_(size),
      mask_(width_mask(width_bits)),
      sign_bit_(std::uint64_t{1} << (width_bits - 1)),
      owned_(size, 0),
      cells64_(owned_.data()) {}

RegisterArray::RegisterArray(std::string name, int width_bits,
                             std::size_t size, std::int32_t* cells,
                             std::size_t stride, Extend extend)
    : name_(std::move(name)),
      width_bits_(width_bits),
      size_(size),
      mask_(width_mask(width_bits)),
      sign_bit_(std::uint64_t{1} << (width_bits - 1)),
      cells32_(cells),
      stride_(stride),
      extend_(extend) {
  assert(width_bits <= (extend == Extend::kSign ? 32 : 31) &&
         "value does not fit a 32-bit cell");
}

RegisterArray::RegisterArray(std::string name, int width_bits,
                             std::size_t size, std::int64_t* cells,
                             std::size_t stride, Extend extend)
    : name_(std::move(name)),
      width_bits_(width_bits),
      size_(size),
      mask_(width_mask(width_bits)),
      sign_bit_(std::uint64_t{1} << (width_bits - 1)),
      cells64_(cells),
      stride_(stride),
      extend_(extend) {}

bool RegisterArray::mark_access() {
  if (accessed_this_packet_) return false;
  accessed_this_packet_ = true;
  return true;
}

void apply_salu(const SaluSpec& spec, RegisterArray& reg, Phv& phv,
                bool rsaw_extension) {
  const auto i = static_cast<std::size_t>(phv.get(spec.index));
  if (i >= reg.size()) {
    throw std::out_of_range("salu: index " + std::to_string(i) +
                            " past the end of register '" + reg.name() + "'");
  }
  if (!reg.mark_access()) {
    throw std::invalid_argument("salu: register '" + reg.name() +
                                "' accessed twice in one packet traversal");
  }
  const std::int64_t old_signed = reg.read_signed(i);
  const std::uint64_t old_raw = reg.read(i);
  const std::int64_t x =
      spec.x.valid() ? phv.get_signed(spec.x) : std::int64_t{0};

  std::uint64_t out = 0;
  switch (spec.kind) {
    case SaluKind::kReadOnly:
      out = old_raw;
      break;
    case SaluKind::kWriteX:
      reg.write(i, static_cast<std::uint64_t>(x));
      out = old_raw;
      break;
    case SaluKind::kAddX:
      reg.write(i, static_cast<std::uint64_t>(old_signed + x));
      out = reg.read(i);
      break;
    case SaluKind::kOrX:
      reg.write(i, old_raw | static_cast<std::uint64_t>(x));
      out = old_raw;  // old value: lets the pipeline detect retransmissions
      break;
    case SaluKind::kIncrement:
      reg.write(i, old_raw + 1);
      out = reg.read(i);
      break;
    case SaluKind::kMaxX:
      reg.write(i, static_cast<std::uint64_t>(std::max(old_signed, x)));
      out = old_raw;
      break;
    case SaluKind::kMinX:
      reg.write(i, static_cast<std::uint64_t>(std::min(old_signed, x)));
      out = old_raw;
      break;
    case SaluKind::kClear:
      reg.write(i, 0);
      out = old_raw;
      break;
    case SaluKind::kExpUpdate: {
      // Exponents are stored unsigned (biased); compare unsigned.
      const auto xin = static_cast<std::uint64_t>(x);
      if (xin > old_raw + static_cast<std::uint64_t>(spec.imm)) {
        reg.write(i, xin);
      }
      out = old_raw;
      break;
    }
    case SaluKind::kManUpdate: {
      const std::uint64_t code = phv.get(spec.code);
      if (code == 1) {  // overwrite
        reg.write(i, static_cast<std::uint64_t>(x));
      } else if (code == 2) {  // RSAW: read-shift-add-write
        if (!rsaw_extension) {
          throw std::invalid_argument(
              "apply_salu: RSAW mantissa update on a switch without the "
              "RSAW extension");
        }
        const std::int64_t d =
            spec.distance.valid()
                ? static_cast<std::int64_t>(phv.get(spec.distance))
                : 0;
        reg.write(i, static_cast<std::uint64_t>(ashr(old_signed, d) + x));
      } else {  // plain add
        reg.write(i, static_cast<std::uint64_t>(old_signed + x));
      }
      out = reg.read(i);
      break;
    }
  }
  if (spec.out.valid()) phv.set(spec.out, out);
}

}  // namespace fpisa::pisa
