#include "pisa/action.h"

#include <algorithm>

namespace fpisa::pisa {
namespace {

std::uint64_t mask_bits(std::int64_t n) {
  if (n >= 64) return ~std::uint64_t{0};
  if (n <= 0) return 0;
  return (std::uint64_t{1} << n) - 1;
}

/// Logical right shift within the source field's width.
std::uint64_t lshr(std::uint64_t v, std::int64_t d) {
  if (d >= 64) return 0;
  if (d <= 0) return v;
  return v >> d;
}

std::int64_t ashr(std::int64_t v, std::int64_t d) {
  if (d >= 64) return v < 0 ? -1 : 0;
  if (d <= 0) return v;
  return v >> d;
}

std::uint64_t lshl(std::uint64_t v, std::int64_t d) {
  if (d >= 64) return 0;
  if (d <= 0) return v;
  return v << d;
}

}  // namespace

bool requires_shift_extension(OpCode op) {
  return op == OpCode::kShlField || op == OpCode::kShrField ||
         op == OpCode::kAsrField;
}

void apply_action(const Action& action, Phv& phv) {
  for (const PrimOp& p : action.ops) {
    std::uint64_t r = 0;
    switch (p.op) {
      case OpCode::kSetImm:
        r = static_cast<std::uint64_t>(p.imm);
        break;
      case OpCode::kMove:
        r = phv.get(p.src1);
        break;
      case OpCode::kAdd:
        r = phv.get(p.src1) + phv.get(p.src2);
        break;
      case OpCode::kAddImm:
        r = phv.get(p.src1) + static_cast<std::uint64_t>(p.imm);
        break;
      case OpCode::kSub:
        r = phv.get(p.src1) - phv.get(p.src2);
        break;
      case OpCode::kSubImm:
        r = phv.get(p.src1) - static_cast<std::uint64_t>(p.imm);
        break;
      case OpCode::kAnd:
        r = phv.get(p.src1) & phv.get(p.src2);
        break;
      case OpCode::kAndImm:
        r = phv.get(p.src1) & static_cast<std::uint64_t>(p.imm);
        break;
      case OpCode::kOr:
        r = phv.get(p.src1) | phv.get(p.src2);
        break;
      case OpCode::kOrImm:
        r = phv.get(p.src1) | static_cast<std::uint64_t>(p.imm);
        break;
      case OpCode::kXor:
        r = phv.get(p.src1) ^ phv.get(p.src2);
        break;
      case OpCode::kNeg:
        r = ~phv.get(p.src1) + 1;
        break;
      case OpCode::kShlImm:
        r = lshl(phv.get(p.src1), p.imm);
        break;
      case OpCode::kShrImm:
        r = lshr(phv.get(p.src1), p.imm);
        break;
      case OpCode::kAsrImm:
        r = static_cast<std::uint64_t>(ashr(phv.get_signed(p.src1), p.imm));
        break;
      case OpCode::kExtractBits:
        r = lshr(phv.get(p.src1), p.imm) & mask_bits(p.imm2);
        break;
      case OpCode::kDeposit:
        r = phv.get(p.dst) | lshl(phv.get(p.src1) & mask_bits(p.imm2), p.imm);
        break;
      case OpCode::kMin:
        r = static_cast<std::uint64_t>(
            std::min(phv.get_signed(p.src1), phv.get_signed(p.src2)));
        break;
      case OpCode::kMax:
        r = static_cast<std::uint64_t>(
            std::max(phv.get_signed(p.src1), phv.get_signed(p.src2)));
        break;
      case OpCode::kMinImm:
        r = static_cast<std::uint64_t>(std::min(phv.get_signed(p.src1), p.imm));
        break;
      case OpCode::kMaxImm:
        r = static_cast<std::uint64_t>(std::max(phv.get_signed(p.src1), p.imm));
        break;
      case OpCode::kShlField:
        r = lshl(phv.get(p.src1), static_cast<std::int64_t>(phv.get(p.src2)));
        break;
      case OpCode::kShrField:
        r = lshr(phv.get(p.src1), static_cast<std::int64_t>(phv.get(p.src2)));
        break;
      case OpCode::kAsrField:
        r = static_cast<std::uint64_t>(
            ashr(phv.get_signed(p.src1),
                 static_cast<std::int64_t>(phv.get(p.src2))));
        break;
    }
    phv.set(p.dst, r);
  }
}

}  // namespace fpisa::pisa
