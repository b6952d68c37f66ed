// Action VLIW primitives. Each primitive occupies one VLIW instruction slot
// in its stage (the resource Appendix B / Table 3 shows is FPISA's
// bottleneck). The baseline instruction set has only *immediate* shift
// distances; kShlField/kShrField/kAsrField model the paper's proposed
// 2-operand shift instruction (§4.2); SwitchSim refuses to load a program
// that uses them unless the switch config enables the extension.
//
// Semantics: the primitives of one action execute in order. Real Tofino
// VLIW bundles are parallel, but chains are expressible there by spending
// extra PHV containers and slots — which is exactly what our resource
// accounting charges (one slot per primitive), so the cost model matches
// even where the execution model is simplified.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "pisa/phv.h"

namespace fpisa::pisa {

enum class OpCode {
  kSetImm,       ///< dst = imm
  kMove,         ///< dst = src1
  kAdd,          ///< dst = src1 + src2 (wraps at dst width)
  kAddImm,       ///< dst = src1 + imm
  kSub,          ///< dst = src1 - src2
  kSubImm,       ///< dst = src1 - imm
  kAnd,          ///< dst = src1 & src2
  kAndImm,       ///< dst = src1 & imm
  kOr,           ///< dst = src1 | src2
  kOrImm,        ///< dst = src1 | imm
  kXor,          ///< dst = src1 ^ src2
  kNeg,          ///< dst = -src1 (two's complement at dst width)
  kShlImm,       ///< dst = src1 << imm
  kShrImm,       ///< dst = src1 >> imm (logical, at src width)
  kAsrImm,       ///< dst = src1 >> imm (arithmetic, at src width)
  kExtractBits,  ///< dst = (src1 >> imm) & ((1 << imm2) - 1)
  kDeposit,      ///< dst |= (src1 & ((1 << imm2) - 1)) << imm
  kMin,          ///< dst = min_signed(src1, src2)
  kMax,          ///< dst = max_signed(src1, src2)
  kMinImm,       ///< dst = min_signed(src1, imm)
  kMaxImm,       ///< dst = max_signed(src1, imm)
  kShlField,     ///< dst = src1 << src2   [2-operand shift extension, §4.2]
  kShrField,     ///< dst = src1 >> src2 logical [extension]
  kAsrField,     ///< dst = src1 >> src2 arithmetic [extension]
};

/// True for the opcodes added by the §4.2 hardware proposal.
bool requires_shift_extension(OpCode op);

struct PrimOp {
  OpCode op{};
  FieldId dst{};
  FieldId src1{};
  FieldId src2{};
  std::int64_t imm = 0;
  std::int64_t imm2 = 0;
};

/// One match-table action: a bundle of primitives, costing one VLIW slot
/// per primitive in the stage that hosts the table.
struct Action {
  std::string name;
  std::vector<PrimOp> ops;
};

/// Executes a bundle against a PHV (used by MauStage). Extension opcodes
/// are gated when a program loads, not here.
void apply_action(const Action& action, Phv& phv);

}  // namespace fpisa::pisa
