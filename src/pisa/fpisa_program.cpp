#include "pisa/fpisa_program.h"

#include <algorithm>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>

#include "core/batch_accumulator.h"
#include "core/clz_table.h"
#include "core/float_format.h"
#include "util/ordered_mutex.h"

namespace fpisa::pisa {
namespace {

constexpr std::uint64_t kOpcodeAdd = static_cast<std::uint64_t>(FpisaOp::kAdd);
constexpr std::uint64_t kOpcodeRead = static_cast<std::uint64_t>(FpisaOp::kRead);
constexpr std::uint64_t kOpcodeReset =
    static_cast<std::uint64_t>(FpisaOp::kReset);

/// FP32 constants the program hardcodes (the builder is format-specialized
/// the way a P4 program would be; other formats re-run the builder with
/// different constants in future work).
constexpr int kManBits = 23;
constexpr std::int64_t kImpliedOne = std::int64_t{1} << kManBits;

/// MAU0-4 in ingress, MAU5-8 in egress (file comment of the header).
constexpr int kFpisaIngressStages = 5;
constexpr int kFpisaEgressStages = 4;

int headroom_fp32() { return core::kFp32.headroom(32); }  // 7

/// Per-lane PHV field bundle.
struct LaneFields {
  FieldId val, exp_in, sign, exp_eff, man, d, code, dist;
  FieldId r_exp, r_exp2, r_man, sign2, uman, delta, e_norm, result;
};

struct SharedFields {
  FieldId opcode, slot, worker, wbit, bitmap_old, bitmap_new, count;
  FieldId dup_raw, dup;
};

LaneFields declare_lane(PhvLayout& phv, int lane) {
  // The separator keeps names unique at any width ("r_exp" of lane 20 vs
  // "r_exp2" of lane 0).
  const std::string s = "_" + std::to_string(lane);
  LaneFields f;
  f.val = phv.declare("val" + s, 32);
  f.exp_in = phv.declare("exp_in" + s, 8);
  f.sign = phv.declare("sign" + s, 8);
  f.exp_eff = phv.declare("exp_eff" + s, 16);
  f.man = phv.declare("man" + s, 32);
  f.d = phv.declare("d" + s, 16);
  f.code = phv.declare("code" + s, 8);
  f.dist = phv.declare("dist" + s, 8);
  f.r_exp = phv.declare("r_exp" + s, 16);
  f.r_exp2 = phv.declare("r_exp2" + s, 16);
  f.r_man = phv.declare("r_man" + s, 32);
  f.sign2 = phv.declare("sign2" + s, 8);
  f.uman = phv.declare("uman" + s, 32);
  f.delta = phv.declare("delta" + s, 16);
  f.e_norm = phv.declare("e_norm" + s, 16);
  f.result = phv.declare("result" + s, 32);
  return f;
}

PrimOp op_imm(OpCode op, FieldId dst, std::int64_t imm) {
  PrimOp p;
  p.op = op;
  p.dst = dst;
  p.imm = imm;
  return p;
}
PrimOp op1(OpCode op, FieldId dst, FieldId src, std::int64_t imm = 0,
           std::int64_t imm2 = 0) {
  PrimOp p;
  p.op = op;
  p.dst = dst;
  p.src1 = src;
  p.imm = imm;
  p.imm2 = imm2;
  return p;
}
PrimOp op2(OpCode op, FieldId dst, FieldId a, FieldId b) {
  PrimOp p;
  p.op = op;
  p.dst = dst;
  p.src1 = a;
  p.src2 = b;
  return p;
}

}  // namespace

void make_fpisa_packet_into(Packet& pkt, FpisaOp op, std::uint16_t slot,
                            std::uint8_t worker,
                            std::span<const std::uint32_t> values,
                            bool little_endian_payload, std::uint32_t stamp,
                            std::uint16_t checksum) {
  pkt.bytes.assign(kFpisaHeaderBytes + 4 * values.size(), 0);
  pkt.bytes[0] = static_cast<std::uint8_t>(op);
  write_be(&pkt.bytes[1], 2, slot);
  pkt.bytes[3] = worker;
  write_be(&pkt.bytes[10], 4, stamp);
  write_be(&pkt.bytes[14], 2, checksum);
  for (std::size_t i = 0; i < values.size(); ++i) {
    std::uint64_t v = values[i];
    // A host that skips htonl() leaves the value in little-endian order on
    // the wire; writing the byte-swapped value big-endian models that.
    if (little_endian_payload) v = byteswap(v, 4);
    write_be(&pkt.bytes[kFpisaHeaderBytes + 4 * i], 4, v);
  }
}

void parse_fpisa_result_into(const Packet& pkt, int lanes, FpisaResult& r,
                             bool little_endian_payload) {
  r.bitmap = static_cast<std::uint32_t>(read_be(&pkt.bytes[4], 4));
  r.count = static_cast<std::uint16_t>(read_be(&pkt.bytes[8], 2));
  r.values.resize(static_cast<std::size_t>(lanes));
  for (int i = 0; i < lanes; ++i) {
    std::uint64_t v = read_be(&pkt.bytes[kFpisaHeaderBytes + 4 * i], 4);
    if (little_endian_payload) v = byteswap(v, 4);
    r.values[static_cast<std::size_t>(i)] = static_cast<std::uint32_t>(v);
  }
}

namespace {

/// Every PHV field of the program, declared into `phv` in one fixed order,
/// so the layout and the stages built from a scratch layout agree on ids.
struct FpisaFields {
  SharedFields sh;
  std::vector<LaneFields> lanes;
};

FpisaFields declare_fields(PhvLayout& phv, int lanes) {
  FpisaFields f;
  SharedFields& sh = f.sh;
  sh.opcode = phv.declare("opcode", 8);
  sh.slot = phv.declare("slot", 16);
  sh.worker = phv.declare("worker", 8);
  sh.wbit = phv.declare("wbit", 32);
  sh.bitmap_old = phv.declare("bitmap_old", 32);
  sh.bitmap_new = phv.declare("bitmap_new", 32);
  sh.count = phv.declare("count", 16);
  sh.dup_raw = phv.declare("dup_raw", 32);
  sh.dup = phv.declare("dup", 8);
  f.lanes.reserve(static_cast<std::size_t>(lanes));
  for (int l = 0; l < lanes; ++l) f.lanes.push_back(declare_lane(phv, l));
  return f;
}

/// Register indices: lane l's exponent and mantissa arrays are 2l and
/// 2l + 1 (the bank views), then the shared bitmap and counter.
int bitmap_register(int lanes) { return 2 * lanes; }
int count_register(int lanes) { return 2 * lanes + 1; }

/// The program's layout for one shape; its stages are built on demand.
SwitchProgram compile_fpisa_layout(const FpisaProgramOptions& opts) {
  SwitchProgram prog;
  const FpisaFields fields = declare_fields(prog.phv, opts.lanes);
  const SharedFields& sh = fields.sh;
  const std::vector<LaneFields>& lanes = fields.lanes;

  // Parser / deparser bindings.
  prog.parser.push_back({sh.opcode, 0, 1, false});
  prog.parser.push_back({sh.slot, 1, 2, false});
  prog.parser.push_back({sh.worker, 3, 1, false});
  for (int l = 0; l < opts.lanes; ++l) {
    prog.parser.push_back({lanes[static_cast<std::size_t>(l)].val,
                           kFpisaHeaderBytes + 4 * l, 4,
                           opts.convert_endianness});
    prog.deparser.push_back({lanes[static_cast<std::size_t>(l)].result,
                             kFpisaHeaderBytes + 4 * l, 4,
                             opts.convert_endianness});
  }
  prog.deparser.push_back({sh.bitmap_new, 4, 4, false});
  prog.deparser.push_back({sh.count, 8, 2, false});

  // Registers: per-lane exponent + mantissa arrays (strided views onto one
  // slot-major bank, so a packet's lanes are adjacent), shared
  // bitmap/counter.
  prog.add_bank_registers("exp_arr", 8, "man_arr", 32, opts.lanes,
                          opts.slots);
  prog.add_register("bitmap", 32, opts.slots);
  prog.add_register("count", 16, opts.slots);
  return prog;
}

/// The program's MAU stages for one shape (fpisa_stages memoizes them).
PipelineStages compile_fpisa_stages(const FpisaProgramOptions& opts) {
  PhvLayout scratch;
  const FpisaFields fields = declare_fields(scratch, opts.lanes);
  const SharedFields& sh = fields.sh;
  const std::vector<LaneFields>& lanes = fields.lanes;
  struct LaneRegs {
    int exp, man;
  };
  std::vector<LaneRegs> regs;
  for (int l = 0; l < opts.lanes; ++l) regs.push_back({2 * l, 2 * l + 1});
  const int bitmap_reg = bitmap_register(opts.lanes);
  const int count_reg = count_register(opts.lanes);

  PipelineStages prog;
  prog.ingress.resize(kFpisaIngressStages);
  prog.egress.resize(kFpisaEgressStages);

  // --- MAU0: extract -------------------------------------------------------
  {
    StageProgram& st = prog.ingress[0];
    Action extract{"extract", {}};
    for (const auto& f : lanes) {
      extract.ops.push_back(op1(OpCode::kExtractBits, f.sign, f.val, 31, 1));
      extract.ops.push_back(op1(OpCode::kExtractBits, f.exp_in, f.val, 23, 8));
      extract.ops.push_back(op1(OpCode::kExtractBits, f.man, f.val, 0, 23));
    }
    MatchTable t("extract", MatchKind::kExact, {}, {extract}, 0);
    st.tables.push_back(std::move(t));

    // Worker bitmap mask: exact table worker -> (1 << worker).
    std::vector<Action> mask_actions;
    for (int w = 0; w < 32; ++w) {
      mask_actions.push_back(
          {"w" + std::to_string(w),
           {op_imm(OpCode::kSetImm, sh.wbit, std::int64_t{1} << w)}});
    }
    MatchTable wm("worker_mask", MatchKind::kExact, {sh.worker}, mask_actions);
    for (int w = 0; w < 32; ++w) {
      wm.add_entry({{static_cast<std::uint64_t>(w)}, {}, w});
    }
    st.tables.push_back(std::move(wm));
  }

  // --- MAU1: implied 1 + sign fold ----------------------------------------
  {
    StageProgram& st = prog.ingress[1];
    for (const auto& f : lanes) {
      // Subnormal (exp field 0): keep the raw fraction, effective exp 1.
      Action subnormal{"subnormal", {op_imm(OpCode::kSetImm, f.exp_eff, 1)}};
      Action normal{"normal",
                    {op1(OpCode::kOrImm, f.man, f.man, kImpliedOne),
                     op1(OpCode::kMove, f.exp_eff, f.exp_in)}};
      MatchTable t("implied1", MatchKind::kExact, {f.exp_in},
                   {subnormal, normal}, 1);
      t.add_entry({{0}, {}, 0});
      st.tables.push_back(std::move(t));

      Action negate{"negate", {op1(OpCode::kNeg, f.man, f.man)}};
      Action keep{"keep", {}};
      MatchTable s("sign_fold", MatchKind::kExact, {f.sign}, {negate, keep}, 1);
      s.add_entry({{1}, {}, 0});
      st.tables.push_back(std::move(s));
    }
    // Shared worker bitmap: OR in this worker's bit; the OLD value exposes
    // retransmissions (SwitchML-style dedup) which gate the later stages.
    SaluSpec bm_add{SaluKind::kOrX, sh.slot, sh.wbit, {}, {}, sh.bitmap_old, 0};
    st.salus.push_back({sh.opcode, kOpcodeAdd, bm_add, bitmap_reg, {}, 0});
    st.salu_post_ops.push_back(
        {"dup_detect",
         {op2(OpCode::kAnd, sh.dup_raw, sh.bitmap_old, sh.wbit),
          op2(OpCode::kOr, sh.bitmap_new, sh.bitmap_old, sh.wbit)}});
    SaluSpec bm_read{SaluKind::kReadOnly, sh.slot, {}, {}, {}, sh.bitmap_old, 0};
    st.salus.push_back({sh.opcode, kOpcodeRead, bm_read, bitmap_reg, {}, 0});
    st.salu_post_ops.push_back(
        {"", {op1(OpCode::kMove, sh.bitmap_new, sh.bitmap_old)}});
    SaluSpec bm_rst{SaluKind::kClear, sh.slot, {}, {}, {}, sh.bitmap_old, 0};
    st.salus.push_back({sh.opcode, kOpcodeReset, bm_rst, bitmap_reg, {}, 0});
    st.salu_post_ops.push_back(
        {"", {op1(OpCode::kMove, sh.bitmap_new, sh.bitmap_old)}});
  }

  // --- MAU2: exponent register (+ shared worker bitmap) --------------------
  {
    StageProgram& st = prog.ingress[2];
    // Gateway: boolean dup flag from the bitmap-AND result.
    {
      Action fresh{"fresh", {op_imm(OpCode::kSetImm, sh.dup, 0)}};
      Action retransmit{"retransmit", {op_imm(OpCode::kSetImm, sh.dup, 1)}};
      MatchTable g("dup_gate", MatchKind::kTernary, {sh.dup_raw},
                   {fresh, retransmit}, 1);
      g.add_entry({{0}, {0xFFFFFFFFULL}, 0});
      st.tables.push_back(std::move(g));
    }
    const std::int64_t headroom_imm =
        opts.variant == core::Variant::kApproximate ? headroom_fp32() : 0;
    for (std::size_t l = 0; l < lanes.size(); ++l) {
      const LaneFields& f = lanes[l];
      // Add: conditional exponent update; emits the OLD exponent and then
      // computes the clamped signed exponent difference d.
      SaluSpec add_spec;
      add_spec.kind = SaluKind::kExpUpdate;
      add_spec.index = sh.slot;
      add_spec.x = f.exp_eff;
      add_spec.out = f.r_exp;
      add_spec.imm = headroom_imm;
      st.salus.push_back({sh.opcode, kOpcodeAdd, add_spec, regs[l].exp,
                          sh.dup, 0});
      st.salu_post_ops.push_back(
          {"exp_diff",
           {op2(OpCode::kSub, f.d, f.exp_eff, f.r_exp),
            op1(OpCode::kMinImm, f.d, f.d, 32),
            op1(OpCode::kMaxImm, f.d, f.d, -32)}});

      SaluSpec read_spec;
      read_spec.kind = SaluKind::kReadOnly;
      read_spec.index = sh.slot;
      read_spec.out = f.r_exp;
      // Retransmitted adds fall back to a read (the aggregate is returned
      // but not modified — SwitchML's dedup semantics).
      st.salus.push_back({sh.opcode, kOpcodeAdd, read_spec, regs[l].exp,
                          sh.dup, 1});
      st.salu_post_ops.push_back({"", {}});
      st.salus.push_back({sh.opcode, kOpcodeRead, read_spec, regs[l].exp, {}, 0});
      st.salu_post_ops.push_back({"", {}});

      SaluSpec reset_spec;
      reset_spec.kind = SaluKind::kClear;
      reset_spec.index = sh.slot;
      reset_spec.out = f.r_exp;
      st.salus.push_back({sh.opcode, kOpcodeReset, reset_spec, regs[l].exp, {}, 0});
      st.salu_post_ops.push_back({"", {}});
    }
  }

  // --- MAU3: align ----------------------------------------------------------
  // Exact-match on the clamped exponent difference. On baseline hardware
  // every distance is its own fixed-shift VLIW instruction — the resource
  // bottleneck of Appendix B; with the 2-operand shift extension this whole
  // table collapses to a couple of instructions (§4.2). Functionally both
  // produce the same PHV, so the simulator uses the table form throughout.
  {
    StageProgram& st = prog.ingress[3];
    const int headroom = headroom_fp32();
    for (const auto& f : lanes) {
      std::vector<Action> actions;
      std::vector<TableEntry> entries;
      for (int dd = -32; dd <= 32; ++dd) {
        Action a{"d" + std::to_string(dd), {}};
        if (dd <= 0) {
          if (dd < 0) {
            a.ops.push_back(op1(OpCode::kAsrImm, f.man, f.man, -dd));
          }
          a.ops.push_back(op_imm(OpCode::kSetImm, f.code, 0));
          a.ops.push_back(op1(OpCode::kMove, f.r_exp2, f.r_exp));
        } else if (opts.variant == core::Variant::kApproximate) {
          if (dd <= headroom) {
            a.ops.push_back(op1(OpCode::kShlImm, f.man, f.man, dd));
            a.ops.push_back(op_imm(OpCode::kSetImm, f.code, 0));
            a.ops.push_back(op1(OpCode::kMove, f.r_exp2, f.r_exp));
          } else {
            a.ops.push_back(op_imm(OpCode::kSetImm, f.code, 1));  // overwrite
            a.ops.push_back(op1(OpCode::kMove, f.r_exp2, f.exp_eff));
          }
        } else {  // full FPISA: RSAW shifts the stored mantissa
          a.ops.push_back(op_imm(OpCode::kSetImm, f.code, 2));
          a.ops.push_back(op_imm(OpCode::kSetImm, f.dist, dd));
          a.ops.push_back(op1(OpCode::kMove, f.r_exp2, f.exp_eff));
        }
        actions.push_back(std::move(a));
        entries.push_back(
            {{static_cast<std::uint64_t>(dd) & 0xFFFF}, {},
             static_cast<int>(entries.size())});
      }
      MatchTable table("align", MatchKind::kExact, {f.d}, std::move(actions),
                       /*default: d==0 behaviour*/ 32);
      for (auto& e : entries) table.add_entry(std::move(e));
      st.tables.push_back(std::move(table));
    }
  }

  // --- MAU4: mantissa register (+ shared completion counter) ---------------
  {
    StageProgram& st = prog.ingress[4];
    for (std::size_t l = 0; l < lanes.size(); ++l) {
      const LaneFields& f = lanes[l];
      SaluSpec add_spec;
      add_spec.kind = SaluKind::kManUpdate;
      add_spec.index = sh.slot;
      add_spec.x = f.man;
      add_spec.code = f.code;
      add_spec.distance = f.dist;
      add_spec.out = f.r_man;
      st.salus.push_back({sh.opcode, kOpcodeAdd, add_spec, regs[l].man,
                          sh.dup, 0});
      st.salu_post_ops.push_back({"", {}});

      SaluSpec read_spec;
      read_spec.kind = SaluKind::kReadOnly;
      read_spec.index = sh.slot;
      read_spec.out = f.r_man;
      st.salus.push_back({sh.opcode, kOpcodeAdd, read_spec, regs[l].man,
                          sh.dup, 1});
      st.salu_post_ops.push_back({"", {}});
      st.salus.push_back({sh.opcode, kOpcodeRead, read_spec, regs[l].man, {}, 0});
      st.salu_post_ops.push_back({"", {}});

      SaluSpec reset_spec;
      reset_spec.kind = SaluKind::kClear;
      reset_spec.index = sh.slot;
      reset_spec.out = f.r_man;
      st.salus.push_back({sh.opcode, kOpcodeReset, reset_spec, regs[l].man, {}, 0});
      st.salu_post_ops.push_back({"", {}});
    }
    SaluSpec cnt_add{SaluKind::kIncrement, sh.slot, {}, {}, {}, sh.count, 0};
    st.salus.push_back({sh.opcode, kOpcodeAdd, cnt_add, count_reg, sh.dup, 0});
    st.salu_post_ops.push_back({"", {}});
    SaluSpec cnt_read{SaluKind::kReadOnly, sh.slot, {}, {}, {}, sh.count, 0};
    st.salus.push_back({sh.opcode, kOpcodeAdd, cnt_read, count_reg, sh.dup, 1});
    st.salu_post_ops.push_back({"", {}});
    st.salus.push_back({sh.opcode, kOpcodeRead, cnt_read, count_reg, {}, 0});
    st.salu_post_ops.push_back({"", {}});
    SaluSpec cnt_rst{SaluKind::kClear, sh.slot, {}, {}, {}, sh.count, 0};
    st.salus.push_back({sh.opcode, kOpcodeReset, cnt_rst, count_reg, {}, 0});
    st.salu_post_ops.push_back({"", {}});
  }

  // --- MAU5 (egress): two's complement -> sign + magnitude -----------------
  {
    StageProgram& st = prog.egress[0];
    for (const auto& f : lanes) {
      Action negative{"negative",
                      {op1(OpCode::kExtractBits, f.sign2, f.r_man, 31, 1),
                       op1(OpCode::kNeg, f.uman, f.r_man)}};
      Action positive{"positive",
                      {op_imm(OpCode::kSetImm, f.sign2, 0),
                       op1(OpCode::kMove, f.uman, f.r_man)}};
      MatchTable t("sign_split", MatchKind::kTernary, {f.r_man},
                   {negative, positive}, 1);
      t.add_entry({{0x80000000ULL}, {0x80000000ULL}, 0});
      st.tables.push_back(std::move(t));
    }
  }

  // --- MAU6 (egress): LPM count-leading-zeros + shift (Fig 5) --------------
  {
    StageProgram& st = prog.egress[1];
    const auto clz = core::build_clz_lpm_table(32, kManBits);
    for (const auto& f : lanes) {
      std::vector<Action> actions;
      std::vector<TableEntry> entries;
      for (const auto& e : clz) {
        Action a{"lz" + std::to_string(e.leading_zeros), {}};
        if (e.shift > 0) {
          a.ops.push_back(op1(OpCode::kShrImm, f.uman, f.uman, e.shift));
        } else if (e.shift < 0) {
          a.ops.push_back(op1(OpCode::kShlImm, f.uman, f.uman, -e.shift));
        }
        a.ops.push_back(op_imm(OpCode::kSetImm, f.delta,
                               static_cast<std::int64_t>(e.shift) & 0xFFFF));
        actions.push_back(std::move(a));
        if (e.prefix_len == 0) continue;  // default handled below
        const int drop = 32 - e.prefix_len;
        const std::uint64_t mask = (~std::uint64_t{0} << drop) & 0xFFFFFFFFULL;
        entries.push_back({{e.prefix_bits}, {mask},
                           static_cast<int>(actions.size()) - 1});
      }
      MatchTable t("clz_lpm", MatchKind::kLpm, {f.uman}, std::move(actions),
                   static_cast<int>(clz.size()) - 1);
      for (auto& e : entries) t.add_entry(std::move(e));
      st.tables.push_back(std::move(t));
    }
  }

  // --- MAU7 (egress): exponent adjust ---------------------------------------
  {
    StageProgram& st = prog.egress[2];
    Action adjust{"exp_adjust", {}};
    for (const auto& f : lanes) {
      adjust.ops.push_back(op2(OpCode::kAdd, f.e_norm, f.r_exp2, f.delta));
    }
    MatchTable t("exp_adjust", MatchKind::kExact, {}, {adjust}, 0);
    st.tables.push_back(std::move(t));
  }

  // --- MAU8 (egress): range handling + pack ---------------------------------
  {
    StageProgram& st = prog.egress[3];
    for (const auto& f : lanes) {
      Action zero{"zero", {op_imm(OpCode::kSetImm, f.result, 0)}};
      Action ftz{"flush_to_zero",
                 {op_imm(OpCode::kSetImm, f.result, 0),
                  op1(OpCode::kDeposit, f.result, f.sign2, 31, 1)}};
      Action inf{"overflow_inf",
                 {op_imm(OpCode::kSetImm, f.result, 0x7F800000LL),
                  op1(OpCode::kDeposit, f.result, f.sign2, 31, 1)}};
      Action pack{"pack",
                  {op_imm(OpCode::kSetImm, f.result, 0),
                   op1(OpCode::kDeposit, f.result, f.uman, 0, 23),
                   op1(OpCode::kDeposit, f.result, f.e_norm, 23, 8),
                   op1(OpCode::kDeposit, f.result, f.sign2, 31, 1)}};
      MatchTable t("finalize", MatchKind::kTernary, {f.uman, f.e_norm},
                   {zero, ftz, inf, pack}, 3);
      t.add_entry({{0, 0}, {0xFFFFFFFFULL, 0}, 0});      // mantissa == 0
      t.add_entry({{0, 0x8000}, {0, 0x8000}, 1});        // exponent < 0: FTZ
      t.add_entry({{0, 0}, {0, 0xFFFF}, 1});             // exponent == 0: FTZ
      for (int bit = 8; bit <= 14; ++bit) {              // exponent >= 256
        t.add_entry({{0, std::uint64_t{1} << bit}, {0, std::uint64_t{1} << bit},
                     2});
      }
      t.add_entry({{0, 255}, {0, 0xFFFF}, 2});           // exponent == 255
      st.tables.push_back(std::move(t));
    }
  }

  return prog;
}

/// Checks made in every build, before any program is built or looked up: a
/// packet carries at least one lane, its 16-bit slot field addresses every
/// slot, the pipe is deep enough for MAU0-8, and the switch provides the
/// extensions the program needs (the memo key holds no config, so a
/// program must never reach a switch that cannot run it). The stages are
/// built on demand, so the depth is checked here rather than by SwitchSim
/// at load time.
void check_fpisa_options(const SwitchConfig& config,
                         const FpisaProgramOptions& opts) {
  constexpr int kStages = kFpisaIngressStages + kFpisaEgressStages;
  if (config.num_stages < kStages) {
    throw std::invalid_argument(
        "fpisa switch: the program uses " + std::to_string(kStages) +
        " MAU stages; the pipe has " + std::to_string(config.num_stages));
  }
  if (opts.lanes < 1) {
    throw std::invalid_argument("fpisa switch: need at least one lane, got " +
                                std::to_string(opts.lanes));
  }
  constexpr std::size_t kMax = FpisaSwitch::kMaxSlots;
  if (opts.slots == 0 || opts.slots > kMax) {
    throw std::invalid_argument("fpisa switch: slots must be in [1, " +
                                std::to_string(kMax) + "], got " +
                                std::to_string(opts.slots));
  }
  if (opts.variant == core::Variant::kFull && !config.ext.rsaw) {
    throw std::invalid_argument(
        "fpisa switch: full FPISA needs the RSAW extension; use FPISA-A on "
        "a baseline switch");
  }
  if (opts.convert_endianness && !config.ext.parser_endianness) {
    throw std::invalid_argument(
        "fpisa switch: little-endian payloads need the parser-endianness "
        "extension");
  }
}

/// The options that determine the compiled program.
struct ProgramKey {
  core::Variant variant;
  int lanes;
  std::size_t slots;
  bool convert_endianness;
  auto operator<=>(const ProgramKey&) const = default;
};

ProgramKey key_of(const FpisaProgramOptions& opts) {
  return {opts.variant, opts.lanes, opts.slots, opts.convert_endianness};
}

/// The layouts live switches hold and the stages their interpreters hold,
/// one of each per shape. Entries are weak: each lives exactly as long as
/// some switch uses it.
struct ProgramMemo {
  util::OrderedMutex mu{util::lock_rank::kProgramMemo};
  std::map<ProgramKey, std::weak_ptr<const SwitchProgram>> programs
      FPISA_GUARDED_BY(mu);
  std::map<ProgramKey, std::weak_ptr<const PipelineStages>> stages
      FPISA_GUARDED_BY(mu);
};

ProgramMemo& program_memo() {
  static ProgramMemo memo;
  return memo;
}

/// The held entry of `table` for `key`, or a new one from `build()`. Built
/// under the memo lock, so concurrent callers of one shape build it once;
/// shapes nothing holds any more leave the table with the next build.
template <class T, class Build>
std::shared_ptr<const T> memoized(
    std::map<ProgramKey, std::weak_ptr<const T>>& table, const ProgramKey& key,
    Build build) {
  std::weak_ptr<const T>& entry = table[key];
  if (auto held = entry.lock()) return held;
  auto made = std::make_shared<const T>(build());
  entry = made;
  std::erase_if(table, [](const auto& e) { return e.second.expired(); });
  return made;
}

/// The shared stages for `opts`: what a switch's build_stages returns.
std::shared_ptr<const PipelineStages> fpisa_stages(
    const FpisaProgramOptions& opts) {
  ProgramMemo& memo = program_memo();
  util::LockGuard lk(memo.mu);
  return memoized(memo.stages, key_of(opts),
                  [&] { return compile_fpisa_stages(opts); });
}

}  // namespace

FpisaProgramOptions fpisa_program_options(const SwitchConfig& config,
                                          int lanes, std::size_t slots) {
  FpisaProgramOptions p;
  p.variant =
      config.ext.rsaw ? core::Variant::kFull : core::Variant::kApproximate;
  p.lanes = lanes;
  p.slots = slots;
  return p;
}

std::shared_ptr<const SwitchProgram> build_fpisa_program(
    const SwitchConfig& config, const FpisaProgramOptions& opts) {
  check_fpisa_options(config, opts);
  ProgramMemo& memo = program_memo();
  util::LockGuard lk(memo.mu);
  return memoized(memo.programs, key_of(opts), [&] {
    SwitchProgram layout = compile_fpisa_layout(opts);
    layout.build_stages = [opts] { return fpisa_stages(opts); };
    return layout;
  });
}

std::vector<LogicalTableDesc> fpisa_resource_descriptors(
    const SwitchConfig& config, const FpisaProgramOptions& opts) {
  const bool ext = config.ext.two_operand_shift;
  const bool approx = opts.variant == core::Variant::kApproximate;
  const auto slot_bits = [&](int w) {
    return static_cast<std::uint64_t>(opts.slots) * static_cast<std::uint64_t>(w);
  };

  std::vector<LogicalTableDesc> d;
  // MAU0: three extract instructions per lane; shared worker-mask table.
  d.push_back({"extract", 0, MatchKind::kExact, 0, 0, 3, 0, 0, 0, true});
  d.push_back({"worker_mask", 0, MatchKind::kExact, 8, 32, 1, 0, 0, 0, false});
  // MAU1: implied-1 (2 actions) + sign fold (1 negate instruction).
  d.push_back({"implied_sign", 1, MatchKind::kExact, 9, 2, 4, 0, 0, 0, true});
  // MAU2: exponent register + diff ops; FPISA-A also needs the left-shift
  // instruction family here on baseline hardware (7 distances).
  d.push_back({"exponent", 2, MatchKind::kExact, 16, 0,
               3 + (approx && !ext ? 7 : 0), 1, slot_bits(8), 0, true});
  d.push_back({"bitmap", 1, MatchKind::kExact, 0, 0, 0, 1, slot_bits(32), 0,
               false});
  // MAU3: the align table. Baseline: 31 distinct fixed right-shift
  // instructions (Appendix B: "the need to implement variable-length shifts
  // as multiple fixed-length shift operations ... is the limiting
  // bottleneck"). Extension: shl/shr reg,reg + code mux = 4 slots.
  d.push_back({"align", 3, MatchKind::kExact, 16, 65, ext ? 4 : 31, 0, 0, 1,
               true});
  // MAU4: mantissa register + shared completion counter.
  d.push_back({"mantissa", 4, MatchKind::kExact, 0, 0, 0, 1, slot_bits(32), 0,
               true});
  d.push_back({"counter", 4, MatchKind::kExact, 0, 0, 0, 1, slot_bits(16), 0,
               false});
  // MAU5 (egress, stage 5): sign split — gateway + 2 instructions.
  d.push_back({"sign_split", 5, MatchKind::kExact, 32, 2, 2, 0, 0, 0, true});
  // MAU6 (egress): the Fig 5 LPM table. Baseline: one fixed-shift
  // instruction per leading-zero count (31 distinct); extension: 3.
  d.push_back({"clz_lpm", 6, MatchKind::kLpm, 32, 33, ext ? 3 : 31, 0, 0, 1,
               true});
  // MAU7 (egress): exponent adjust.
  d.push_back({"exp_adjust", 7, MatchKind::kExact, 0, 0, 1, 0, 0, 0, true});
  // MAU8 (egress): range gateway + pack (4 deposit/set instructions).
  d.push_back({"finalize", 8, MatchKind::kExact, 48, 12, 4, 0, 0, 0, true});
  return d;
}

// --- the switch --------------------------------------------------------------

namespace {

core::AccumulatorConfig lane_config(const FpisaProgramOptions& opts) {
  core::AccumulatorConfig c;
  c.format = core::kFp32;
  c.variant = opts.variant;
  c.reg_bits = 32;
  c.guard_bits = 0;
  c.overflow = core::OverflowPolicy::kWrap;
  c.read_rounding = core::Rounding::kTowardZero;
  return c;
}

void require_size(const char* what, const char* span_name, std::size_t got,
                  std::size_t want) {
  if (got != want) {
    throw std::invalid_argument(std::string(what) + ": " + span_name +
                                " has " + std::to_string(got) +
                                " entries, expected " + std::to_string(want));
  }
}

}  // namespace

FpisaSwitch::FpisaSwitch(SwitchConfig config, FpisaProgramOptions opts)
    : opts_(opts),
      lane_cfg_(lane_config(opts)),
      sim_(config, build_fpisa_program(config, opts)),
      zeros_(static_cast<std::size_t>(opts.lanes), 0),
      pre_packet_(static_cast<std::size_t>(opts.lanes)),
      slot_epoch_(opts.slots, 0) {
  init_metrics();
}

// --- observability ---------------------------------------------------------

void FpisaSwitch::init_metrics() {
  const auto& sw = series_label_.label();
  auto& reg = telemetry::registry();
  m_packets_ = &reg.counter("fpisa_switch_packets_total", {sw});
  m_dedup_ = &reg.counter("fpisa_switch_dedup_hits_total", {sw});
  m_corrupt_ = &reg.counter("fpisa_switch_corrupt_rejected_total", {sw});
  m_stale_ = &reg.counter("fpisa_switch_stale_dups_rejected_total", {sw});
  m_occupancy_ = &reg.gauge("fpisa_switch_occupied_slots", {sw});
  static constexpr const char* kOps[7] = {
      "adds",        "rounded_adds",     "overwrites", "lshift_overflows",
      "saturations", "nonfinite_inputs", "zero_inputs"};
  for (int i = 0; i < 7; ++i) {
    m_ops_[i] =
        &reg.counter("fpisa_switch_ops_total", {sw, {"op", kOps[i]}});
  }
}

void FpisaSwitch::flush_metrics(std::size_t packets) {
  if (!telemetry::enabled()) return;
  m_packets_->inc(packets);
  if (dedup_hits_ != dedup_flushed_) {
    m_dedup_->inc(dedup_hits_ - dedup_flushed_);
    dedup_flushed_ = dedup_hits_;
  }
  if (guard_corrupt_ != guard_corrupt_flushed_) {
    m_corrupt_->inc(guard_corrupt_ - guard_corrupt_flushed_);
    guard_corrupt_flushed_ = guard_corrupt_;
  }
  if (guard_stale_ != guard_stale_flushed_) {
    m_stale_->inc(guard_stale_ - guard_stale_flushed_);
    guard_stale_flushed_ = guard_stale_;
  }
  const std::uint64_t deltas[7] = {
      ops_.adds - ops_flushed_.adds,
      ops_.rounded_adds - ops_flushed_.rounded_adds,
      ops_.overwrites - ops_flushed_.overwrites,
      ops_.lshift_overflows - ops_flushed_.lshift_overflows,
      ops_.saturations - ops_flushed_.saturations,
      ops_.nonfinite_inputs - ops_flushed_.nonfinite_inputs,
      ops_.zero_inputs - ops_flushed_.zero_inputs};
  for (int i = 0; i < 7; ++i) {
    if (deltas[i]) m_ops_[i]->inc(deltas[i]);
  }
  ops_flushed_ = ops_;
  m_occupancy_->set(static_cast<double>(occupied_));
}

FpisaResult FpisaSwitch::roundtrip(FpisaOp op, std::uint16_t slot,
                                   std::uint8_t worker,
                                   std::span<const std::uint32_t> values) {
  check_packet("FpisaSwitch", 0, slot, worker);
  // Accounting happens against the pre-packet register state, so the
  // interpreted path classifies exactly like the compiled batch path.
  const auto lanes = static_cast<std::size_t>(opts_.lanes);
  RegisterArray& bitmap_reg = sim_.reg(bitmap_register(opts_.lanes));
  if (op == FpisaOp::kAdd) {
    const std::uint64_t wbit = std::uint64_t{1} << worker;
    const std::uint64_t old_bm = bitmap_reg.read(slot);
    if (old_bm & wbit) {
      dedup_hits_++;
    } else {
      if (old_bm == 0) occupied_++;
      // §5.2.1 taxonomy: the compiled lane-add classifies the packet on a
      // copy of its pre-packet lane registers; the tables below then
      // update the real ones.
      const core::RegisterFile& bank = sim_.bank();
      const std::size_t row = slot * lanes;
      std::copy_n(bank.exp.begin() + static_cast<std::ptrdiff_t>(row), lanes,
                  pre_packet_.exp.begin());
      std::copy_n(bank.man.begin() + static_cast<std::ptrdiff_t>(row), lanes,
                  pre_packet_.man.begin());
      core::fpisa_add_batch(values, pre_packet_.exp, pre_packet_.man,
                            lane_cfg_, ops_, core::LaneMode::kSwitch);
    }
  } else if (op == FpisaOp::kReset) {
    if (bitmap_reg.read(slot) != 0) occupied_--;
    slot_epoch_[slot]++;  // the slot's next occupant is a new epoch
  }
  const std::uint32_t stamp = op == FpisaOp::kAdd ? slot_stamp(slot) : 0;
  const std::uint16_t cs =
      op == FpisaOp::kAdd ? fpisa_checksum(slot, worker, stamp, values)
                          : std::uint16_t{0};
  make_fpisa_packet_into(scratch_pkt_, op, slot, worker, values,
                         opts_.convert_endianness, stamp, cs);
  sim_.process(scratch_pkt_);
  FpisaResult out;
  parse_fpisa_result_into(scratch_pkt_, opts_.lanes, out,
                          opts_.convert_endianness);
  flush_metrics(1);
  return out;
}

FpisaResult FpisaSwitch::add(std::uint16_t slot, std::uint8_t worker,
                             std::span<const std::uint32_t> values) {
  require_size("add", "values", values.size(),
               static_cast<std::size_t>(opts_.lanes));
  return roundtrip(FpisaOp::kAdd, slot, worker, values);
}

FpisaResult FpisaSwitch::read(std::uint16_t slot) {
  return roundtrip(FpisaOp::kRead, slot, 0, zeros_);
}

FpisaResult FpisaSwitch::read_and_reset(std::uint16_t slot) {
  return roundtrip(FpisaOp::kReset, slot, 0, zeros_);
}

void FpisaSwitch::check_packet(const char* what, std::size_t p,
                               std::uint16_t slot, std::uint8_t worker) const {
  if (slot >= opts_.slots) {
    throw std::out_of_range(std::string(what) + ": packet " +
                            std::to_string(p) + " targets slot " +
                            std::to_string(slot) + " of a " +
                            std::to_string(opts_.slots) + "-slot switch");
  }
  if (worker >= kMaxWorkers) {
    throw std::out_of_range(std::string(what) + ": packet " +
                            std::to_string(p) + " carries worker id " +
                            std::to_string(worker) + ", outside the " +
                            std::to_string(kMaxWorkers) +
                            "-bit dedup bitmap");
  }
}

// ---------------------------------------------------------------------------
// The compiled ingress (MAU0-4), in two halves. The shared per-packet
// state — guard checks, the MAU1 worker bitmap and the MAU4 completion
// counter — never reads a lane register, so admit() checks each packet
// and settles that state for every packet in order, on the bitmap and
// counter cells directly. gather() then runs the accepted packets' lanes
// through the core lane-add in LaneMode::kSwitch as one gather over their
// bank rows, reading each payload in place: the same selects, 32-bit wrap
// and counter lane sums as the core accumulator, with the switch tables'
// edges (zeros and non-finite values run the datapath, the ±32 align
// clamp, the exponent update on every lane). The gather adds each run of
// packets on one slot — a slot-major wave's workers — with the slot's lane
// registers held in CPU registers. tests/test_pisa_fpisa_program.cpp
// proves the halves bit-identical to per-packet `add` calls through the
// interpreter. No per-packet result is emitted: callers collect aggregates
// through the compiled egress below.
// ---------------------------------------------------------------------------

void FpisaSwitch::add_batch(std::span<const std::uint16_t> slots,
                            std::span<const std::uint8_t> workers,
                            std::span<const std::uint32_t> values) {
  const std::size_t n = slots.size();
  const auto lanes = static_cast<std::size_t>(opts_.lanes);
  require_size("add_batch", "values", values.size(), n * lanes);
  const std::span<const std::byte> bytes = std::as_bytes(values);
  flat_payloads_.resize(n);
  flat_accepted_.resize(n);
  flat_rows_.resize(n);
  for (std::size_t p = 0; p < n; ++p) {
    flat_payloads_[p] = bytes.data() + p * lanes * sizeof(std::uint32_t);
  }
  const std::size_t accepted = admit(slots, workers, flat_payloads_, {}, {},
                                     nullptr, flat_accepted_, flat_rows_);
  core::OpCounters ops;
  gather(std::span(flat_accepted_).first(accepted),
         std::span(flat_rows_).first(accepted), ops);
  book_ops(ops);
}

std::size_t FpisaSwitch::admit(std::span<const std::uint16_t> slots,
                               std::span<const std::uint8_t> workers,
                               std::span<const std::byte* const> payloads,
                               std::span<const std::uint32_t> stamps,
                               std::span<const std::uint16_t> checksums,
                               GuardStats* guard,
                               std::span<const std::byte*> out_payloads,
                               std::span<std::uint32_t> out_rows) {
  const std::size_t n = slots.size();
  require_size("admit", "workers", workers.size(), n);
  require_size("admit", "payloads", payloads.size(), n);
  if (guard != nullptr) {
    require_size("admit", "stamps", stamps.size(), n);
    require_size("admit", "checksums", checksums.size(), n);
  }
  if (out_payloads.size() < n || out_rows.size() < n) {
    throw std::invalid_argument("admit: accepted-packet spans too short");
  }

  const auto lanes = static_cast<std::size_t>(opts_.lanes);
  const std::size_t payload_bytes = lanes * sizeof(std::uint32_t);
  const std::span<std::int64_t> bitmap =
      sim_.reg(bitmap_register(opts_.lanes)).owned_cells();
  RegisterArray& count_reg = sim_.reg(count_register(opts_.lanes));
  const std::span<std::int64_t> count = count_reg.owned_cells();
  const std::int64_t count_mask =
      (std::int64_t{1} << count_reg.width_bits()) - 1;
  // Room for every packet, written by index: no growth check per packet.
  if (admit_workers_.size() < n) admit_workers_.resize(n);
  const std::byte** const accepted_payloads = out_payloads.data();
  std::uint32_t* const accepted_rows = out_rows.data();
  std::uint8_t* const accepted_workers = admit_workers_.data();
  // The batch's books stay local until every packet has passed its
  // check, so a batch rejected for a bad packet only has to undo the
  // bitmap and counter cells the packets before it settled.
  std::size_t accepted = 0;
  std::int64_t occupied = 0;
  std::uint64_t dedup = 0;
  GuardStats rejected;
  for (std::size_t p = 0; p < n; ++p) {
    const std::uint16_t slot = slots[p];
    const std::uint8_t worker = workers[p];
    if (slot >= opts_.slots || worker >= kMaxWorkers) [[unlikely]] {
      for (std::size_t a = accepted; a-- > 0;) {
        const std::uint32_t row = accepted_rows[a];
        bitmap[row] &= ~(std::int64_t{1} << accepted_workers[a]);
        count[row] = (count[row] - 1) & count_mask;
      }
      check_packet("admit", p, slot, worker);
    }
    if (guard != nullptr) {
      // Guard 1: payload integrity. A bit flipped in flight breaks the
      // checksum the sender computed over the clean bytes.
      if (fpisa_checksum(slot, worker, stamps[p],
                         {payloads[p], payload_bytes}) != checksums[p]) {
        rejected.corrupt_rejected++;
        continue;
      }
      // Guard 2: liveness of the slot's epoch. A copy stamped before the
      // slot was reset (stale duplicate after round-robin reuse) or before
      // the switch rebooted must not be absorbed as a fresh contribution.
      if (stamps[p] != slot_stamp(slot)) {
        rejected.stale_rejected++;
        continue;
      }
    }
    // MAU1 shared bitmap (kOrX): the old value exposes retransmissions.
    const std::int64_t wbit = std::int64_t{1} << worker;
    const std::int64_t old_bm = bitmap[slot];
    if (old_bm & wbit) {  // duplicate: absorbed, no state change
      dedup++;
      continue;
    }
    bitmap[slot] = old_bm | wbit;
    occupied += old_bm == 0;
    count[slot] = (count[slot] + 1) & count_mask;  // MAU4 counter
    accepted_payloads[accepted] = payloads[p];
    accepted_rows[accepted] = slot;
    accepted_workers[accepted] = worker;
    ++accepted;
  }
  occupied_ += occupied;
  dedup_hits_ += dedup;
  guard_corrupt_ += rejected.corrupt_rejected;
  guard_stale_ += rejected.stale_rejected;
  if (guard != nullptr) {
    guard->corrupt_rejected += rejected.corrupt_rejected;
    guard->stale_rejected += rejected.stale_rejected;
  }

  sim_.account_packets(n);
  flush_metrics(n);
  return accepted;
}

void FpisaSwitch::gather(std::span<const std::byte* const> payloads,
                         std::span<const std::uint32_t> rows,
                         core::OpCounters& ops) {
  require_size("gather", "rows", rows.size(), payloads.size());
  core::RegisterFile& bank = sim_.bank();
  core::fpisa_add_gather(payloads, rows, static_cast<std::size_t>(opts_.lanes),
                         bank.exp, bank.man, lane_cfg_, ops,
                         core::LaneMode::kSwitch);
}

void FpisaSwitch::book_ops(const core::OpCounters& ops) {
  ops_ += ops;
  flush_metrics(0);
}

void FpisaSwitch::wipe_state() {
  // Reboot semantics: every register back to power-on zero — the lane
  // bank in one fill, then the shared bitmap and counter.
  sim_.bank().clear();
  sim_.reg(bitmap_register(opts_.lanes)).clear();
  sim_.reg(count_register(opts_.lanes)).clear();
  occupied_ = 0;
  // The generation bump alone distinguishes pre-wipe stamps, so the
  // per-slot epochs restart at zero like everything else on the switch.
  std::fill(slot_epoch_.begin(), slot_epoch_.end(), 0);
  generation_++;
  flush_metrics(0);
}

// ---------------------------------------------------------------------------
// The compiled egress (MAU5-8), in two halves. release() captures and
// resets the bitmap and counter cells, which no lane register feeds.
// drain() reads and clears the lanes: slots [slot0, slot0 + n) are one
// contiguous span of the bank, one lanes-wide row per slot, so the
// renormalize-and-assemble is one core read-reset scatter in
// LaneMode::kSwitch, each row landing at its own destination — the 32-bit
// sign split, the CLZ shift to bit 23, the exponent adjust and the range
// gateway's zero / FTZ / overflow-to-inf / pack priority order — and the
// kernel clears each register as it reads it. Results and register state
// are bit-identical to per-packet read_and_reset() traversals
// (tests/test_pisa_fpisa_program.cpp proves it against the interpreter).
// ---------------------------------------------------------------------------

void FpisaSwitch::check_slot_range(const char* what, std::uint16_t slot0,
                                   std::size_t n) const {
  if (n > opts_.slots || slot0 > opts_.slots - n) {
    throw std::out_of_range(std::string(what) + ": slots [" +
                            std::to_string(slot0) + ", " +
                            std::to_string(slot0) + " + " + std::to_string(n) +
                            ") exceed a " + std::to_string(opts_.slots) +
                            "-slot switch");
  }
}

void FpisaSwitch::release(std::uint16_t slot0, std::size_t n, bool reset,
                          std::span<std::uint32_t> out_bitmaps,
                          std::span<std::uint16_t> out_counts) {
  check_slot_range("release", slot0, n);
  if (!out_bitmaps.empty()) {
    require_size("release", "out_bitmaps", out_bitmaps.size(), n);
  }
  if (!out_counts.empty()) {
    require_size("release", "out_counts", out_counts.size(), n);
  }
  const std::span<std::int64_t> bitmap =
      sim_.reg(bitmap_register(opts_.lanes)).owned_cells();
  const std::span<std::int64_t> count =
      sim_.reg(count_register(opts_.lanes)).owned_cells();
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t slot = slot0 + k;
    if (!out_bitmaps.empty()) {
      out_bitmaps[k] = static_cast<std::uint32_t>(bitmap[slot]);
    }
    if (!out_counts.empty()) {
      out_counts[k] = static_cast<std::uint16_t>(count[slot]);
    }
    if (reset) {
      occupied_ -= bitmap[slot] != 0;
      bitmap[slot] = 0;
      count[slot] = 0;
      slot_epoch_[slot]++;  // the slot's next occupant is a new epoch
    }
  }
  sim_.account_packets(n);
  flush_metrics(n);
}

void FpisaSwitch::drain(std::uint16_t slot0,
                        std::span<std::byte* const> dests) {
  const std::size_t n = dests.size();
  check_slot_range("drain", slot0, n);
  const auto lanes = static_cast<std::size_t>(opts_.lanes);
  core::RegisterFile& bank = sim_.bank();
  core::fpisa_read_reset_scatter(
      std::span(bank.exp).subspan(slot0 * lanes, n * lanes),
      std::span(bank.man).subspan(slot0 * lanes, n * lanes), lanes, dests,
      lane_cfg_, core::LaneMode::kSwitch);
}

void FpisaSwitch::read_and_reset_batch(std::uint16_t slot0, std::size_t n,
                                       std::span<std::uint32_t> out_values) {
  // Every check runs before either half changes any state.
  check_slot_range("read_and_reset_batch", slot0, n);
  const auto lanes = static_cast<std::size_t>(opts_.lanes);
  require_size("read_and_reset_batch", "out_values", out_values.size(),
               n * lanes);
  const std::span<std::byte> bytes = std::as_writable_bytes(out_values);
  flat_dests_.resize(n);
  for (std::size_t k = 0; k < n; ++k) {
    flat_dests_[k] = bytes.data() + k * lanes * sizeof(std::uint32_t);
  }
  release(slot0, n, /*reset=*/true);
  drain(slot0, flat_dests_);
}

}  // namespace fpisa::pisa
