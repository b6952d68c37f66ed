#include "pisa/fpisa_program.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <string>

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
  const std::string s = std::to_string(lane);
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

Packet make_fpisa_packet(FpisaOp op, std::uint16_t slot, std::uint8_t worker,
                         std::span<const std::uint32_t> values,
                         bool little_endian_payload, std::uint32_t stamp,
                         std::uint16_t checksum) {
  Packet pkt;
  make_fpisa_packet_into(pkt, op, slot, worker, values, little_endian_payload,
                         stamp, checksum);
  return pkt;
}

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

FpisaResult parse_fpisa_result(const Packet& pkt, int lanes,
                               bool little_endian_payload) {
  FpisaResult r;
  parse_fpisa_result_into(pkt, lanes, r, little_endian_payload);
  return r;
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

SwitchProgram build_fpisa_program(const SwitchConfig& config,
                                  const FpisaProgramOptions& opts) {
  assert(opts.lanes >= 1);
  assert((opts.variant == core::Variant::kApproximate || config.ext.rsaw) &&
         "full FPISA needs the RSAW extension; use FPISA-A on baseline");
  assert((!opts.convert_endianness || config.ext.parser_endianness) &&
         "little-endian payloads need the in-parser conversion extension");
  (void)config;  // only consulted by the assertions above

  SwitchProgram prog;
  SharedFields sh;
  sh.opcode = prog.phv.declare("opcode", 8);
  sh.slot = prog.phv.declare("slot", 16);
  sh.worker = prog.phv.declare("worker", 8);
  sh.wbit = prog.phv.declare("wbit", 32);
  sh.bitmap_old = prog.phv.declare("bitmap_old", 32);
  sh.bitmap_new = prog.phv.declare("bitmap_new", 32);
  sh.count = prog.phv.declare("count", 16);
  sh.dup_raw = prog.phv.declare("dup_raw", 32);
  sh.dup = prog.phv.declare("dup", 8);

  std::vector<LaneFields> lanes;
  lanes.reserve(static_cast<std::size_t>(opts.lanes));
  for (int l = 0; l < opts.lanes; ++l) {
    lanes.push_back(declare_lane(prog.phv, l));
  }

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

  // Registers: per-lane exponent + mantissa arrays, shared bitmap/counter.
  struct LaneRegs {
    int exp, man;
  };
  std::vector<LaneRegs> regs;
  for (int l = 0; l < opts.lanes; ++l) {
    const std::string s = std::to_string(l);
    prog.add_register("exp_arr" + s, 8, opts.slots);
    prog.add_register("man_arr" + s, 32, opts.slots);
    regs.push_back({2 * l, 2 * l + 1});
  }
  const int bitmap_reg = 2 * opts.lanes;
  prog.add_register("bitmap", 32, opts.slots);
  const int count_reg = bitmap_reg + 1;
  prog.add_register("count", 16, opts.slots);

  prog.ingress.resize(5);
  prog.egress.resize(4);

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

// --- observability ---------------------------------------------------------

namespace {

/// Which SeriesId values live switches hold.
struct SeriesIds {
  util::OrderedMutex mu{util::lock_rank::kSwitchIds};
  std::vector<bool> taken FPISA_GUARDED_BY(mu);
};

SeriesIds& series_ids() {
  static SeriesIds ids;
  return ids;
}

}  // namespace

FpisaSwitch::SeriesId::SeriesId() {
  SeriesIds& ids = series_ids();
  util::LockGuard lk(ids.mu);
  const auto free = std::find(ids.taken.begin(), ids.taken.end(), false);
  id_ = static_cast<std::size_t>(free - ids.taken.begin());
  if (free == ids.taken.end()) {
    ids.taken.push_back(true);
  } else {
    *free = true;
  }
}

FpisaSwitch::SeriesId::~SeriesId() {
  SeriesIds& ids = series_ids();
  util::LockGuard lk(ids.mu);
  ids.taken[id_] = false;
}

void FpisaSwitch::init_metrics() {
  const std::string id = std::to_string(series_id_.value());
  auto& reg = telemetry::registry();
  m_packets_ = &reg.counter("fpisa_switch_packets_total", {{"sw", id}});
  m_dedup_ = &reg.counter("fpisa_switch_dedup_hits_total", {{"sw", id}});
  m_corrupt_ =
      &reg.counter("fpisa_switch_corrupt_rejected_total", {{"sw", id}});
  m_stale_ =
      &reg.counter("fpisa_switch_stale_dups_rejected_total", {{"sw", id}});
  m_occupancy_ = &reg.gauge("fpisa_switch_occupied_slots", {{"sw", id}});
  m_occupancy_->set(0.0);  // not the previous holder's figure
  static constexpr const char* kOps[7] = {
      "adds",        "rounded_adds",     "overwrites", "lshift_overflows",
      "saturations", "nonfinite_inputs", "zero_inputs"};
  for (int i = 0; i < 7; ++i) {
    m_ops_[i] =
        &reg.counter("fpisa_switch_ops_total", {{"sw", id}, {"op", kOps[i]}});
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

void FpisaSwitch::classify_add_lane(int lane, std::size_t slot,
                                    std::uint32_t u) {
  // Mirrors apply_add_lane / the interpreted MAU0-4 step for step, but
  // only reads state; the branch taken IS the classification.
  ops_.adds++;
  const std::uint32_t e_raw = (u >> 23) & 0xFFu;
  if (e_raw == 0xFFu) ops_.nonfinite_inputs++;
  if ((u & 0x7FFFFFFFu) == 0) ops_.zero_inputs++;

  std::uint32_t man32 = u & 0x7FFFFFu;
  const std::uint32_t exp_eff = e_raw == 0 ? 1u : e_raw;
  if (e_raw != 0) man32 |= 1u << 23;
  if (u >> 31) man32 = ~man32 + 1u;
  const std::int64_t m =
      static_cast<std::int64_t>(static_cast<std::int32_t>(man32));
  const std::uint64_t old_e = sim_.reg(2 * lane).read(slot);
  const std::int64_t old_m = sim_.reg(2 * lane + 1).read_signed(slot);
  int d = static_cast<int>(exp_eff) - static_cast<int>(old_e);
  d = std::min(d, 32);
  d = std::max(d, -32);

  std::int64_t nm;
  if (d <= 0) {
    if (core::detail::asr_inexact(m, -d)) ops_.rounded_adds++;
    nm = old_m + (m >> -d);
  } else if (opts_.variant == core::Variant::kFull) {
    if (core::detail::asr_inexact(old_m, d)) ops_.rounded_adds++;
    nm = (old_m >> d) + m;
  } else if (d <= headroom_fp32()) {
    nm = old_m + (m << d);
    if (nm != static_cast<std::int64_t>(static_cast<std::int32_t>(nm))) {
      ops_.lshift_overflows++;
    }
    return;  // lshift overflow is its own bucket, not a saturation
  } else {
    if (old_m != 0) ops_.overwrites++;
    return;  // overwrite cannot wrap
  }
  // Register adds wrap at 32 bits (hardware semantics); count the wrap.
  if (nm != static_cast<std::int64_t>(static_cast<std::int32_t>(nm))) {
    ops_.saturations++;
  }
}

FpisaResult FpisaSwitch::roundtrip(FpisaOp op, std::uint16_t slot,
                                   std::uint8_t worker,
                                   std::span<const std::uint32_t> values) {
  FpisaResult r;
  roundtrip_into(op, slot, worker, values, r);
  return r;
}

void FpisaSwitch::roundtrip_into(FpisaOp op, std::uint16_t slot,
                                 std::uint8_t worker,
                                 std::span<const std::uint32_t> values,
                                 FpisaResult& out) {
  // Accounting happens against the pre-packet register state, so the
  // interpreted path classifies exactly like the compiled batch path.
  const int lanes = opts_.lanes;
  RegisterArray& bitmap_reg = sim_.reg(2 * lanes);
  if (op == FpisaOp::kAdd) {
    const std::uint64_t wbit = std::uint64_t{1} << worker;
    const std::uint64_t old_bm = bitmap_reg.read(slot);
    if (old_bm & wbit) {
      dedup_hits_++;
    } else {
      if (old_bm == 0) occupied_++;
      for (int l = 0; l < lanes; ++l) classify_add_lane(l, slot, values[l]);
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
  parse_fpisa_result_into(scratch_pkt_, opts_.lanes, out,
                          opts_.convert_endianness);
  flush_metrics(1);
}

FpisaResult FpisaSwitch::add(std::uint16_t slot, std::uint8_t worker,
                             std::span<const std::uint32_t> values) {
  assert(static_cast<int>(values.size()) == opts_.lanes);
  return roundtrip(FpisaOp::kAdd, slot, worker, values);
}

FpisaResult FpisaSwitch::read(std::uint16_t slot) {
  return roundtrip(FpisaOp::kRead, slot, 0, zeros_);
}

FpisaResult FpisaSwitch::read_and_reset(std::uint16_t slot) {
  return roundtrip(FpisaOp::kReset, slot, 0, zeros_);
}

void FpisaSwitch::read_into(std::uint16_t slot, FpisaResult& out) {
  roundtrip_into(FpisaOp::kRead, slot, 0, zeros_, out);
}

void FpisaSwitch::read_and_reset_into(std::uint16_t slot, FpisaResult& out) {
  roundtrip_into(FpisaOp::kReset, slot, 0, zeros_, out);
}

// ---------------------------------------------------------------------------
// Batched add fast path: the compiled form of the ingress program
// (MAU0-4), applied straight to the register arrays. Every step mirrors
// the table/SALU semantics the interpreter would execute — including the
// 16-bit clamp of the exponent difference, 32-bit two's-complement
// mantissa arithmetic, and the exponent-register update on zero inputs —
// so the state evolution is bit-identical to per-packet `add` calls
// (tests/test_pisa_fpisa_program.cpp proves it against the interpreter).
// Egress (result emission) is skipped: batch callers collect aggregates
// with read_batch()/read_and_reset_batch() — the compiled egress below.
// ---------------------------------------------------------------------------

void FpisaSwitch::apply_add_lane(int lane, std::size_t slot,
                                 std::uint32_t u) {
  classify_add_lane(lane, slot, u);  // reads pre-update state only
  RegisterArray& exp_reg = sim_.reg(2 * lane);
  RegisterArray& man_reg = sim_.reg(2 * lane + 1);

  // MAU0/1: extract, implied 1 (subnormals keep the raw fraction at
  // effective exponent 1), sign fold into 32-bit two's complement.
  const std::uint32_t e_raw = (u >> 23) & 0xFFu;
  std::uint32_t man32 = u & 0x7FFFFFu;
  const std::uint32_t exp_eff = e_raw == 0 ? 1u : e_raw;
  if (e_raw != 0) man32 |= 1u << 23;
  if (u >> 31) man32 = ~man32 + 1u;

  // MAU2: exponent register (kExpUpdate) + clamped signed difference.
  const std::uint64_t old_e = exp_reg.read(slot);
  const std::int64_t imm =
      opts_.variant == core::Variant::kApproximate ? headroom_fp32() : 0;
  if (exp_eff > old_e + static_cast<std::uint64_t>(imm)) {
    exp_reg.write(slot, exp_eff);
  }
  int d = static_cast<int>(exp_eff) - static_cast<int>(old_e);
  d = std::min(d, 32);
  d = std::max(d, -32);

  // MAU3/4: align + mantissa register. All arithmetic in int64, masked to
  // the 32-bit register width on write — exactly the PHV/SALU semantics.
  const std::int64_t m =
      static_cast<std::int64_t>(static_cast<std::int32_t>(man32));
  const std::int64_t old_m = man_reg.read_signed(slot);
  std::int64_t nm;
  if (d <= 0) {
    nm = old_m + (m >> -d);  // -d in [0, 32]: int64 asr is exact here
  } else if (opts_.variant == core::Variant::kFull) {
    nm = (old_m >> d) + m;  // RSAW: shift the *stored* mantissa
  } else if (d <= headroom_fp32()) {
    nm = old_m + (m << d);  // headroom left-shift (fits: |m| < 2^24, d <= 7)
  } else {
    nm = m;  // overwrite
  }
  man_reg.write(slot, static_cast<std::uint64_t>(nm));
}

void FpisaSwitch::add_batch(std::span<const std::uint16_t> slots,
                            std::span<const std::uint8_t> workers,
                            std::span<const std::uint32_t> values) {
  assert(slots.size() == workers.size());
  assert(values.size() ==
         slots.size() * static_cast<std::size_t>(opts_.lanes));
  const int lanes = opts_.lanes;
  RegisterArray& bitmap = sim_.reg(2 * lanes);
  RegisterArray& count = sim_.reg(2 * lanes + 1);

  for (std::size_t p = 0; p < slots.size(); ++p) {
    const std::size_t slot = slots[p];
    assert(slot < bitmap.size());
    // MAU1 shared bitmap (kOrX): the old value exposes retransmissions.
    const std::uint64_t wbit = std::uint64_t{1} << workers[p];
    const std::uint64_t old_bm = bitmap.read(slot);
    bitmap.write(slot, old_bm | wbit);
    if (old_bm & wbit) {  // duplicate: absorbed, no state change
      dedup_hits_++;
      continue;
    }
    if (old_bm == 0) occupied_++;

    count.write(slot, count.read(slot) + 1);  // completion counter
    const std::uint32_t* lane_vals =
        values.data() + p * static_cast<std::size_t>(lanes);
    for (int l = 0; l < lanes; ++l) apply_add_lane(l, slot, lane_vals[l]);
  }
  sim_.account_packets(slots.size());
  flush_metrics(slots.size());
}

void FpisaSwitch::add_batch_guarded(std::span<const std::uint16_t> slots,
                                    std::span<const std::uint8_t> workers,
                                    std::span<const std::uint32_t> stamps,
                                    std::span<const std::uint16_t> checksums,
                                    std::span<const std::uint32_t> values,
                                    GuardStats& guard) {
  assert(slots.size() == workers.size());
  assert(slots.size() == stamps.size());
  assert(slots.size() == checksums.size());
  assert(values.size() ==
         slots.size() * static_cast<std::size_t>(opts_.lanes));
  const int lanes = opts_.lanes;
  RegisterArray& bitmap = sim_.reg(2 * lanes);
  RegisterArray& count = sim_.reg(2 * lanes + 1);

  for (std::size_t p = 0; p < slots.size(); ++p) {
    const std::size_t slot = slots[p];
    assert(slot < bitmap.size());
    const std::uint32_t* lane_vals =
        values.data() + p * static_cast<std::size_t>(lanes);
    const std::span<const std::uint32_t> payload(
        lane_vals, static_cast<std::size_t>(lanes));
    // Guard 1: payload integrity. A bit flipped in flight breaks the
    // checksum the sender computed over the clean bytes.
    if (fpisa_checksum(slots[p], workers[p], stamps[p], payload) !=
        checksums[p]) {
      guard.corrupt_rejected++;
      guard_corrupt_++;
      continue;
    }
    // Guard 2: liveness of the slot's epoch. A copy stamped before the
    // slot was reset (stale duplicate after round-robin reuse) or before
    // the switch rebooted must not be absorbed as a fresh contribution.
    if (stamps[p] != slot_stamp(slots[p])) {
      guard.stale_rejected++;
      guard_stale_++;
      continue;
    }
    // Accepted: the add_batch ingress, packet by packet.
    const std::uint64_t wbit = std::uint64_t{1} << workers[p];
    const std::uint64_t old_bm = bitmap.read(slot);
    bitmap.write(slot, old_bm | wbit);
    if (old_bm & wbit) {
      dedup_hits_++;
      continue;
    }
    if (old_bm == 0) occupied_++;

    count.write(slot, count.read(slot) + 1);
    for (int l = 0; l < lanes; ++l) apply_add_lane(l, slot, lane_vals[l]);
  }
  sim_.account_packets(slots.size());
  flush_metrics(slots.size());
}

void FpisaSwitch::wipe_state() {
  // Reboot semantics: every register array back to power-on zero. The
  // RegisterArray has no bulk clear, so walk the slots like the control
  // plane would.
  const int lanes = opts_.lanes;
  for (int r = 0; r < 2 * lanes + 2; ++r) {
    RegisterArray& reg = sim_.reg(r);
    for (std::size_t s = 0; s < reg.size(); ++s) reg.write(s, 0);
  }
  occupied_ = 0;
  // The generation bump alone distinguishes pre-wipe stamps, so the
  // per-slot epochs restart at zero like everything else on the switch.
  std::fill(slot_epoch_.begin(), slot_epoch_.end(), 0);
  generation_++;
  flush_metrics(0);
}

// ---------------------------------------------------------------------------
// Batched read fast path: the compiled form of the egress program
// (MAU5-8), applied straight to the register arrays. Each step mirrors the
// interpreter's table semantics on the same PHV widths: the 32-bit
// two's-complement sign split, the LPM CLZ table's fixed shift to bit 23,
// the 16-bit exponent adjust, and the range gateway's zero / FTZ /
// overflow-to-inf / pack priority order — so results and register state
// are bit-identical to per-packet read()/read_and_reset() traversals
// (tests/test_pisa_fpisa_program.cpp proves it against the interpreter).
// ---------------------------------------------------------------------------

namespace {

/// One lane's compiled egress: (exp register, mantissa register) -> packed
/// FP32 result field, exactly as MAU5-8 compute it.
std::uint32_t egress_renormalize(std::uint64_t r_exp, std::uint64_t r_man) {
  // MAU5: two's complement -> sign + 32-bit magnitude.
  const auto man = static_cast<std::uint32_t>(r_man);
  const std::uint32_t sign2 = man >> 31;
  std::uint32_t uman = sign2 ? (0u - man) : man;
  // MAU6: LPM CLZ + fixed shift to bit 23 (the table's default entry for
  // uman == 0 applies no shift and delta 0). delta is a 16-bit field, so
  // negative shifts wrap exactly like the SetImm's masked immediate.
  std::uint16_t delta = 0;
  if (uman != 0) {
    const int shift = 8 - std::countl_zero(uman);
    uman = shift >= 0 ? uman >> shift : uman << -shift;
    delta = static_cast<std::uint16_t>(shift);
  }
  // MAU7: 16-bit exponent adjust.
  const auto e_norm =
      static_cast<std::uint16_t>(static_cast<std::uint32_t>(r_exp) + delta);
  // MAU8: range gateway in the ternary table's priority order.
  if (uman == 0) return 0;                                  // mantissa == 0
  if ((e_norm & 0x8000u) || e_norm == 0) return sign2 << 31;  // FTZ
  if ((e_norm & 0x7F00u) || e_norm == 255) {
    return 0x7F800000u | (sign2 << 31);  // exponent >= 255: clamp to ±inf
  }
  return (uman & 0x7FFFFFu) |
         (static_cast<std::uint32_t>(e_norm) << 23) | (sign2 << 31);
}

}  // namespace

void FpisaSwitch::collect_batch(std::uint16_t slot0, std::size_t n,
                                bool reset,
                                std::span<std::uint32_t> out_values,
                                std::span<std::uint32_t> out_bitmaps,
                                std::span<std::uint16_t> out_counts) {
  const int lanes = opts_.lanes;
  assert(out_values.size() == n * static_cast<std::size_t>(lanes));
  assert(out_bitmaps.empty() || out_bitmaps.size() == n);
  assert(out_counts.empty() || out_counts.size() == n);
  RegisterArray& bitmap = sim_.reg(2 * lanes);
  RegisterArray& count = sim_.reg(2 * lanes + 1);
  assert(slot0 + n <= bitmap.size());

  for (int l = 0; l < lanes; ++l) {
    RegisterArray& exp_reg = sim_.reg(2 * l);
    RegisterArray& man_reg = sim_.reg(2 * l + 1);
    std::uint32_t* out = out_values.data() + l;
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t slot = slot0 + k;
      out[k * static_cast<std::size_t>(lanes)] =
          egress_renormalize(exp_reg.read(slot), man_reg.read(slot));
      if (reset) {  // kClear: result computed from the old value
        exp_reg.write(slot, 0);
        man_reg.write(slot, 0);
      }
    }
  }
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t slot = slot0 + k;
    if (!out_bitmaps.empty()) {
      out_bitmaps[k] = static_cast<std::uint32_t>(bitmap.read(slot));
    }
    if (!out_counts.empty()) {
      out_counts[k] = static_cast<std::uint16_t>(count.read(slot));
    }
    if (reset) {
      if (bitmap.read(slot) != 0) occupied_--;
      bitmap.write(slot, 0);
      count.write(slot, 0);
      slot_epoch_[slot]++;  // the slot's next occupant is a new epoch
    }
  }
  sim_.account_packets(n);
  flush_metrics(n);
}

void FpisaSwitch::read_batch(std::uint16_t slot0, std::size_t n,
                             std::span<std::uint32_t> out_values,
                             std::span<std::uint32_t> out_bitmaps,
                             std::span<std::uint16_t> out_counts) {
  collect_batch(slot0, n, /*reset=*/false, out_values, out_bitmaps,
                out_counts);
}

void FpisaSwitch::read_and_reset_batch(std::uint16_t slot0, std::size_t n,
                                       std::span<std::uint32_t> out_values,
                                       std::span<std::uint32_t> out_bitmaps,
                                       std::span<std::uint16_t> out_counts) {
  collect_batch(slot0, n, /*reset=*/true, out_values, out_bitmaps,
                out_counts);
}

}  // namespace fpisa::pisa
