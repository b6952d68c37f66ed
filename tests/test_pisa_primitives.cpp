// PISA simulator building blocks: PHV, actions, tables, stateful ALUs,
// parser/deparser.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "pisa/action.h"
#include "pisa/phv.h"
#include "pisa/pipeline.h"
#include "pisa/salu.h"
#include "pisa/table.h"

namespace fpisa::pisa {
namespace {

TEST(Phv, FieldWidthsMaskAndSignExtend) {
  PhvLayout layout;
  const FieldId f8 = layout.declare("f8", 8);
  const FieldId f16 = layout.declare("f16", 16);
  const FieldId f32 = layout.declare("f32", 32);
  Phv phv(layout);

  phv.set(f8, 0x1FF);
  EXPECT_EQ(phv.get(f8), 0xFFu);  // masked to 8 bits
  phv.set(f16, 0xFFFE);
  EXPECT_EQ(phv.get_signed(f16), -2);  // sign-extended
  phv.set(f32, 0x80000000u);
  EXPECT_EQ(phv.get_signed(f32), -2147483648LL);
  EXPECT_EQ(layout.find("f16").index, f16.index);
  EXPECT_FALSE(layout.find("nope").valid());
}

TEST(Action, ArithmeticAndLogicOps) {
  PhvLayout layout;
  const FieldId a = layout.declare("a", 32);
  const FieldId b = layout.declare("b", 32);
  const FieldId c = layout.declare("c", 32);
  Phv phv(layout);
  phv.set(a, 100);
  phv.set(b, 7);

  auto run = [&](OpCode op, std::int64_t imm = 0, std::int64_t imm2 = 0) {
    Action act{"t", {PrimOp{op, c, a, b, imm, imm2}}};
    apply_action(act, phv);
    return phv.get(c);
  };
  EXPECT_EQ(run(OpCode::kAdd), 107u);
  EXPECT_EQ(run(OpCode::kSub), 93u);
  EXPECT_EQ(run(OpCode::kAnd), 100u & 7u);
  EXPECT_EQ(run(OpCode::kOr), 100u | 7u);
  EXPECT_EQ(run(OpCode::kXor), 100u ^ 7u);
  EXPECT_EQ(run(OpCode::kShlImm, 3), 800u);
  EXPECT_EQ(run(OpCode::kShrImm, 2), 25u);
  EXPECT_EQ(run(OpCode::kAddImm, 5), 105u);
  EXPECT_EQ(run(OpCode::kMinImm, 50), 50u);
  EXPECT_EQ(run(OpCode::kMaxImm, 500), 500u);
  EXPECT_EQ(run(OpCode::kExtractBits, 2, 4), (100u >> 2) & 0xF);
  // 2-operand shifts take the distance from a field.
  EXPECT_EQ(run(OpCode::kShlField), 100u << 7);
  EXPECT_EQ(run(OpCode::kShrField), 100u >> 7);
}

TEST(Action, ArithmeticShiftAndNegWrapAtFieldWidth) {
  PhvLayout layout;
  const FieldId a = layout.declare("a", 32);
  const FieldId c = layout.declare("c", 32);
  Phv phv(layout);
  phv.set(a, 0xFFFFFFF0u);  // -16 as 32-bit
  Action asr{"t", {PrimOp{OpCode::kAsrImm, c, a, {}, 2, 0}}};
  apply_action(asr, phv);
  EXPECT_EQ(phv.get_signed(c), -4);
  Action neg{"t", {PrimOp{OpCode::kNeg, c, a, {}, 0, 0}}};
  apply_action(neg, phv);
  EXPECT_EQ(phv.get_signed(c), 16);
}

TEST(Action, DepositBuildsPackedWords) {
  PhvLayout layout;
  const FieldId sign = layout.declare("sign", 8);
  const FieldId exp = layout.declare("exp", 16);
  const FieldId man = layout.declare("man", 32);
  const FieldId out = layout.declare("out", 32);
  Phv phv(layout);
  phv.set(sign, 1);
  phv.set(exp, 128);
  phv.set(man, 0xC00000 | 0xFF000000);  // upper junk must be masked out
  Action pack{"pack",
              {PrimOp{OpCode::kSetImm, out, {}, {}, 0, 0},
               PrimOp{OpCode::kDeposit, out, man, {}, 0, 23},
               PrimOp{OpCode::kDeposit, out, exp, {}, 23, 8},
               PrimOp{OpCode::kDeposit, out, sign, {}, 31, 1}}};
  apply_action(pack, phv);
  EXPECT_EQ(phv.get(out), 0x80000000u | (128u << 23) | 0x400000u);
}

TEST(Table, ExactMatchAndDefault) {
  PhvLayout layout;
  const FieldId k = layout.declare("k", 8);
  const FieldId v = layout.declare("v", 8);
  Action hit{"hit", {PrimOp{OpCode::kSetImm, v, {}, {}, 1, 0}}};
  Action miss{"miss", {PrimOp{OpCode::kSetImm, v, {}, {}, 2, 0}}};
  MatchTable t("t", MatchKind::kExact, {k}, {hit, miss}, 1);
  t.add_entry({{42}, {}, 0});

  Phv phv(layout);
  phv.set(k, 42);
  apply_action(*t.lookup(phv), phv);
  EXPECT_EQ(phv.get(v), 1u);
  phv.set(k, 43);
  apply_action(*t.lookup(phv), phv);
  EXPECT_EQ(phv.get(v), 2u);
}

TEST(Table, TernaryPriorityOrder) {
  PhvLayout layout;
  const FieldId k = layout.declare("k", 16);
  const FieldId v = layout.declare("v", 8);
  Action a0{"a0", {PrimOp{OpCode::kSetImm, v, {}, {}, 10, 0}}};
  Action a1{"a1", {PrimOp{OpCode::kSetImm, v, {}, {}, 20, 0}}};
  MatchTable t("t", MatchKind::kTernary, {k}, {a0, a1}, -1);
  t.add_entry({{0x0100}, {0x0100}, 0});  // bit 8 set
  t.add_entry({{0x0000}, {0x0000}, 1});  // catch-all, lower priority

  Phv phv(layout);
  phv.set(k, 0x0123);
  apply_action(*t.lookup(phv), phv);
  EXPECT_EQ(phv.get(v), 10u);  // first (higher priority) entry wins
  phv.set(k, 0x0023);
  apply_action(*t.lookup(phv), phv);
  EXPECT_EQ(phv.get(v), 20u);
}

TEST(Table, NoMatchNoDefaultIsNoOp) {
  PhvLayout layout;
  const FieldId k = layout.declare("k", 8);
  MatchTable t("t", MatchKind::kExact, {k}, {Action{"a", {}}}, -1);
  Phv phv(layout);
  phv.set(k, 5);
  EXPECT_EQ(t.lookup(phv), nullptr);
}

TEST(Salu, MenuSemantics) {
  PhvLayout layout;
  const FieldId idx = layout.declare("idx", 16);
  const FieldId x = layout.declare("x", 32);
  const FieldId out = layout.declare("out", 32);
  Phv phv(layout);
  phv.set(idx, 3);
  phv.set(x, 10);

  RegisterArray reg("r", 32, 8);
  reg.write(3, 5);

  auto run = [&](SaluKind kind) {
    reg.begin_packet();
    SaluSpec s;
    s.kind = kind;
    s.index = idx;
    s.x = x;
    s.out = out;
    apply_salu(s, reg, phv, /*rsaw=*/true);
    return phv.get(out);
  };
  EXPECT_EQ(run(SaluKind::kReadOnly), 5u);
  EXPECT_EQ(run(SaluKind::kAddX), 15u);       // out = new
  EXPECT_EQ(run(SaluKind::kMaxX), 15u);       // out = old; reg stays 15
  EXPECT_EQ(reg.read(3), 15u);
  EXPECT_EQ(run(SaluKind::kMinX), 15u);       // reg becomes 10
  EXPECT_EQ(reg.read(3), 10u);
  EXPECT_EQ(run(SaluKind::kWriteX), 10u);     // out = old
  EXPECT_EQ(run(SaluKind::kClear), 10u);
  EXPECT_EQ(reg.read(3), 0u);
  EXPECT_EQ(run(SaluKind::kIncrement), 1u);
  EXPECT_EQ(run(SaluKind::kOrX), 1u);  // old value emitted
  EXPECT_EQ(reg.read(3), 1u | 10u);
}

TEST(Salu, ExpUpdatePredicates) {
  PhvLayout layout;
  const FieldId idx = layout.declare("idx", 16);
  const FieldId x = layout.declare("x", 16);
  const FieldId out = layout.declare("out", 16);
  Phv phv(layout);
  phv.set(idx, 0);
  RegisterArray reg("e", 8, 4);
  reg.write(0, 100);

  SaluSpec s;
  s.kind = SaluKind::kExpUpdate;
  s.index = idx;
  s.x = x;
  s.out = out;
  s.imm = 7;  // FPISA-A headroom predicate

  phv.set(x, 104);  // within headroom: no write
  reg.begin_packet();
  apply_salu(s, reg, phv, false);
  EXPECT_EQ(reg.read(0), 100u);
  EXPECT_EQ(phv.get(out), 100u);

  phv.set(x, 120);  // beyond headroom: overwrite
  reg.begin_packet();
  apply_salu(s, reg, phv, false);
  EXPECT_EQ(reg.read(0), 120u);
  EXPECT_EQ(phv.get(out), 100u);  // old value emitted
}

TEST(Salu, ManUpdateCodes) {
  PhvLayout layout;
  const FieldId idx = layout.declare("idx", 16);
  const FieldId x = layout.declare("x", 32);
  const FieldId code = layout.declare("code", 8);
  const FieldId dist = layout.declare("dist", 8);
  const FieldId out = layout.declare("out", 32);
  Phv phv(layout);
  phv.set(idx, 0);
  RegisterArray reg("m", 32, 4);

  SaluSpec s;
  s.kind = SaluKind::kManUpdate;
  s.index = idx;
  s.x = x;
  s.code = code;
  s.distance = dist;
  s.out = out;

  reg.write(0, 100);
  phv.set(x, 20);
  phv.set(code, 0);  // add
  reg.begin_packet();
  apply_salu(s, reg, phv, true);
  EXPECT_EQ(reg.read(0), 120u);

  phv.set(code, 1);  // overwrite
  reg.begin_packet();
  apply_salu(s, reg, phv, true);
  EXPECT_EQ(reg.read(0), 20u);

  reg.write(0, 0x80);  // 128
  phv.set(code, 2);    // RSAW: reg = (reg >> 3) + x
  phv.set(dist, 3);
  reg.begin_packet();
  apply_salu(s, reg, phv, true);
  EXPECT_EQ(reg.read(0), 16u + 20u);
}

TEST(Salu, RegisterWrapsAtWidth) {
  PhvLayout layout;
  const FieldId idx = layout.declare("idx", 16);
  const FieldId x = layout.declare("x", 32);
  Phv phv(layout);
  phv.set(idx, 0);
  phv.set(x, 1);
  RegisterArray reg("m", 32, 1);
  reg.write(0, 0x7FFFFFFFu);
  SaluSpec s;
  s.kind = SaluKind::kAddX;
  s.index = idx;
  s.x = x;
  reg.begin_packet();
  apply_salu(s, reg, phv, false);
  // Two's complement wrap: exactly what hardware does (§3.3 overflow).
  EXPECT_EQ(reg.read(0), 0x80000000u);
  EXPECT_EQ(reg.read_signed(0), -2147483648LL);
}

TEST(Pipeline, RecirculationAllowsRepeatedRegisterAccess) {
  // Paper §2.3 footnote: recirculation is the (expensive) exception to the
  // once-per-packet register rule. One injected packet with recirc=2
  // performs three stateful increments.
  SwitchProgram prog;
  const FieldId recirc = prog.phv.declare("recirc", 8);
  const FieldId idx = prog.phv.declare("idx", 8);
  const FieldId out = prog.phv.declare("out", 32);
  prog.recirc_field = recirc;
  prog.parser.push_back({recirc, 0, 1, false});
  prog.deparser.push_back({out, 1, 4, false});
  prog.add_register("counter", 32, 4);

  prog.ingress.resize(1);
  SaluSpec spec;
  spec.kind = SaluKind::kIncrement;
  spec.index = idx;
  spec.out = out;
  prog.ingress[0].salus.push_back({{}, 0, spec, 0, {}, 0});
  prog.ingress[0].salu_post_ops.push_back({"", {}});

  SwitchSim sim(SwitchConfig{}, std::move(prog));
  Packet pkt;
  pkt.bytes.assign(5, 0);
  pkt.bytes[0] = 2;  // recirculate twice
  sim.process(pkt);
  EXPECT_EQ(sim.reg(0).read(0), 3u);  // initial pass + 2 recirculations
  EXPECT_EQ(read_be(&pkt.bytes[1], 4), 3u);
  EXPECT_EQ(sim.recirculations(), 2u);

  // Without the recirc request the same program increments once.
  Packet pkt2;
  pkt2.bytes.assign(5, 0);
  sim.process(pkt2);
  EXPECT_EQ(sim.reg(0).read(0), 4u);
  EXPECT_EQ(sim.recirculations(), 2u);
}

TEST(Pipeline, RecirculationIsBounded) {
  // A runaway recirc request is clamped at kMaxRecirculations — the
  // "bandwidth constrained" part of the paper's caveat.
  SwitchProgram prog;
  const FieldId recirc = prog.phv.declare("recirc", 8);
  const FieldId idx = prog.phv.declare("idx", 8);
  prog.recirc_field = recirc;
  prog.parser.push_back({recirc, 0, 1, false});
  prog.add_register("counter", 32, 1);
  prog.ingress.resize(1);
  SaluSpec spec;
  spec.kind = SaluKind::kIncrement;
  spec.index = idx;
  prog.ingress[0].salus.push_back({{}, 0, spec, 0, {}, 0});
  prog.ingress[0].salu_post_ops.push_back({"", {}});

  SwitchSim sim(SwitchConfig{}, std::move(prog));
  Packet pkt;
  pkt.bytes.assign(1, 200);  // absurd recirculation request
  sim.process(pkt);
  EXPECT_EQ(sim.reg(0).read(0),
            1u + static_cast<unsigned>(SwitchSim::kMaxRecirculations));
}

// Release-safe program checks: each program below is hand-built and loaded
// on a baseline (extension-free) switch config.

TEST(Pipeline, RejectsProgramWithMoreStagesThanThePipe) {
  const SwitchConfig baseline;
  SwitchProgram fits;
  fits.ingress.resize(static_cast<std::size_t>(baseline.num_stages) - 1);
  fits.egress.resize(1);
  EXPECT_NO_THROW(SwitchSim(baseline, fits));

  SwitchProgram too_long = fits;
  too_long.egress.resize(2);
  EXPECT_THROW(SwitchSim(baseline, std::move(too_long)),
               std::invalid_argument);
}

TEST(Pipeline, RejectsTwoOperandShiftInTableActionWithoutExtension) {
  for (const OpCode op :
       {OpCode::kShlField, OpCode::kShrField, OpCode::kAsrField}) {
    SwitchProgram prog;
    const FieldId a = prog.phv.declare("a", 32);
    const FieldId d = prog.phv.declare("d", 8);
    prog.egress.resize(1);
    prog.egress[0].tables.emplace_back(
        "align", MatchKind::kExact, std::vector<FieldId>{d},
        std::vector<Action>{{"shift", {PrimOp{op, a, a, d, 0, 0}}}}, 0);
    EXPECT_THROW(SwitchSim(SwitchConfig{}, prog), std::invalid_argument)
        << static_cast<int>(op);

    SwitchConfig extended;
    extended.ext.two_operand_shift = true;
    EXPECT_NO_THROW(SwitchSim(extended, std::move(prog)));
  }
}

TEST(Pipeline, RejectsTwoOperandShiftInSaluPostOpWithoutExtension) {
  for (const OpCode op :
       {OpCode::kShlField, OpCode::kShrField, OpCode::kAsrField}) {
    SwitchProgram prog;
    const FieldId idx = prog.phv.declare("idx", 8);
    const FieldId out = prog.phv.declare("out", 32);
    prog.add_register("r", 32, 1);
    prog.ingress.resize(1);
    SaluSpec spec;
    spec.kind = SaluKind::kReadOnly;
    spec.index = idx;
    spec.out = out;
    prog.ingress[0].salus.push_back({{}, 0, spec, 0, {}, 0});
    prog.ingress[0].salu_post_ops.push_back(
        {"post", {PrimOp{op, out, out, idx, 0, 0}}});
    EXPECT_THROW(SwitchSim(SwitchConfig{}, prog), std::invalid_argument)
        << static_cast<int>(op);

    SwitchConfig extended;
    extended.ext.two_operand_shift = true;
    EXPECT_NO_THROW(SwitchSim(extended, std::move(prog)));
  }
}

TEST(Pipeline, RsawUpdateThrowsWithoutExtension) {
  SwitchProgram prog;
  const FieldId code = prog.phv.declare("code", 8);
  const FieldId x = prog.phv.declare("x", 32);
  const FieldId idx = prog.phv.declare("idx", 8);
  prog.parser.push_back({code, 0, 1, false});
  prog.parser.push_back({x, 1, 4, false});
  prog.add_register("man", 32, 1);
  prog.ingress.resize(1);
  SaluSpec spec;
  spec.kind = SaluKind::kManUpdate;
  spec.index = idx;
  spec.x = x;
  spec.code = code;
  prog.ingress[0].salus.push_back({{}, 0, spec, 0, {}, 0});
  prog.ingress[0].salu_post_ops.push_back({"", {}});

  SwitchSim sim(SwitchConfig{}, std::move(prog));
  Packet pkt;
  pkt.bytes = {0, 0, 0, 0, 5};  // code 0: plain add of 5
  sim.process(pkt);
  EXPECT_EQ(sim.reg(0).read(0), 5u);

  pkt.bytes = {2, 0, 0, 0, 5};  // code 2: RSAW
  EXPECT_THROW(sim.process(pkt), std::invalid_argument);
  EXPECT_EQ(sim.reg(0).read(0), 5u);
}

TEST(Pipeline, RegisterIndexPastTheEndThrowsBeforeAnyAccess) {
  SwitchProgram prog;
  const FieldId idx = prog.phv.declare("idx", 8);
  const FieldId out = prog.phv.declare("out", 32);
  prog.parser.push_back({idx, 0, 1, false});
  prog.add_register("cells", 32, 4);
  prog.ingress.resize(1);
  SaluSpec spec;
  spec.kind = SaluKind::kIncrement;
  spec.index = idx;
  spec.out = out;
  prog.ingress[0].salus.push_back({{}, 0, spec, 0, {}, 0});
  prog.ingress[0].salu_post_ops.push_back({"", {}});

  SwitchSim sim(SwitchConfig{}, std::move(prog));
  Packet pkt;
  pkt.bytes = {200};
  try {
    sim.process(pkt);
    ADD_FAILURE() << "index 200 into a 4-cell register did not throw";
  } catch (const std::out_of_range& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("'cells'"), std::string::npos) << what;
    EXPECT_NE(what.find("200"), std::string::npos) << what;
  }
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(sim.reg(0).read(i), 0u) << i;

  pkt.bytes = {3};  // the last cell: in range, and the switch still works
  sim.process(pkt);
  EXPECT_EQ(sim.reg(0).read(3), 1u);
}

/// Runs `fn`, which must throw E, and returns the error's message.
template <class E, class Fn>
std::string thrown(Fn&& fn) {
  try {
    fn();
  } catch (const E& e) {
    return e.what();
  }
  ADD_FAILURE() << "no exception";
  return {};
}

TEST(Pipeline, RegisterTouchedTwiceInOneTraversalThrowsNamingIt) {
  // Two unconditional stateful calls on one register in one pass: hardware
  // gives each register one access per packet.
  SwitchProgram prog;
  const FieldId idx = prog.phv.declare("idx", 8);
  prog.add_register("hits", 32, 2);
  prog.ingress.resize(2);
  SaluSpec spec;
  spec.kind = SaluKind::kIncrement;
  spec.index = idx;
  for (StageProgram& st : prog.ingress) {
    st.salus.push_back({{}, 0, spec, 0, {}, 0});
    st.salu_post_ops.push_back({"", {}});
  }
  SwitchSim sim(SwitchConfig{}, std::move(prog));
  Packet pkt;
  pkt.bytes = {0};
  const std::string what =
      thrown<std::invalid_argument>([&] { sim.process(pkt); });
  EXPECT_NE(what.find("'hits'"), std::string::npos) << what;
  EXPECT_NE(what.find("twice"), std::string::npos) << what;
}

TEST(Table, MalformedEntriesThrowNamingTheTable) {
  PhvLayout layout;
  const FieldId a = layout.declare("a", 8);
  const FieldId b = layout.declare("b", 8);
  const std::vector<Action> actions{{"one", {}}, {"two", {}}};
  MatchTable exact("pair", MatchKind::kExact, {a, b}, actions);
  // Key arity, then the action index on either side of the range.
  for (const TableEntry& e :
       {TableEntry{{1}, {}, 0}, TableEntry{{1, 2, 3}, {}, 0},
        TableEntry{{1, 2}, {}, 2}, TableEntry{{1, 2}, {}, -1}}) {
    const std::string what =
        thrown<std::invalid_argument>([&] { exact.add_entry(e); });
    EXPECT_NE(what.find("'pair'"), std::string::npos) << what;
  }
  // Ternary and LPM entries carry one mask per key field.
  for (const MatchKind kind : {MatchKind::kTernary, MatchKind::kLpm}) {
    MatchTable masked("masked", kind, {a}, actions);
    const std::string what = thrown<std::invalid_argument>(
        [&] { masked.add_entry({{1}, {}, 0}); });
    EXPECT_NE(what.find("'masked'"), std::string::npos) << what;
    EXPECT_NO_THROW(masked.add_entry({{1}, {0xFF}, 1}));
  }
  // A well-formed exact entry still lands and matches.
  exact.add_entry({{1, 2}, {}, 1});
  Phv phv(layout);
  phv.set(a, 1);
  phv.set(b, 2);
  ASSERT_NE(exact.lookup(phv), nullptr);
  EXPECT_EQ(exact.lookup(phv)->name, "two");
}

TEST(Phv, BadWidthsAndDuplicateNamesThrowNamingTheField) {
  SwitchProgram prog;
  prog.phv.declare("slot", 16);
  for (const int width : {0, 65, -1}) {
    const std::string what = thrown<std::invalid_argument>(
        [&] { prog.phv.declare("wide", width); });
    EXPECT_NE(what.find("'wide'"), std::string::npos) << what;
  }
  const std::string what = thrown<std::invalid_argument>(
      [&] { prog.phv.declare("slot", 8); });
  EXPECT_NE(what.find("'slot'"), std::string::npos) << what;
  // The rejected declarations left the layout as it was.
  EXPECT_EQ(prog.phv.field_count(), 1u);
  EXPECT_EQ(prog.phv.declare("wide", 64).index, 1);
}

TEST(Pipeline, SecondRegisterBankThrowsNamingBoth) {
  SwitchProgram prog;
  prog.add_register("bitmap", 32, 4);
  prog.add_bank_registers("exp", 8, "man", 32, 2, 4);
  const std::string what = thrown<std::invalid_argument>([&] {
    prog.add_bank_registers("exp_b", 8, "man_b", 32, 2, 4);
  });
  EXPECT_NE(what.find("'exp_b'"), std::string::npos) << what;
  EXPECT_NE(what.find("'exp0'"), std::string::npos) << what;
  // The first bank is intact and loads.
  EXPECT_EQ(prog.registers.size(), 5u);
  SwitchSim sim(SwitchConfig{}, std::move(prog));
  EXPECT_EQ(sim.bank().exp.size(), 8u);
}

TEST(Packets, BigEndianHelpers) {
  std::uint8_t buf[4];
  write_be(buf, 4, 0x11223344u);
  EXPECT_EQ(buf[0], 0x11);
  EXPECT_EQ(buf[3], 0x44);
  EXPECT_EQ(read_be(buf, 4), 0x11223344u);
  EXPECT_EQ(byteswap(0x11223344u, 4), 0x44332211u);
  EXPECT_EQ(byteswap(0x1122u, 2), 0x2211u);
}

}  // namespace
}  // namespace fpisa::pisa
