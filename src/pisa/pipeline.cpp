#include "pisa/pipeline.h"

#include <cassert>

namespace fpisa::pisa {

std::uint64_t read_be(const std::uint8_t* p, int len) {
  std::uint64_t v = 0;
  for (int i = 0; i < len; ++i) v = (v << 8) | p[i];
  return v;
}

void write_be(std::uint8_t* p, int len, std::uint64_t v) {
  for (int i = len - 1; i >= 0; --i) {
    p[i] = static_cast<std::uint8_t>(v & 0xFF);
    v >>= 8;
  }
}

std::uint64_t byteswap(std::uint64_t v, int len) {
  std::uint64_t out = 0;
  for (int i = 0; i < len; ++i) {
    out = (out << 8) | (v & 0xFF);
    v >>= 8;
  }
  return out;
}

RegisterArray& SwitchProgram::add_register(std::string name, int width_bits,
                                           std::size_t size) {
  registers.push_back(
      std::make_unique<RegisterArray>(std::move(name), width_bits, size));
  return *registers.back();
}

int SwitchProgram::add_bank_registers(const std::string& exp_name,
                                      int exp_bits,
                                      const std::string& man_name,
                                      int man_bits, int lanes,
                                      std::size_t slots) {
  assert(bank.size() == 0 && "a program has one register bank");
  const auto stride = static_cast<std::size_t>(lanes);
  bank = core::RegisterFile(stride * slots);
  const int first = static_cast<int>(registers.size());
  for (int l = 0; l < lanes; ++l) {
    const std::string s = std::to_string(l);
    const auto off = static_cast<std::size_t>(l);
    registers.push_back(std::make_unique<RegisterArray>(
        exp_name + s, exp_bits, slots, bank.exp.data() + off, stride,
        RegisterArray::Extend::kZero));
    registers.push_back(std::make_unique<RegisterArray>(
        man_name + s, man_bits, slots, bank.man.data() + off, stride,
        RegisterArray::Extend::kSign));
  }
  return first;
}

SwitchSim::SwitchSim(SwitchConfig config, SwitchProgram program)
    : config_(config), program_(std::move(program)) {
  assert(static_cast<int>(program_.ingress.size()) +
                 static_cast<int>(program_.egress.size()) <=
             config_.num_stages &&
         "program uses more MAU stages than the pipe has");
}

void SwitchSim::run_stages(std::vector<StageProgram>& stages, Phv& phv) {
  for (StageProgram& stage : stages) {
    for (const MatchTable& table : stage.tables) {
      if (const Action* a = table.lookup(phv)) {
        apply_action(*a, phv, config_.ext.two_operand_shift);
      }
    }
    for (std::size_t s = 0; s < stage.salus.size(); ++s) {
      const StatefulCall& call = stage.salus[s];
      if (call.pred_field.valid() &&
          phv.get(call.pred_field) != call.pred_value) {
        continue;
      }
      if (call.pred2_field.valid() &&
          phv.get(call.pred2_field) != call.pred2_value) {
        continue;
      }
      RegisterArray& reg =
          *program_.registers[static_cast<std::size_t>(call.register_index)];
      apply_salu(call.spec, reg, phv, config_.ext.rsaw);
      if (s < stage.salu_post_ops.size()) {
        apply_action(stage.salu_post_ops[s], phv,
                     config_.ext.two_operand_shift);
      }
    }
  }
}

void SwitchSim::process(Packet& pkt) {
  ++packets_;
  for (auto& reg : program_.registers) reg->begin_packet();

  Phv phv(program_.phv);
  // Parse: extract declared fields (network byte order; optional
  // endianness conversion if the extension is enabled).
  for (const ParsedField& f : program_.parser) {
    assert(f.byte_offset + f.byte_len <= static_cast<int>(pkt.bytes.size()));
    std::uint64_t v = read_be(pkt.bytes.data() + f.byte_offset, f.byte_len);
    if (f.convert && config_.ext.parser_endianness) {
      v = byteswap(v, f.byte_len);
    }
    phv.set(f.field, v);
  }

  run_stages(program_.ingress, phv);
  // Traffic manager: queueing is modeled by src/net; functionally a pass.
  run_stages(program_.egress, phv);

  // Recirculation: bounded re-entry into the ingress pipeline. Each pass
  // is a new packet traversal, so the once-per-packet register guard
  // resets — this is precisely the paper's "exception" to the single
  // register access rule.
  if (program_.recirc_field.valid()) {
    int passes = 0;
    while (phv.get(program_.recirc_field) != 0 &&
           passes < kMaxRecirculations) {
      ++passes;
      ++recirculations_;
      phv.set(program_.recirc_field, phv.get(program_.recirc_field) - 1);
      for (auto& reg : program_.registers) reg->begin_packet();
      run_stages(program_.ingress, phv);
      run_stages(program_.egress, phv);
    }
  }

  // Deparse: write fields back into the packet.
  for (const ParsedField& f : program_.deparser) {
    assert(f.byte_offset + f.byte_len <= static_cast<int>(pkt.bytes.size()));
    std::uint64_t v = phv.get(f.field);
    if (f.convert && config_.ext.parser_endianness) {
      v = byteswap(v, f.byte_len);
    }
    write_be(pkt.bytes.data() + f.byte_offset, f.byte_len, v);
  }
}

}  // namespace fpisa::pisa
