#include "pisa/pipeline.h"

#include <algorithm>
#include <stdexcept>

namespace fpisa::pisa {
namespace {

/// Throws std::invalid_argument, in every build, unless `program` fits in
/// the pipe's stages and uses only primitives `config` provides.
void check_stages(const SwitchConfig& config, const PipelineStages& program) {
  const std::size_t stages = program.ingress.size() + program.egress.size();
  if (stages > static_cast<std::size_t>(config.num_stages)) {
    throw std::invalid_argument(
        "SwitchSim: program uses " + std::to_string(stages) +
        " MAU stages; the pipe has " + std::to_string(config.num_stages));
  }
  if (config.ext.two_operand_shift) return;
  const auto check = [](const Action& action) {
    for (const PrimOp& p : action.ops) {
      if (requires_shift_extension(p.op)) {
        throw std::invalid_argument(
            "SwitchSim: action '" + action.name +
            "' uses a two-operand shift on a switch without the extension");
      }
    }
  };
  for (const auto* pipe : {&program.ingress, &program.egress}) {
    for (const StageProgram& stage : *pipe) {
      for (const MatchTable& table : stage.tables) {
        for (const Action& action : table.actions()) check(action);
      }
      for (const Action& action : stage.salu_post_ops) check(action);
    }
  }
}

/// The shortest packet every parser and deparser field fits in.
std::size_t min_packet_bytes(const SwitchProgram& program) {
  std::size_t n = 0;
  for (const auto* fields : {&program.parser, &program.deparser}) {
    for (const ParsedField& f : *fields) {
      n = std::max(n, static_cast<std::size_t>(f.byte_offset + f.byte_len));
    }
  }
  return n;
}

}  // namespace

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

int SwitchProgram::add_register(std::string name, int width_bits,
                                std::size_t size) {
  registers.push_back({std::move(name), width_bits, size});
  return static_cast<int>(registers.size()) - 1;
}

int SwitchProgram::add_bank_registers(const std::string& exp_name,
                                      int exp_bits,
                                      const std::string& man_name,
                                      int man_bits, int lanes,
                                      std::size_t slots) {
  if (bank_lanes != 0) {
    const auto held = std::find_if(
        registers.begin(), registers.end(), [](const RegisterDecl& d) {
          return d.storage != RegisterDecl::Storage::kOwned;
        });
    throw std::invalid_argument(
        "SwitchProgram: register bank '" + exp_name + "'/'" + man_name +
        "' would be a second bank beside the one holding '" + held->name +
        "'");
  }
  bank_lanes = static_cast<std::size_t>(lanes);
  bank_slots = slots;
  const int first = static_cast<int>(registers.size());
  for (int l = 0; l < lanes; ++l) {
    const std::string s = std::to_string(l);
    registers.push_back({exp_name + s, exp_bits, slots,
                         RegisterDecl::Storage::kBankExp, l});
    registers.push_back({man_name + s, man_bits, slots,
                         RegisterDecl::Storage::kBankMan, l});
  }
  return first;
}

SwitchSim::SwitchSim(SwitchConfig config,
                     std::shared_ptr<const SwitchProgram> program)
    : config_(config),
      program_(std::move(program)),
      bank_(program_->bank_lanes * program_->bank_slots),
      min_packet_bytes_(min_packet_bytes(*program_)) {
  check_stages(config_, *program_);
  if (!program_->build_stages) {
    // The program's own stages, kept alive by the program itself.
    stages_ = std::shared_ptr<const PipelineStages>(program_, program_.get());
  }
  const std::size_t stride = program_->bank_lanes;
  regs_.reserve(program_->registers.size());
  for (const RegisterDecl& d : program_->registers) {
    const auto lane = static_cast<std::size_t>(d.lane);
    switch (d.storage) {
      case RegisterDecl::Storage::kOwned:
        regs_.push_back(
            std::make_unique<RegisterArray>(d.name, d.width_bits, d.size));
        break;
      case RegisterDecl::Storage::kBankExp:
        regs_.push_back(std::make_unique<RegisterArray>(
            d.name, d.width_bits, d.size, bank_.exp.data() + lane, stride,
            RegisterArray::Extend::kZero));
        break;
      case RegisterDecl::Storage::kBankMan:
        regs_.push_back(std::make_unique<RegisterArray>(
            d.name, d.width_bits, d.size, bank_.man.data() + lane, stride,
            RegisterArray::Extend::kSign));
        break;
    }
  }
}

SwitchSim::SwitchSim(SwitchConfig config, SwitchProgram program)
    : SwitchSim(config,
                std::make_shared<const SwitchProgram>(std::move(program))) {}

void SwitchSim::run_stages(const std::vector<StageProgram>& stages, Phv& phv) {
  for (const StageProgram& stage : stages) {
    for (const MatchTable& table : stage.tables) {
      if (const Action* a = table.lookup(phv)) {
        apply_action(*a, phv);
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
      apply_salu(call.spec, reg(call.register_index), phv, config_.ext.rsaw);
      if (s < stage.salu_post_ops.size()) {
        apply_action(stage.salu_post_ops[s], phv);
      }
    }
  }
}

void SwitchSim::begin_packet() {
  for (auto& reg : regs_) reg->begin_packet();
}

void SwitchSim::process(Packet& pkt) {
  if (pkt.bytes.size() < min_packet_bytes_) {
    throw std::invalid_argument(
        "SwitchSim: " + std::to_string(pkt.bytes.size()) +
        "-byte packet is shorter than the program's " +
        std::to_string(min_packet_bytes_) + "-byte header");
  }
  if (stages_ == nullptr) {
    std::shared_ptr<const PipelineStages> built = program_->build_stages();
    check_stages(config_, *built);
    stages_ = std::move(built);
  }
  account_packets(1);
  begin_packet();

  const SwitchProgram& prog = *program_;
  const PipelineStages& stages = *stages_;
  Phv phv(prog.phv);
  // Parse: extract declared fields (network byte order; optional
  // endianness conversion if the extension is enabled).
  for (const ParsedField& f : prog.parser) {
    std::uint64_t v = read_be(pkt.bytes.data() + f.byte_offset, f.byte_len);
    if (f.convert && config_.ext.parser_endianness) {
      v = byteswap(v, f.byte_len);
    }
    phv.set(f.field, v);
  }

  run_stages(stages.ingress, phv);
  // Traffic manager: queueing is modeled by src/net; functionally a pass.
  run_stages(stages.egress, phv);

  // Recirculation: bounded re-entry into the ingress pipeline. Each pass
  // is a new packet traversal, so the once-per-packet register guard
  // resets — this is precisely the paper's "exception" to the single
  // register access rule.
  if (prog.recirc_field.valid()) {
    int passes = 0;
    while (phv.get(prog.recirc_field) != 0 &&
           passes < kMaxRecirculations) {
      ++passes;
      ++recirculations_;
      phv.set(prog.recirc_field, phv.get(prog.recirc_field) - 1);
      begin_packet();
      run_stages(stages.ingress, phv);
      run_stages(stages.egress, phv);
    }
  }

  // Deparse: write fields back into the packet.
  for (const ParsedField& f : prog.deparser) {
    std::uint64_t v = phv.get(f.field);
    if (f.convert && config_.ext.parser_endianness) {
      v = byteswap(v, f.byte_len);
    }
    write_be(pkt.bytes.data() + f.byte_offset, f.byte_len, v);
  }
}

}  // namespace fpisa::pisa
