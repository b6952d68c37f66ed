// The switch: programmable parser -> ingress MAU stages -> traffic manager
// -> egress MAU stages -> deparser (paper Fig 1), with the architectural
// knobs of §4 (baseline Tofino vs the proposed extensions) as configuration.
//
// Code and state are split the way a compiled data-plane program is loaded
// onto hardware: a SwitchProgram is immutable code that any number of
// switches may share through a std::shared_ptr<const SwitchProgram>; a
// SwitchSim owns only the per-switch state, the register cells it builds
// from the program's declarations. Running a packet never writes the
// program.
//
// A program is a layout (PHV, parser and deparser bindings, register
// declarations) plus its MAU stages. Only the interpreter
// (SwitchSim::process) reads the stages, so a program may leave them to be
// built on demand: the switch then builds or fetches them on its first
// interpreted packet (SwitchProgram::build_stages), and a switch that only
// ever runs a compiled fast path over its registers never pays for them.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/batch_accumulator.h"
#include "pisa/action.h"
#include "pisa/phv.h"
#include "pisa/salu.h"
#include "pisa/table.h"

namespace fpisa::pisa {

/// The §4.2 hardware proposals. All default off = today's Tofino.
struct Extensions {
  bool two_operand_shift = false;  ///< shl/shr reg.distance, reg.value
  bool rsaw = false;               ///< atomic read-shift-add-write sALU
  bool parser_endianness = false;  ///< @convert_endianness in parser/deparser
};

/// Per-stage resource capacities (public Tofino-generation figures; these
/// drive the Table 3 reproduction — see src/pisa/resources.*).
struct StageLimits {
  int vliw_slots = 32;
  int stateful_alus = 4;
  int sram_blocks = 80;    // 128 Kb blocks
  int tcam_blocks = 24;    // 44b x 512 blocks
  int xbar_bytes = 194;    // 128B exact + 66B ternary crossbar
  int hash_bits = 416;
  int result_buses = 8;
};

struct SwitchConfig {
  int num_stages = 12;  ///< physical MAU stages in the pipe
  StageLimits limits;
  Extensions ext;
};

/// A raw packet: bytes on the wire.
struct Packet {
  std::vector<std::uint8_t> bytes;
};

/// Parser/deparser field binding: bytes [offset, offset+len) of the packet
/// hold this field in network byte order (big-endian). If `convert` is set
/// *and* the parser-endianness extension is enabled, the value is
/// byte-swapped on extract and swap-restored on deparse — modeling hosts
/// that send native little-endian payloads (§4.1 "Endianness conversion").
struct ParsedField {
  FieldId field;
  int byte_offset = 0;
  int byte_len = 0;
  bool convert = false;
};

/// One stateful-ALU invocation in a stage, optionally predicated on a PHV
/// field value (models the sALU's internal predication on packet type).
struct StatefulCall {
  FieldId pred_field;  ///< invalid = unconditional
  std::uint64_t pred_value = 0;
  SaluSpec spec;
  int register_index = -1;  ///< index into SwitchProgram::registers
  FieldId pred2_field;  ///< optional second predicate (e.g. dedup flag)
  std::uint64_t pred2_value = 0;
};

/// One MAU stage's logic: match tables execute first (in order), then
/// stateful calls (each may carry post-ops that run right after it — the
/// sALU's output ALU path).
struct StageProgram {
  std::vector<MatchTable> tables;
  std::vector<StatefulCall> salus;
  std::vector<Action> salu_post_ops;  ///< parallel to `salus`
};

/// A register the program declares: its name, width and element count, and
/// where its cells live. The declaration is code; the cells are state that
/// each SwitchSim builds from it.
struct RegisterDecl {
  enum class Storage : std::uint8_t {
    kOwned,    ///< the array owns its cells
    kBankExp,  ///< zero-extended view of lane `lane` of the bank's exp half
    kBankMan,  ///< sign-extended view of lane `lane` of the bank's man half
  };
  std::string name;
  int width_bits = 0;
  std::size_t size = 0;
  Storage storage = Storage::kOwned;
  int lane = 0;  ///< bank views only
};

/// A program's MAU stages: the only part of it the interpreter reads that
/// a compiled fast path does not.
struct PipelineStages {
  std::vector<StageProgram> ingress;  ///< one per physical stage used
  std::vector<StageProgram> egress;
};

/// A complete dataplane program: immutable code, shared by every switch
/// that loads it. It holds no register cells, only their declarations.
/// Hand-built programs fill in their stages directly (the inherited
/// ingress / egress); a program whose stages are built on demand leaves
/// them empty and sets build_stages instead.
struct SwitchProgram : PipelineStages {
  PhvLayout phv;
  std::vector<ParsedField> parser;
  std::vector<ParsedField> deparser;
  /// In StatefulCall::register_index order; SwitchSim::reg(i) is the cells
  /// of registers[i].
  std::vector<RegisterDecl> registers;
  /// Set by a program whose stages are built on demand: returns them, built
  /// against this program's PHV layout and register declarations. A switch
  /// calls it once, on its first interpreted packet, and holds the result.
  std::function<std::shared_ptr<const PipelineStages>()> build_stages;
  /// Optional recirculation counter field (paper §2.3 footnote: the one
  /// exception to once-per-packet register access, "costly and bandwidth
  /// constrained"). While nonzero after egress, the packet re-enters the
  /// ingress pipeline with the field decremented; each pass is a fresh
  /// traversal (registers may be touched again). Bounded by
  /// kMaxRecirculations.
  FieldId recirc_field{};
  /// Shape of the slot-major lane register bank the kBankExp / kBankMan
  /// declarations view (see add_bank_registers); zero lanes = no bank.
  std::size_t bank_lanes = 0;
  std::size_t bank_slots = 0;

  /// Declares an owned register; returns its index.
  int add_register(std::string name, int width_bits, std::size_t size);
  /// Declares a `lanes` x `slots` bank and, for each lane l in order, the
  /// registers `<exp_name>l` (zero-extended, in bank.exp) and `<man_name>l`
  /// (sign-extended, in bank.man) as strided views onto it: lane l of slot
  /// s is cell s * lanes + l, so one packet's lanes are adjacent and a
  /// compiled fast path can run the core lane kernels over them as one
  /// contiguous span. Returns the index of lane 0's exponent register; lane
  /// l's pair sits at that index + 2l and + 2l + 1. A program has one
  /// bank: a second call throws std::invalid_argument naming both, in
  /// every build.
  int add_bank_registers(const std::string& exp_name, int exp_bits,
                         const std::string& man_name, int man_bits, int lanes,
                         std::size_t slots);
};

/// Functional switch simulator: one switch's register state, running a
/// shared program over packets.
class SwitchSim {
 public:
  /// Loads `program` and builds zeroed register cells from its
  /// declarations. Switches loading the same program share it; each owns
  /// its own cells. Throws std::invalid_argument, in every build, when the
  /// program's stages need more MAU stages than config.num_stages, or a
  /// table action or SALU post-op uses a two-operand shift (kShlField /
  /// kShrField / kAsrField) without config.ext.two_operand_shift. Stages
  /// built on demand get the same checks when they are loaded.
  SwitchSim(SwitchConfig config, std::shared_ptr<const SwitchProgram> program);
  /// Loads a program no other switch shares (hand-built programs).
  SwitchSim(SwitchConfig config, SwitchProgram program);

  /// Processes one packet in place (parse, ingress, TM, egress, deparse).
  /// The first packet on a program with build_stages loads its stages. A
  /// packet too short for a parser or deparser field throws
  /// std::invalid_argument, in every build, before any state changes; so
  /// does a stateful call that touches a register its traversal already
  /// touched (the error names the register), though the traversal's
  /// earlier stages have then run.
  void process(Packet& pkt);

  /// The stages process() runs: the program's own, or those it built on
  /// demand; null until the first packet loads stages built on demand.
  const PipelineStages* stages() const { return stages_.get(); }

  /// Direct register inspection for tests: the cells of
  /// program().registers[index].
  const RegisterArray& reg(int index) const {
    return *regs_[static_cast<std::size_t>(index)];
  }
  RegisterArray& reg(int index) {
    return *regs_[static_cast<std::size_t>(index)];
  }

  /// This switch's slot-major lane register bank (the cells behind its
  /// banked register views).
  core::RegisterFile& bank() { return bank_; }

  const SwitchProgram& program() const { return *program_; }

  std::uint64_t packets_processed() const { return packets_; }
  /// Accounts packets applied through a program's compiled fast path (e.g.
  /// FpisaSwitch::admit) rather than a full `process` traversal, so
  /// packet statistics stay truthful for either datapath.
  void account_packets(std::uint64_t n) { packets_ += n; }
  /// Extra pipeline passes consumed by recirculation: each one costs a
  /// slot of ingress bandwidth (why the paper calls it expensive).
  std::uint64_t recirculations() const { return recirculations_; }

  static constexpr int kMaxRecirculations = 8;

 private:
  void run_stages(const std::vector<StageProgram>& stages, Phv& phv);
  void begin_packet();

  SwitchConfig config_;
  std::shared_ptr<const SwitchProgram> program_;
  /// Either an alias of program_'s own stages or the shared stages its
  /// build_stages returned.
  std::shared_ptr<const PipelineStages> stages_;
  /// Never resized after construction: the bank views in `regs_` hold
  /// pointers into it (moving the switch keeps them valid).
  core::RegisterFile bank_;
  std::size_t min_packet_bytes_;  ///< covers every parser/deparser field
  std::vector<std::unique_ptr<RegisterArray>> regs_;
  std::uint64_t packets_ = 0;
  std::uint64_t recirculations_ = 0;
};

/// Big-endian packet byte helpers (network order).
std::uint64_t read_be(const std::uint8_t* p, int len);
void write_be(std::uint8_t* p, int len, std::uint64_t v);
std::uint64_t byteswap(std::uint64_t v, int len);

}  // namespace fpisa::pisa
