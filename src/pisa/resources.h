// Tofino-style MAU resource model and allocator — reproduces the paper's
// Appendix B / Table 3 ("FPISA resource utilization") and its headline
// conclusion: per-stage VLIW pressure from emulating variable-length shifts
// limits baseline Tofino to ONE FPISA module per pipeline, while the §4.2
// 2-operand-shift extension lets many modules share the pipe.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "pisa/pipeline.h"

namespace fpisa::pisa {

/// Resource demand of one logical table (or register/sALU binding) placed
/// in one stage. Produced by program builders; consumed by the allocator.
struct LogicalTableDesc {
  std::string name;
  int stage = 0;      ///< stage index within the program's layout
  MatchKind kind = MatchKind::kExact;
  int key_bits = 0;
  int entries = 0;
  int vliw_slots = 0;     ///< distinct VLIW instructions this table needs
  int stateful_alus = 0;
  std::uint64_t register_bits = 0;  ///< stateful storage bound to the table
  int result_buses = 1;
  bool per_instance = true;  ///< false: shared across parallel FPISA modules
};

/// Per-resource usage/capacity rollup.
struct ResourceRow {
  std::string resource;
  double total_used = 0;
  double total_capacity = 0;
  double max_stage_used = 0;
  double stage_capacity = 0;

  double total_pct() const {
    return total_capacity > 0 ? total_used / total_capacity : 0.0;
  }
  double max_stage_pct() const {
    return stage_capacity > 0 ? max_stage_used / stage_capacity : 0.0;
  }
};

struct ResourceReport {
  int stages_used = 0;
  int total_stages = 0;
  std::vector<ResourceRow> rows;  ///< SRAM, TCAM, sALU, VLIW, xbar, bus, hash

  const ResourceRow* find(const std::string& name) const;
  std::string render() const;  ///< Table-3-style ASCII table
};

/// Derived per-stage usage for one module instance.
struct StageUsage {
  int vliw = 0;
  int salus = 0;
  int sram_blocks = 0;
  int tcam_blocks = 0;
  int xbar_bytes = 0;
  int hash_bits = 0;
  int result_buses = 0;
};

/// Computes per-stage usage from descriptors (SRAM blocks = 128 Kb;
/// TCAM blocks = 44b x 512 entries; hash bits modeled as
/// 4 ways * ceil(log2(entries)) for exact tables). Throws
/// std::out_of_range, in every build, naming the table, when a descriptor
/// (shared or not) lies outside stages [0, num_stages); analyze() and
/// max_instances() check through it.
std::vector<StageUsage> stage_usage(const std::vector<LogicalTableDesc>& descs,
                                    int num_stages, bool shared_only = false);

/// Analyzes a single module instance against the switch limits.
ResourceReport analyze(const std::vector<LogicalTableDesc>& descs,
                       const SwitchConfig& config);

/// Greedy packer: how many parallel module instances fit in one pipeline?
/// Instances may stagger their stage layout downward within the pipe (the
/// dependency order of the module's tables is preserved); shared
/// (per_instance=false) resources are placed once.
int max_instances(const std::vector<LogicalTableDesc>& descs,
                  const SwitchConfig& config);

}  // namespace fpisa::pisa
