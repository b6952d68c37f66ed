#include "pisa/resources.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "util/table.h"

namespace fpisa::pisa {
namespace {

constexpr double kSramBlockBits = 128.0 * 1024.0;  // 128 Kb blocks
constexpr int kTcamBlockEntries = 512;
constexpr int kTcamBlockKeyBits = 44;
constexpr int kHashWays = 4;

int sram_blocks_for(const LogicalTableDesc& d) {
  int blocks = 0;
  if (d.kind == MatchKind::kExact && d.entries > 0) {
    // Key + action data per entry; tiny tables still occupy one block.
    const double bits = static_cast<double>(d.entries) * (d.key_bits + 32);
    blocks += std::max(1, static_cast<int>(std::ceil(bits / kSramBlockBits)));
  }
  if (d.register_bits > 0) {
    blocks += static_cast<int>(
        std::ceil(static_cast<double>(d.register_bits) / kSramBlockBits));
  }
  return blocks;
}

int tcam_blocks_for(const LogicalTableDesc& d) {
  if (d.kind == MatchKind::kExact || d.entries == 0) return 0;
  const int rows = (d.entries + kTcamBlockEntries - 1) / kTcamBlockEntries;
  const int cols = (d.key_bits + kTcamBlockKeyBits - 1) / kTcamBlockKeyBits;
  return rows * cols;
}

int hash_bits_for(const LogicalTableDesc& d) {
  if (d.kind != MatchKind::kExact || d.entries == 0) return 0;
  int lg = 1;
  while ((1 << lg) < d.entries) ++lg;
  return lg * kHashWays;
}

int xbar_bytes_for(const LogicalTableDesc& d) {
  return (d.key_bits + 7) / 8;
}

void add_desc(StageUsage& u, const LogicalTableDesc& d) {
  u.vliw += d.vliw_slots;
  u.salus += d.stateful_alus;
  u.sram_blocks += sram_blocks_for(d);
  u.tcam_blocks += tcam_blocks_for(d);
  u.xbar_bytes += xbar_bytes_for(d);
  u.hash_bits += hash_bits_for(d);
  u.result_buses += d.result_buses;
}

bool fits(const StageUsage& used, const StageUsage& extra,
          const StageLimits& lim) {
  return used.vliw + extra.vliw <= lim.vliw_slots &&
         used.salus + extra.salus <= lim.stateful_alus &&
         used.sram_blocks + extra.sram_blocks <= lim.sram_blocks &&
         used.tcam_blocks + extra.tcam_blocks <= lim.tcam_blocks &&
         used.xbar_bytes + extra.xbar_bytes <= lim.xbar_bytes &&
         used.hash_bits + extra.hash_bits <= lim.hash_bits &&
         used.result_buses + extra.result_buses <= lim.result_buses;
}

void accumulate(StageUsage& into, const StageUsage& from) {
  into.vliw += from.vliw;
  into.salus += from.salus;
  into.sram_blocks += from.sram_blocks;
  into.tcam_blocks += from.tcam_blocks;
  into.xbar_bytes += from.xbar_bytes;
  into.hash_bits += from.hash_bits;
  into.result_buses += from.result_buses;
}

}  // namespace

std::vector<StageUsage> stage_usage(const std::vector<LogicalTableDesc>& descs,
                                    int num_stages, bool shared_only) {
  std::vector<StageUsage> stages(static_cast<std::size_t>(num_stages));
  for (const auto& d : descs) {
    if (d.stage < 0 || d.stage >= num_stages) {
      throw std::out_of_range("stage_usage: table " + d.name +
                              " is laid out in stage " +
                              std::to_string(d.stage) + " of a " +
                              std::to_string(num_stages) + "-stage pipe");
    }
    if (shared_only && d.per_instance) continue;
    add_desc(stages[static_cast<std::size_t>(d.stage)], d);
  }
  return stages;
}

const ResourceRow* ResourceReport::find(const std::string& name) const {
  for (const auto& r : rows) {
    if (r.resource == name) return &r;
  }
  return nullptr;
}

std::string ResourceReport::render() const {
  util::Table t({"Resource", "Total usage", "Max usage in a MAU"});
  for (const auto& r : rows) {
    t.add_row({r.resource, util::Table::pct(r.total_pct(), 2),
               util::Table::pct(r.max_stage_pct(), 2)});
  }
  std::string out = t.render();
  out += "Stages used: " + std::to_string(stages_used) + " of " +
         std::to_string(total_stages) + "\n";
  return out;
}

ResourceReport analyze(const std::vector<LogicalTableDesc>& descs,
                       const SwitchConfig& config) {
  const auto stages = stage_usage(descs, config.num_stages);
  const StageLimits& lim = config.limits;
  const double n = config.num_stages;

  ResourceReport report;
  report.total_stages = config.num_stages;
  for (const auto& s : stages) {
    if (s.vliw || s.salus || s.sram_blocks || s.tcam_blocks || s.xbar_bytes ||
        s.hash_bits) {
      ++report.stages_used;
    }
  }

  auto row = [&](const std::string& name, auto member, double cap) {
    ResourceRow r;
    r.resource = name;
    r.stage_capacity = cap;
    r.total_capacity = cap * n;
    for (const auto& s : stages) {
      const double used = static_cast<double>(s.*member);
      r.total_used += used;
      r.max_stage_used = std::max(r.max_stage_used, used);
    }
    report.rows.push_back(r);
  };
  row("SRAM", &StageUsage::sram_blocks, lim.sram_blocks);
  row("TCAM", &StageUsage::tcam_blocks, lim.tcam_blocks);
  row("Stateful ALU", &StageUsage::salus, lim.stateful_alus);
  row("VLIW instruction slots", &StageUsage::vliw, lim.vliw_slots);
  row("Input crossbar", &StageUsage::xbar_bytes, lim.xbar_bytes);
  row("Result bus", &StageUsage::result_buses, lim.result_buses);
  row("Hash bit", &StageUsage::hash_bits, lim.hash_bits);
  return report;
}

int max_instances(const std::vector<LogicalTableDesc>& descs,
                  const SwitchConfig& config) {
  const StageLimits& lim = config.limits;
  const int n = config.num_stages;

  // Residual usage starts with the shared (once-per-pipeline) logic placed
  // at its declared stages.
  std::vector<StageUsage> used = stage_usage(descs, n, /*shared_only=*/true);

  // Per-instance usage at declared stages.
  std::vector<StageUsage> inst(static_cast<std::size_t>(n));
  int span = 0;
  for (const auto& d : descs) {
    if (!d.per_instance) continue;
    add_desc(inst[static_cast<std::size_t>(d.stage)], d);
    span = std::max(span, d.stage + 1);
  }

  int count = 0;
  constexpr int kCap = 256;  // safety bound
  while (count < kCap) {
    bool placed = false;
    // Instances keep their internal stage order but may shift down the pipe.
    for (int delta = 0; delta + span <= n && !placed; ++delta) {
      bool ok = true;
      for (int s = 0; s < span && ok; ++s) {
        ok = fits(used[static_cast<std::size_t>(s + delta)],
                  inst[static_cast<std::size_t>(s)], lim);
      }
      if (ok) {
        for (int s = 0; s < span; ++s) {
          accumulate(used[static_cast<std::size_t>(s + delta)],
                     inst[static_cast<std::size_t>(s)]);
        }
        placed = true;
      }
    }
    if (!placed) break;
    ++count;
  }
  return count;
}

}  // namespace fpisa::pisa
