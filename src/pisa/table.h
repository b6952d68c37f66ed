// Match tables: exact (SRAM hash), ternary (TCAM, priority ordered) and LPM
// (a ternary specialization — how FPISA gets count-leading-zeros, Fig 5).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "pisa/action.h"
#include "pisa/phv.h"

namespace fpisa::pisa {

enum class MatchKind { kExact, kTernary, kLpm };

/// One table entry. For kExact, `masks` is ignored. For kTernary, a key
/// matches if (key & mask) == (value & mask); entries are tried in
/// insertion order (priority). For kLpm the single key's mask must be a
/// prefix mask; insertion order must be longest-prefix-first (the builder
/// in fpisa_program.* guarantees this for the CLZ table).
struct TableEntry {
  std::vector<std::uint64_t> values;
  std::vector<std::uint64_t> masks;
  int action_index = 0;
};

class MatchTable {
 public:
  MatchTable(std::string name, MatchKind kind, std::vector<FieldId> key_fields,
             std::vector<Action> actions, int default_action = -1)
      : name_(std::move(name)),
        kind_(kind),
        key_fields_(std::move(key_fields)),
        actions_(std::move(actions)),
        default_action_(default_action) {}

  /// Throws std::invalid_argument naming the table, in every build, unless
  /// the entry has one value per key field (and one mask, for ternary and
  /// LPM tables) and selects one of the table's actions.
  void add_entry(TableEntry entry);

  /// Looks up the PHV's key; returns the selected action (default action if
  /// no entry matches and a default exists, otherwise nullopt = no-op).
  const Action* lookup(const Phv& phv) const;

  const std::string& name() const { return name_; }
  const std::vector<Action>& actions() const { return actions_; }

 private:
  std::string name_;
  MatchKind kind_;
  std::vector<FieldId> key_fields_;
  std::vector<Action> actions_;
  int default_action_;
  std::vector<TableEntry> entries_;
};

}  // namespace fpisa::pisa
