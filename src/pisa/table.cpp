#include "pisa/table.h"

#include <stdexcept>
#include <string>

namespace fpisa::pisa {

void MatchTable::add_entry(TableEntry entry) {
  const auto fail = [&](const std::string& why) {
    throw std::invalid_argument("table '" + name_ + "': entry " +
                                std::to_string(entries_.size()) + " " + why);
  };
  const std::size_t keys = key_fields_.size();
  if (entry.values.size() != keys) {
    fail("has " + std::to_string(entry.values.size()) + " key values for " +
         std::to_string(keys) + " key fields");
  }
  if (kind_ != MatchKind::kExact && entry.masks.size() != keys) {
    fail("has " + std::to_string(entry.masks.size()) + " masks for " +
         std::to_string(keys) + " key fields");
  }
  if (entry.action_index < 0 ||
      entry.action_index >= static_cast<int>(actions_.size())) {
    fail("selects action " + std::to_string(entry.action_index) + " of " +
         std::to_string(actions_.size()));
  }
  entries_.push_back(std::move(entry));
}

const Action* MatchTable::lookup(const Phv& phv) const {
  for (const TableEntry& e : entries_) {
    bool hit = true;
    for (std::size_t i = 0; i < key_fields_.size(); ++i) {
      const std::uint64_t key = phv.get(key_fields_[i]);
      if (kind_ == MatchKind::kExact) {
        if (key != e.values[i]) {
          hit = false;
          break;
        }
      } else {
        if ((key & e.masks[i]) != (e.values[i] & e.masks[i])) {
          hit = false;
          break;
        }
      }
    }
    if (hit) return &actions_[static_cast<std::size_t>(e.action_index)];
  }
  if (default_action_ >= 0) {
    return &actions_[static_cast<std::size_t>(default_action_)];
  }
  return nullptr;
}

}  // namespace fpisa::pisa
