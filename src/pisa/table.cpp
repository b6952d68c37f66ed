#include "pisa/table.h"

#include <cassert>

namespace fpisa::pisa {

void MatchTable::add_entry(TableEntry entry) {
  assert(entry.values.size() == key_fields_.size());
  if (kind_ != MatchKind::kExact) {
    assert(entry.masks.size() == key_fields_.size());
  }
  assert(entry.action_index >= 0 &&
         entry.action_index < static_cast<int>(actions_.size()));
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
