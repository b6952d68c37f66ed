#include "pisa/phv.h"

#include <stdexcept>

namespace fpisa::pisa {

FieldId PhvLayout::declare(std::string name, int width_bits) {
  if (width_bits < 1 || width_bits > 64) {
    throw std::invalid_argument("phv: field '" + name + "' is " +
                                std::to_string(width_bits) +
                                " bits wide; widths are 1..64");
  }
  const FieldId id{static_cast<std::int32_t>(widths_.size())};
  if (!index_.try_emplace(name, id.index).second) {
    throw std::invalid_argument("phv: field '" + name +
                                "' is already declared");
  }
  names_.push_back(std::move(name));
  widths_.push_back(width_bits);
  return id;
}

FieldId PhvLayout::find(std::string_view name) const {
  const auto it = index_.find(std::string(name));
  return it == index_.end() ? FieldId{} : FieldId{it->second};
}

std::int64_t Phv::get_signed(FieldId f) const {
  const int w = layout_->width(f);
  std::uint64_t v = get(f);
  if (w < 64 && (v >> (w - 1)) != 0) {
    v |= ~((std::uint64_t{1} << w) - 1);  // sign-extend
  }
  return static_cast<std::int64_t>(v);
}

void Phv::set(FieldId f, std::uint64_t v) {
  const int w = layout_->width(f);
  if (w < 64) v &= (std::uint64_t{1} << w) - 1;
  values_[static_cast<std::size_t>(f.index)] = v;
}

}  // namespace fpisa::pisa
