// Packet Header Vector: the per-packet metadata that flows through a PISA
// pipeline (paper Fig 1). Fields are fixed-width integer containers declared
// up front (the "parser ... extracts user-specified fields of the inbound
// packet to per-packet metadata"); match keys and action operands can only
// reference these containers.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace fpisa::pisa {

/// Handle to a declared PHV field.
struct FieldId {
  std::int32_t index = -1;
  bool valid() const { return index >= 0; }
  friend bool operator==(FieldId a, FieldId b) { return a.index == b.index; }
};

/// Declares the fields a program uses. Widths are in bits (1..64); values
/// are stored masked to their width. Signed interpretation (for arithmetic
/// shifts and signed compares) sign-extends from the declared width.
class PhvLayout {
 public:
  /// Throws std::invalid_argument naming the field, in every build, unless
  /// 1 <= width_bits <= 64 and no field of that name is declared yet.
  FieldId declare(std::string name, int width_bits);
  FieldId find(std::string_view name) const;  ///< invalid id if absent

  int width(FieldId f) const { return widths_[static_cast<std::size_t>(f.index)]; }
  const std::string& name(FieldId f) const {
    return names_[static_cast<std::size_t>(f.index)];
  }
  std::size_t field_count() const { return widths_.size(); }

 private:
  std::vector<std::string> names_;
  std::vector<int> widths_;
  std::unordered_map<std::string, std::int32_t> index_;  ///< name -> id
};

/// A packet's field values. Cheap to copy; one per packet traversal.
class Phv {
 public:
  explicit Phv(const PhvLayout& layout)
      : layout_(&layout), values_(layout.field_count(), 0) {}

  /// Unsigned value, masked to the field width.
  std::uint64_t get(FieldId f) const {
    return values_[static_cast<std::size_t>(f.index)];
  }
  /// Signed value: sign-extended from the field width.
  std::int64_t get_signed(FieldId f) const;

  void set(FieldId f, std::uint64_t v);

 private:
  const PhvLayout* layout_;
  std::vector<std::uint64_t> values_;
};

}  // namespace fpisa::pisa
