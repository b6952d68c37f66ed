// Machine-readable bench output: every bench/ binary writes its headline
// metrics to BENCH_<name>.json alongside the human-readable stdout tables,
// so the performance trajectory can be diffed and tracked across PRs.
#pragma once

#include <string>
#include <utility>
#include <vector>

namespace fpisa::util {

/// Collects key -> metric pairs (insertion order preserved) and serializes
/// them as one JSON object: {"bench": <name>, "build": {...}, "metrics":
/// {...}}. The "build" object carries util::build_info() (git describe,
/// compiler, AVX2 on/off, sanitizer mode) on every file automatically.
class BenchJson {
 public:
  explicit BenchJson(std::string bench_name) : name_(std::move(bench_name)) {}

  void set(const std::string& key, double value);
  /// Embeds `json` verbatim as the value (caller guarantees it is valid
  /// JSON) — how benches attach a telemetry::Snapshot::json() dump.
  void set_raw(const std::string& key, std::string json);

  const std::string& name() const { return name_; }
  std::string render() const;

  /// Writes `<dir>/BENCH_<name>.json`; returns false on I/O failure.
  bool write(const std::string& dir = ".") const;

 private:
  struct Entry {
    std::string key;
    enum class Kind { kNumber, kRaw } kind = Kind::kNumber;
    double number = 0.0;
    std::string text;
  };
  std::string name_;
  std::vector<Entry> entries_;
};

}  // namespace fpisa::util
