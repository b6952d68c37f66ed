#include "util/bench_json.h"

#include "util/build_info.h"
#include "util/cpus.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace fpisa::util {
namespace {

std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";  // JSON has no inf/nan
  std::ostringstream os;
  os.precision(12);
  os << v;
  return os.str();
}

}  // namespace

void BenchJson::set(const std::string& key, double value) {
  entries_.push_back({key, Entry::Kind::kNumber, value, {}});
}

void BenchJson::set_raw(const std::string& key, std::string json) {
  entries_.push_back({key, Entry::Kind::kRaw, 0.0, std::move(json)});
}

std::string BenchJson::render() const {
  const BuildInfo& b = build_info();
  std::string out = "{\n  \"bench\": \"" + escape(name_) + "\",\n";
  out += "  \"build\": {\n";
  out += "    \"git\": \"" + escape(std::string(b.git_describe)) + "\",\n";
  out += "    \"compiler\": \"" + escape(std::string(b.compiler)) + "\",\n";
  out += "    \"build_type\": \"" + escape(std::string(b.build_type)) + "\",\n";
  out += "    \"avx2\": " + std::string(b.avx2 ? "true" : "false") + ",\n";
  out += "    \"sanitizer\": \"" + escape(std::string(b.sanitizer)) + "\",\n";
  // Wall-clock numbers mean nothing without the core count they ran on:
  // the CPUs this process may run on, the count the stack sizes itself by.
  out += "    \"host_cpus\": " + std::to_string(util::usable_cpus()) + "\n";
  out += "  },\n  \"metrics\": {";
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    out += i ? ",\n    " : "\n    ";
    out += "\"" + escape(e.key) + "\": ";
    switch (e.kind) {
      case Entry::Kind::kNumber: out += number(e.number); break;
      case Entry::Kind::kRaw: out += e.text; break;
    }
  }
  out += entries_.empty() ? "}\n}\n" : "\n  }\n}\n";
  return out;
}

bool BenchJson::write(const std::string& dir) const {
  const std::string path = dir + "/BENCH_" + name_ + ".json";
  std::ofstream f(path);
  if (!f) return false;
  f << render();
  return static_cast<bool>(f);
}

}  // namespace fpisa::util
