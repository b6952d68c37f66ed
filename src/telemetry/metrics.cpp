#include "telemetry/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace fpisa::telemetry {
namespace {

std::atomic<bool> g_enabled{true};

/// Per-thread stripe index: threads are handed stripes round-robin, so a
/// fixed worker pool spreads evenly over a counter's cells.
std::size_t stripe_index() {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t idx =
      next.fetch_add(1, std::memory_order_relaxed);
  return idx % Counter::kStripes;
}

void atomic_add_double(std::atomic<double>& a, double delta) {
  double cur = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(cur, cur + delta,
                                  std::memory_order_relaxed)) {
  }
}

std::string escape_label_value(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

std::string escape_json(const std::string& s) {
  std::string out;
  out.reserve(s.size());
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

/// `{k="v",k2="v2"}` with escaped values; empty string for no labels.
/// `extra` appends one more pre-rendered pair (the histogram `le` label).
std::string render_labels(const Labels& labels, const std::string& extra = {}) {
  if (labels.empty() && extra.empty()) return {};
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ",";
    first = false;
    out += k + "=\"" + escape_label_value(v) + "\"";
  }
  if (!extra.empty()) {
    if (!first) out += ",";
    out += extra;
  }
  out += "}";
  return out;
}

std::string labels_json(const Labels& labels) {
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ",";
    first = false;
    out += "\"" + escape_json(k) + "\":\"" + escape_json(v) + "\"";
  }
  out += "}";
  return out;
}

bool labels_contain(const Labels& labels, const Labels& subset) {
  for (const auto& want : subset) {
    bool found = false;
    for (const auto& have : labels) {
      if (have == want) {
        found = true;
        break;
      }
    }
    if (!found) return false;
  }
  return true;
}

std::string canonical_key(std::string_view name, const Labels& labels) {
  std::string key(name);
  key += "{";
  for (const auto& [k, v] : labels) {
    key += k;
    key += "\x1f";  // unlikely in identifiers: unambiguous separator
    key += v;
    key += "\x1f";
  }
  key += "}";
  return key;
}

}  // namespace

void set_enabled(bool on) {
  g_enabled.store(on, std::memory_order_relaxed);
}

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

// --- counter ---------------------------------------------------------------

void Counter::inc(std::uint64_t n) {
  if (!enabled()) return;
  cells_[stripe_index()].v.fetch_add(n, std::memory_order_relaxed);
}

std::uint64_t Counter::value() const {
  std::uint64_t total = 0;
  for (const Cell& c : cells_) total += c.v.load(std::memory_order_relaxed);
  return total;
}

// --- gauge -----------------------------------------------------------------

void Gauge::set(double v) {
  if (!enabled()) return;
  v_.store(v, std::memory_order_relaxed);
}

void Gauge::add(double delta) {
  if (!enabled()) return;
  atomic_add_double(v_, delta);
}

double Gauge::value() const { return v_.load(std::memory_order_relaxed); }

// --- histogram -------------------------------------------------------------

Histogram::Histogram(std::span<const double> bounds)
    : bounds_(bounds.begin(), bounds.end()),
      counts_(new std::atomic<std::uint64_t>[bounds.size() + 1]) {
  for (std::size_t i = 1; i < bounds_.size(); ++i) {
    if (!(bounds_[i] > bounds_[i - 1])) {
      throw std::logic_error(
          "telemetry: histogram bounds must be strictly increasing");
    }
  }
  for (std::size_t i = 0; i <= bounds_.size(); ++i) counts_[i] = 0;
}

void Histogram::observe(double v) {
  if (!enabled()) return;
  // First bucket whose (inclusive) upper bound covers v; NaN and anything
  // above the last bound land in the +Inf bucket. NaN must be routed by
  // hand: every `bound < NaN` comparison is false, so lower_bound would
  // otherwise file it under the smallest bucket.
  std::size_t idx = bounds_.size();
  if (!std::isnan(v)) {
    const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
    idx = static_cast<std::size_t>(it - bounds_.begin());
  }
  counts_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  atomic_add_double(sum_, v);
}

double Histogram::upper_bound(std::size_t i) const {
  return i < bounds_.size() ? bounds_[i]
                            : std::numeric_limits<double>::infinity();
}

std::uint64_t Histogram::bucket_count(std::size_t i) const {
  return counts_[i].load(std::memory_order_relaxed);
}

// --- snapshot --------------------------------------------------------------

Snapshot Snapshot::with_label(std::string_view key,
                              std::string_view value) const {
  const Labels want{{std::string(key), std::string(value)}};
  Snapshot out;
  for (const auto& s : counters) {
    if (labels_contain(s.labels, want)) out.counters.push_back(s);
  }
  for (const auto& s : gauges) {
    if (labels_contain(s.labels, want)) out.gauges.push_back(s);
  }
  for (const auto& s : histograms) {
    if (labels_contain(s.labels, want)) out.histograms.push_back(s);
  }
  return out;
}

std::uint64_t Snapshot::counter_total(std::string_view name,
                                      const Labels& subset) const {
  std::uint64_t total = 0;
  for (const auto& s : counters) {
    if (s.name == name && labels_contain(s.labels, subset)) total += s.value;
  }
  return total;
}

std::string Snapshot::prometheus_text() const {
  std::string out;
  std::string last_type_line;  // one # TYPE per metric name
  const auto type_line = [&out, &last_type_line](const std::string& name,
                                                 const char* type) {
    const std::string line = "# TYPE " + name + " " + type + "\n";
    if (line != last_type_line) {
      out += line;
      last_type_line = line;
    }
  };
  for (const auto& s : counters) {
    type_line(s.name, "counter");
    out += s.name + render_labels(s.labels) + " " +
           std::to_string(s.value) + "\n";
  }
  for (const auto& s : gauges) {
    type_line(s.name, "gauge");
    out += s.name + render_labels(s.labels) + " " + number(s.value) + "\n";
  }
  for (const auto& s : histograms) {
    type_line(s.name, "histogram");
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < s.counts.size(); ++i) {
      cum += s.counts[i];
      const std::string le =
          i < s.bounds.size() ? "le=\"" + number(s.bounds[i]) + "\""
                              : std::string("le=\"+Inf\"");
      out += s.name + "_bucket" + render_labels(s.labels, le) + " " +
             std::to_string(cum) + "\n";
    }
    out += s.name + "_sum" + render_labels(s.labels) + " " + number(s.sum) +
           "\n";
    out += s.name + "_count" + render_labels(s.labels) + " " +
           std::to_string(s.count) + "\n";
  }
  return out;
}

std::string Snapshot::json() const {
  std::string out = "{\"counters\":[";
  bool first = true;
  for (const auto& s : counters) {
    if (!first) out += ",";
    first = false;
    out += "{\"name\":\"" + escape_json(s.name) +
           "\",\"labels\":" + labels_json(s.labels) +
           ",\"value\":" + std::to_string(s.value) + "}";
  }
  out += "],\"gauges\":[";
  first = true;
  for (const auto& s : gauges) {
    if (!first) out += ",";
    first = false;
    out += "{\"name\":\"" + escape_json(s.name) +
           "\",\"labels\":" + labels_json(s.labels) +
           ",\"value\":" + number(s.value) + "}";
  }
  out += "],\"histograms\":[";
  first = true;
  for (const auto& s : histograms) {
    if (!first) out += ",";
    first = false;
    out += "{\"name\":\"" + escape_json(s.name) +
           "\",\"labels\":" + labels_json(s.labels) + ",\"bounds\":[";
    for (std::size_t i = 0; i < s.bounds.size(); ++i) {
      if (i) out += ",";
      out += number(s.bounds[i]);
    }
    out += "],\"counts\":[";
    for (std::size_t i = 0; i < s.counts.size(); ++i) {
      if (i) out += ",";
      out += std::to_string(s.counts[i]);
    }
    out += "],\"count\":" + std::to_string(s.count) +
           ",\"sum\":" + number(s.sum) + "}";
  }
  out += "]}";
  return out;
}

// --- registry --------------------------------------------------------------

MetricsRegistry::Entry& MetricsRegistry::resolve(std::string_view name,
                                                 Labels&& labels, Kind kind,
                                                 std::span<const double> bounds) {
  std::sort(labels.begin(), labels.end());
  std::string key = canonical_key(name, labels);
  const auto it = entries_.find(key);
  if (it != entries_.end()) {
    if (it->second.kind != kind) {
      throw std::logic_error("telemetry: metric '" + std::string(name) +
                             "' re-registered as a different kind");
    }
    if (kind == Kind::kHistogram) {
      const auto& have = it->second.histogram->bounds_;
      if (have.size() != bounds.size() ||
          !std::equal(have.begin(), have.end(), bounds.begin())) {
        throw std::logic_error("telemetry: histogram '" + std::string(name) +
                               "' re-registered with different bounds");
      }
    }
    return it->second;
  }
  Entry e;
  e.name = std::string(name);
  e.labels = std::move(labels);
  e.kind = kind;
  switch (kind) {
    case Kind::kCounter: e.counter.reset(new Counter()); break;
    case Kind::kGauge: e.gauge.reset(new Gauge()); break;
    case Kind::kHistogram: e.histogram.reset(new Histogram(bounds)); break;
  }
  return entries_.emplace(std::move(key), std::move(e)).first->second;
}

Counter& MetricsRegistry::counter(std::string_view name, Labels labels) {
  util::LockGuard lk(mu_);
  return *resolve(name, std::move(labels), Kind::kCounter, {}).counter;
}

Gauge& MetricsRegistry::gauge(std::string_view name, Labels labels) {
  util::LockGuard lk(mu_);
  return *resolve(name, std::move(labels), Kind::kGauge, {}).gauge;
}

Histogram& MetricsRegistry::histogram(std::string_view name, Labels labels,
                                      std::span<const double> bounds) {
  util::LockGuard lk(mu_);
  return *resolve(name, std::move(labels), Kind::kHistogram, bounds)
              .histogram;
}

Snapshot MetricsRegistry::snapshot() const {
  Snapshot snap;
  util::LockGuard lk(mu_);
  // entries_ is keyed by name + canonical labels: iteration order is the
  // stable (name, labels) order the Snapshot contract promises.
  for (const auto& [key, e] : entries_) {
    switch (e.kind) {
      case Kind::kCounter:
        snap.counters.push_back({e.name, e.labels, e.counter->value()});
        break;
      case Kind::kGauge:
        snap.gauges.push_back({e.name, e.labels, e.gauge->value()});
        break;
      case Kind::kHistogram: {
        HistogramSample h;
        h.name = e.name;
        h.labels = e.labels;
        h.bounds = e.histogram->bounds_;
        h.counts.resize(e.histogram->num_buckets());
        for (std::size_t i = 0; i < h.counts.size(); ++i) {
          h.counts[i] = e.histogram->bucket_count(i);
        }
        h.count = e.histogram->count();
        h.sum = e.histogram->sum();
        snap.histograms.push_back(std::move(h));
        break;
      }
    }
  }
  return snap;
}

void MetricsRegistry::retire(std::string_view key, std::string_view value) {
  const std::pair<std::string, std::string> mine(key, value);
  util::LockGuard lk(mu_);
  for (auto it = entries_.begin(); it != entries_.end();) {
    const Entry& e = it->second;
    const auto at = std::find(e.labels.begin(), e.labels.end(), mine);
    if (at == e.labels.end()) {
      ++it;
      continue;
    }
    if (e.kind != Kind::kGauge) {
      // A new entry may land after `it`; it is labelled "retired", so the
      // scan skips it.
      Labels labels = e.labels;
      labels[static_cast<std::size_t>(at - e.labels.begin())].second =
          "retired";
      Entry* into = nullptr;
      try {
        into = &resolve(
            e.name, std::move(labels), e.kind,
            e.histogram ? e.histogram->bounds_ : std::vector<double>{});
      } catch (const std::logic_error&) {
        ++it;  // its twin is of another kind or bounds: keep the series
        continue;
      }
      // Straight into the cells: a fold is no event for the kill switch.
      if (e.counter) {
        into->counter->cells_[0].v.fetch_add(e.counter->value(),
                                             std::memory_order_relaxed);
      } else {
        Histogram& h = *into->histogram;
        for (std::size_t i = 0; i < h.num_buckets(); ++i) {
          h.counts_[i].fetch_add(e.histogram->bucket_count(i),
                                 std::memory_order_relaxed);
        }
        h.count_.fetch_add(e.histogram->count(), std::memory_order_relaxed);
        atomic_add_double(h.sum_, e.histogram->sum());
      }
    }
    it = entries_.erase(it);
  }
}

std::span<const double> MetricsRegistry::time_buckets() {
  // 1us .. ~8.6s in powers of 4 (12 finite buckets + implicit +Inf): wide
  // enough for a compiled wave (~us) and a straggling failover job (~s).
  static const double kBounds[] = {1e-6,    4e-6,   16e-6,  64e-6,
                                   256e-6,  1e-3,   4e-3,   16e-3,
                                   64e-3,   256e-3, 1.024,  8.6};
  return kBounds;
}

MetricsRegistry& registry() {
  static MetricsRegistry* instance = new MetricsRegistry();  // never dtor'd
  return *instance;
}

Snapshot snapshot() { return registry().snapshot(); }

InstanceLabel::InstanceLabel(std::string_view key) : label_(key, "") {
  static std::atomic<std::uint64_t> next{0};
  label_.second = std::to_string(next.fetch_add(1, std::memory_order_relaxed));
}

}  // namespace fpisa::telemetry
