// Process-wide metrics registry: counters, gauges and fixed-bucket
// histograms addressed by name + label set (tenant, shard, backend,
// phase...). Built for a threaded aggregation fabric:
//
//  * Registration (name/label resolution) happens once, under a mutex, and
//    hands back a stable handle. Layers register at construction time and
//    keep the pointer — the hot path never touches a map or a string.
//  * Counter increments are lock-free relaxed atomics over per-thread
//    striped cells (folded on read), so two shard workers bumping the same
//    counter never bounce one cache line.
//  * Histograms use explicit ascending upper bounds with Prometheus `le`
//    semantics: a sample lands in the FIRST bucket whose upper bound is
//    >= the value (boundaries are inclusive), overflow in the implicit
//    +Inf bucket. Bucket counts are exported cumulatively, like the
//    Prometheus text format expects.
//  * Exposition: snapshot() returns a structured object; the snapshot
//    renders as a Prometheus-style text dump or a JSON object (which
//    util::BenchJson embeds so BENCH_*.json carries metric state).
//
//  * Series under an InstanceLabel fold into `retired` ones when their
//    object dies: the registry is bounded by the objects alive.
//
// A global kill switch (set_enabled) turns every mutation into a relaxed
// load + branch, so benches can measure the instrumented datapath against
// a telemetry-off run. Handles stay valid either way.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/ordered_mutex.h"
#include "util/thread_annotations.h"

namespace fpisa::telemetry {

/// Label set: (key, value) pairs. Registration canonicalizes (sorts by
/// key), so {a=1,b=2} and {b=2,a=1} address the same metric.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Global kill switch (default on). When off, every inc/set/observe is a
/// relaxed load + branch and no state changes; events that occur while
/// disabled are simply not recorded.
void set_enabled(bool on);
bool enabled();

/// Add/collect phase wall-time split, the shape AggregationService has
/// exposed since PR 3 — now the uniform phase-timing currency of the whole
/// stack (every collective backend reports one; the cluster's is a view
/// over this registry's histograms).
struct PhaseBreakdown {
  double add_s = 0;
  double collect_s = 0;
};

/// Monotone counter. Increments are relaxed atomic adds on a per-thread
/// striped cell; value() folds the stripes.
class Counter {
 public:
  static constexpr std::size_t kStripes = 16;

  void inc(std::uint64_t n = 1);
  std::uint64_t value() const;

 private:
  friend class MetricsRegistry;
  Counter() = default;
  struct alignas(64) Cell {
    std::atomic<std::uint64_t> v{0};
  };
  Cell cells_[kStripes];
};

/// Point-in-time value (queue depth, register occupancy, ...).
class Gauge {
 public:
  void set(double v);
  void add(double delta);  ///< atomic read-modify-write
  double value() const;

 private:
  friend class MetricsRegistry;
  Gauge() = default;
  std::atomic<double> v_{0.0};
};

/// Fixed-bucket histogram with inclusive upper bounds (`le` semantics) and
/// an implicit +Inf overflow bucket. Tracks count and sum as well, so the
/// sum over a phase histogram IS that phase's cumulative wall time.
class Histogram {
 public:
  void observe(double v);

  /// Buckets including the +Inf overflow bucket.
  std::size_t num_buckets() const { return bounds_.size() + 1; }
  /// Upper bound of bucket i; the last bucket reports +infinity.
  double upper_bound(std::size_t i) const;
  /// Non-cumulative per-bucket count.
  std::uint64_t bucket_count(std::size_t i) const;
  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  explicit Histogram(std::span<const double> bounds);
  std::vector<double> bounds_;  ///< ascending, strictly increasing
  std::unique_ptr<std::atomic<std::uint64_t>[]> counts_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

// --- snapshot --------------------------------------------------------------

struct CounterSample {
  std::string name;
  Labels labels;
  std::uint64_t value = 0;
};

struct GaugeSample {
  std::string name;
  Labels labels;
  double value = 0;
};

struct HistogramSample {
  std::string name;
  Labels labels;
  std::vector<double> bounds;        ///< finite upper bounds
  std::vector<std::uint64_t> counts; ///< per-bucket, bounds.size()+1 entries
  std::uint64_t count = 0;
  double sum = 0;
};

/// Structured point-in-time view of a registry. Samples are ordered by
/// (name, canonical label string), so two snapshots of the same registry
/// line up row for row.
struct Snapshot {
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;

  bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty();
  }
  /// Subset whose label set contains (key, value).
  Snapshot with_label(std::string_view key, std::string_view value) const;
  /// Sum of every counter named `name` whose labels contain all of
  /// `subset` (empty subset matches all). 0 when none match.
  std::uint64_t counter_total(std::string_view name,
                              const Labels& subset = {}) const;
  /// Prometheus text exposition format (# TYPE lines, label escaping,
  /// cumulative `le` buckets + _sum/_count for histograms).
  std::string prometheus_text() const;
  /// JSON object: {"counters":[...],"gauges":[...],"histograms":[...]}.
  std::string json() const;
};

// --- registry --------------------------------------------------------------

class MetricsRegistry {
 public:
  /// Find-or-create. A handle is valid for its owning instance's lifetime
  /// (the registry's, for series with no instance label); a name+labels
  /// key re-registered as a different metric kind (or a histogram with
  /// different bounds) throws std::logic_error.
  Counter& counter(std::string_view name, Labels labels = {})
      FPISA_EXCLUDES(mu_);
  Gauge& gauge(std::string_view name, Labels labels = {}) FPISA_EXCLUDES(mu_);
  Histogram& histogram(std::string_view name, Labels labels,
                       std::span<const double> bounds) FPISA_EXCLUDES(mu_);

  Snapshot snapshot() const FPISA_EXCLUDES(mu_);

  /// Frees every series labelled (key, value); their handles dangle. Each
  /// counter and histogram (buckets, count, sum) first folds into its
  /// `key="retired"` twin, so counter_total(name) reads the same, also to
  /// a concurrent snapshot(); gauges are dropped. A series whose twin has
  /// another kind or bounds is kept as it is.
  void retire(std::string_view key, std::string_view value)
      FPISA_EXCLUDES(mu_);

  /// Exponential wall-time bounds (seconds) shared by the stack's phase /
  /// job-wall histograms: 1us .. ~8s in powers of 4.
  static std::span<const double> time_buckets();

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Entry {
    std::string name;
    Labels labels;
    Kind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  Entry& resolve(std::string_view name, Labels&& labels, Kind kind,
                 std::span<const double> bounds) FPISA_REQUIRES(mu_);

  mutable util::OrderedMutex mu_{util::lock_rank::kTelemetry};
  /// key: name + canonical labels
  std::map<std::string, Entry> entries_ FPISA_GUARDED_BY(mu_);
};

/// The process-wide registry every layer of the stack instruments into.
MetricsRegistry& registry();
/// Convenience: registry().snapshot().
Snapshot snapshot();

/// An object's instance label in the process registry: `key` with a value
/// never handed out before (so no series starts from a dead object's
/// counts), retired on destruction. Declare it before any member whose
/// destructor could still write through a handle registered under it.
class InstanceLabel {
 public:
  explicit InstanceLabel(std::string_view key);
  ~InstanceLabel() { registry().retire(label_.first, label_.second); }
  InstanceLabel(const InstanceLabel&) = delete;
  InstanceLabel& operator=(const InstanceLabel&) = delete;

  /// The (key, value) pair to register this object's series under.
  const std::pair<std::string, std::string>& label() const { return label_; }
  const std::string& value() const { return label_.second; }

 private:
  std::pair<std::string, std::string> label_;
};

}  // namespace fpisa::telemetry
