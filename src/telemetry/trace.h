// Span tracing for aggregation jobs: records a job's life as nested spans
// (submit → acquire slots → partition → per-shard add waves → collect
// waves → merge → failover passes) with deterministic monotonic
// timestamps, and exports the result as a human-readable tree or Chrome
// `trace_event` JSON (load in chrome://tracing or Perfetto).
//
// Design points:
//  * Timestamps are steady_clock nanoseconds relative to the trace's
//    epoch, plus a monotone sequence number, so span ordering is
//    deterministic even when two spans open within the same clock tick.
//  * begin_at()/end_at() accept explicit time_points, letting callers
//    reuse the exact clock readings that feed their metrics (the cluster
//    wave loop does this, which is why traced span wall-times agree with
//    phase_breakdown() to the nanosecond).
//  * Thread-safe: the threads that run a pass's shards open spans
//    concurrently; each span records a small per-trace thread index that
//    becomes the Chrome `tid`.
//  * A Trace is an opt-in object the caller owns. Layers accept a
//    `Trace*` and treat nullptr as "tracing off"; ScopedSpan does the
//    same, so instrumented code needs no branches.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "util/ordered_mutex.h"
#include "util/thread_annotations.h"

namespace fpisa::telemetry {

class Trace {
 public:
  using Clock = std::chrono::steady_clock;
  /// Span handle: 1-based index into the trace; 0 means "no span"
  /// (top-level parent). Handles stay valid for the trace's lifetime.
  using SpanId = std::size_t;
  static constexpr SpanId kNone = 0;

  Trace() : epoch_(Clock::now()) {}

  /// Opens a span now / at an explicit clock reading.
  SpanId begin(std::string name, SpanId parent = kNone) FPISA_EXCLUDES(mu_);
  SpanId begin_at(std::string name, SpanId parent, Clock::time_point t)
      FPISA_EXCLUDES(mu_);
  /// Closes a span now / at an explicit clock reading. Closing an
  /// already-closed span or kNone is a no-op.
  void end(SpanId id) FPISA_EXCLUDES(mu_);
  void end_at(SpanId id, Clock::time_point t) FPISA_EXCLUDES(mu_);
  /// Attaches a key=value argument to a span (shown in both exports).
  void annotate(SpanId id, std::string key, std::string value)
      FPISA_EXCLUDES(mu_);

  struct SpanView {
    std::string name;
    SpanId id = kNone;
    SpanId parent = kNone;
    std::uint64_t seq = 0;       ///< global open order (deterministic)
    std::int64_t start_ns = 0;   ///< relative to trace epoch
    std::int64_t dur_ns = 0;     ///< -1 while still open
    int tid = 0;                 ///< per-trace thread index
    std::vector<std::pair<std::string, std::string>> args;
  };

  std::size_t size() const FPISA_EXCLUDES(mu_);
  /// All spans in open (seq) order.
  std::vector<SpanView> spans() const FPISA_EXCLUDES(mu_);
  /// Sum of closed-span durations (seconds) over spans named `name` —
  /// the bridge for comparing traced time against registry histograms.
  double total_seconds_of(std::string_view name) const FPISA_EXCLUDES(mu_);

  /// Human-readable indented tree, one line per span:
  ///   merge                         123.4us  [shards=4]
  std::string tree() const FPISA_EXCLUDES(mu_);
  /// Chrome trace_event JSON: {"traceEvents":[{"ph":"X",...}]}. Open
  /// spans are exported with the trace's latest known timestamp.
  std::string chrome_trace_json() const FPISA_EXCLUDES(mu_);

 private:
  struct Span {
    std::string name;
    SpanId parent = kNone;
    std::uint64_t seq = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = -1;  ///< -1 == still open
    int tid = 0;
    std::vector<std::pair<std::string, std::string>> args;
  };

  std::int64_t rel_ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
  }
  int thread_index_locked(std::thread::id id) FPISA_REQUIRES(mu_);

  Clock::time_point epoch_;
  mutable util::OrderedMutex mu_{util::lock_rank::kTrace};
  std::vector<Span> spans_ FPISA_GUARDED_BY(mu_);
  std::unordered_map<std::thread::id, int> tids_ FPISA_GUARDED_BY(mu_);
  std::uint64_t next_seq_ FPISA_GUARDED_BY(mu_) = 0;
};

/// RAII span: opens on construction, closes on destruction. A null trace
/// makes every operation a no-op, so instrumented code stays branch-free.
class ScopedSpan {
 public:
  ScopedSpan() = default;
  ScopedSpan(Trace* trace, std::string name,
             Trace::SpanId parent = Trace::kNone)
      : trace_(trace),
        id_(trace ? trace->begin(std::move(name), parent) : Trace::kNone) {}
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ScopedSpan(ScopedSpan&& o) noexcept : trace_(o.trace_), id_(o.id_) {
    o.trace_ = nullptr;
  }
  ~ScopedSpan() {
    if (trace_) trace_->end(id_);
  }

  Trace::SpanId id() const { return id_; }
  void annotate(std::string key, std::string value) {
    if (trace_) trace_->annotate(id_, std::move(key), std::move(value));
  }

 private:
  Trace* trace_ = nullptr;
  Trace::SpanId id_ = Trace::kNone;
};

}  // namespace fpisa::telemetry
