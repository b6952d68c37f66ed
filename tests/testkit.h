// Test helpers over the zero-copy entry points. Every reduce in src/ takes
// worker *views* and writes a caller-owned out span; these wrap the
// vector-shaped gradients the tests generate and hand the sum back by
// value. Header-only and test-only.
#pragma once

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <future>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cluster/aggregation_service.h"
#include "core/vector_accumulator.h"
#include "pisa/fpisa_program.h"
#include "switchml/aggregator.h"
#include "switchml/session.h"

namespace fpisa::testkit {

using Workers = std::vector<std::vector<float>>;

/// The span table over `workers` (the floats themselves are not copied).
inline std::vector<std::span<const float>> views_of(const Workers& workers) {
  return {workers.begin(), workers.end()};
}

inline std::size_t length_of(const Workers& workers) {
  return workers.empty() ? 0 : workers.front().size();
}

/// The process's thread count, from /proc/self/status (-1 if unreadable).
inline long process_threads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stol(line.substr(8));
  }
  return -1;
}

/// A core reduce's sum together with its pooled counters.
struct CoreSum {
  std::vector<float> sum;
  core::OpCounters counters;
};

inline CoreSum reduce(const Workers& workers,
                      core::AccumulatorConfig cfg = {}) {
  CoreSum r;
  r.sum.assign(length_of(workers), 0.0f);
  r.counters = core::aggregate_into(views_of(workers), r.sum, cfg);
  return r;
}

inline std::vector<float> reduce(switchml::AggregationSession& session,
                                 const Workers& workers) {
  std::vector<float> out(length_of(workers), 0.0f);
  session.reduce_into(views_of(workers), out);
  return out;
}

inline std::vector<float> reduce(switchml::GradientAggregator& agg,
                                 const Workers& workers) {
  std::vector<float> out(length_of(workers), 0.0f);
  agg.reduce(views_of(workers), out);
  return out;
}

/// A cluster job's books together with its sum.
struct JobResult : cluster::JobReport {
  std::vector<float> result;
};

inline JobResult reduce(cluster::AggregationService& svc,
                        std::string_view tenant, const Workers& workers,
                        double loss_rate = -1.0, int max_retransmits = -1) {
  JobResult r;
  r.result.assign(length_of(workers), 0.0f);
  const auto views = views_of(workers);
  static_cast<cluster::JobReport&>(r) = svc.reduce(
      cluster::JobView{tenant, views, loss_rate, max_retransmits}, r.result);
  return r;
}

/// An async cluster job: owns the out buffer the job writes into (a moved
/// vector keeps its storage, so the handle may be moved while in flight).
/// The gradients must outlive get().
struct PendingJob {
  PendingJob() = default;
  PendingJob(PendingJob&&) = default;
  /// A dropped handle still waits: the job writes into `result`.
  ~PendingJob() {
    if (fut.valid()) fut.wait();
  }

  std::vector<float> result;
  std::future<cluster::JobReport> fut;

  JobResult get() {
    JobResult r;
    static_cast<cluster::JobReport&>(r) = fut.get();
    r.result = std::move(result);
    return r;
  }
};

inline PendingJob submit(cluster::AggregationService& svc,
                         std::string_view tenant, const Workers& workers,
                         double loss_rate = -1.0, int max_retransmits = -1) {
  PendingJob p;
  p.result.assign(length_of(workers), 0.0f);
  const auto views = views_of(workers);
  p.fut = svc.submit(
      cluster::JobView{tenant, views, loss_rate, max_retransmits}, p.result);
  return p;
}

/// The compiled ingress as the wave engine runs it: FpisaSwitch::admit,
/// gather over the packets it accepted, then book_ops. Returns how many it
/// accepted.
inline std::size_t admit_and_gather(
    pisa::FpisaSwitch& sw, std::span<const std::uint16_t> slots,
    std::span<const std::uint8_t> workers,
    std::span<const std::byte* const> payloads,
    std::span<const std::uint32_t> stamps = {},
    std::span<const std::uint16_t> checksums = {},
    pisa::FpisaSwitch::GuardStats* guard = nullptr) {
  std::vector<const std::byte*> accepted(slots.size());
  std::vector<std::uint32_t> rows(slots.size());
  const std::size_t n = sw.admit(slots, workers, payloads, stamps, checksums,
                                 guard, accepted, rows);
  core::OpCounters ops;
  sw.gather(std::span(accepted).first(n), std::span(rows).first(n), ops);
  sw.book_ops(ops);
  return n;
}

/// The compiled egress as the wave engine runs it: FpisaSwitch::release
/// with reset (capturing the bitmaps and counts unless their spans are
/// empty), then drain into flat `values`: slot k's lanes land at
/// values[k*lanes, +lanes), for values.size() / lanes slots from slot0.
inline void release_and_drain(pisa::FpisaSwitch& sw, std::uint16_t slot0,
                              std::span<std::uint32_t> values,
                              std::span<std::uint32_t> bitmaps = {},
                              std::span<std::uint16_t> counts = {}) {
  const auto lanes = static_cast<std::size_t>(sw.options().lanes);
  std::vector<std::byte*> dests;
  for (std::size_t i = 0; i + lanes <= values.size(); i += lanes) {
    dests.push_back(std::as_writable_bytes(values.subspan(i, lanes)).data());
  }
  sw.release(slot0, dests.size(), /*reset=*/true, bitmaps, counts);
  sw.drain(slot0, dests);
}

/// Guarded admit_and_gather over flat values: packet i's lanes are
/// values[i*lanes, +lanes). admit checks the payload count against
/// slots.size().
inline void guarded_ingress(pisa::FpisaSwitch& sw,
                            std::span<const std::uint16_t> slots,
                            std::span<const std::uint8_t> workers,
                            std::span<const std::uint32_t> stamps,
                            std::span<const std::uint16_t> checksums,
                            std::span<const std::uint32_t> values,
                            pisa::FpisaSwitch::GuardStats& guard) {
  const auto lanes = static_cast<std::size_t>(sw.options().lanes);
  std::vector<const std::byte*> payloads;
  for (std::size_t i = 0; i + lanes <= values.size(); i += lanes) {
    payloads.push_back(std::as_bytes(values.subspan(i, lanes)).data());
  }
  admit_and_gather(sw, slots, workers, payloads, stamps, checksums, &guard);
}

}  // namespace fpisa::testkit
