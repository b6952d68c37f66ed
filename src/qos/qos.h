// Multi-tenant admission control & QoS configuration surface.
//
// The cluster fabric serves three kinds of traffic at once — training
// allreduce (large, latency-critical), query-engine jobs (medium,
// interactive) and streaming telemetry (small, endless). Without
// admission control a burst of cheap telemetry jobs queue-starves a
// training job, and one misbehaving tenant can saturate the job-runner
// pool for everyone. This header defines the policy knobs:
//
//   Priority          — traffic class; the scheduler lets higher classes
//                       overtake queued lower ones (weighted-deficit, so
//                       low classes still drain — no starvation).
//   TenantQosConfig   — per-tenant rate limit (token bucket), queue
//                       bound and backpressure policy.
//   QosOptions        — the service-wide surface: class weights, default
//                       tenant config, per-tenant overrides, and an
//                       optional virtual clock for deterministic tests.
//
// Policy only lives here; mechanism is rate_limiter.h (token bucket),
// scheduler.h (weighted-deficit pickup) and admission.h (per-tenant
// bookkeeping), all driven by cluster::AggregationService.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>

#include "qos/virtual_clock.h"

namespace fpisa::qos {

/// Traffic class. Lower numeric value = higher priority; the scheduler
/// scans classes in this order each pickup.
enum class Priority : int {
  kTraining = 0,
  kQuery = 1,
  kTelemetry = 2,
};

inline constexpr std::size_t kNumPriorities = 3;

inline constexpr const char* priority_name(Priority p) {
  switch (p) {
    case Priority::kTraining:
      return "training";
    case Priority::kQuery:
      return "query";
    case Priority::kTelemetry:
      return "telemetry";
  }
  return "unknown";
}

/// What to do with a job that cannot be admitted right now.
enum class AdmissionPolicy {
  kReject,  ///< fail fast with AdmissionRejectedError
  kBlock,   ///< wait for tokens/queue space, up to block_deadline_s
};

/// Why a job was turned away.
enum class RejectReason {
  kRateLimited,  ///< token bucket empty (kReject policy)
  kQueueFull,    ///< per-tenant admission queue at its bound
  kDeadline,     ///< kBlock policy waited past its deadline
};

inline constexpr const char* reject_reason_name(RejectReason r) {
  switch (r) {
    case RejectReason::kRateLimited:
      return "rate_limit";
    case RejectReason::kQueueFull:
      return "queue_full";
    case RejectReason::kDeadline:
      return "deadline";
  }
  return "unknown";
}

/// Typed backpressure signal: thrown by submit/reduce when admission
/// fails under the kReject policy (or a kBlock deadline expires).
class AdmissionRejectedError : public std::runtime_error {
 public:
  AdmissionRejectedError(std::string tenant, RejectReason reason)
      : std::runtime_error("qos: tenant '" + tenant + "' rejected (" +
                           reject_reason_name(reason) + ")"),
        tenant_(std::move(tenant)),
        reason_(reason) {}

  const std::string& tenant() const { return tenant_; }
  RejectReason reason() const { return reason_; }

 private:
  std::string tenant_;
  RejectReason reason_;
};

/// Per-tenant policy. The zero-ish defaults mean "unlimited rate, one
/// class below training, inherit the service queue bound, fail fast".
struct TenantQosConfig {
  Priority priority = Priority::kQuery;

  /// Sustained admission rate in jobs/second. <= 0 means unlimited; a
  /// service with QoS enabled rejects NaN at construction.
  double rate_jobs_per_s = 0.0;

  /// Bucket capacity: how many jobs may arrive back-to-back before the
  /// sustained rate applies. Ignored when rate is unlimited.
  std::uint32_t burst_jobs = 1;

  /// Max jobs this tenant may have queued (admitted but not yet picked
  /// up by a runner). 0 = inherit QosOptions::default_max_queued_jobs.
  std::size_t max_queued_jobs = 0;

  /// Behavior when the bucket is empty or the queue is full.
  AdmissionPolicy policy = AdmissionPolicy::kReject;

  /// kBlock only: give up (RejectReason::kDeadline) after this long.
  /// Every admission converts it to nanoseconds, so a service with QoS
  /// enabled rejects NaN, +inf and 2^64 ns (~1.8e10 s) or more at
  /// construction, whatever the policy.
  double block_deadline_s = 1.0;
};

/// Service-wide QoS configuration, carried by cluster::ClusterOptions
/// and collective::CommunicatorOptions.
struct QosOptions {
  /// Master switch. Off = the service behaves exactly as before: one
  /// FIFO class, no rate limits, unbounded queues.
  bool enabled = false;

  /// Weighted-deficit credits per class, indexed by Priority. Each
  /// scheduling cycle a class may be picked up to its weight times
  /// before lower classes get their guaranteed share.
  std::array<std::uint32_t, kNumPriorities> class_weights = {8, 2, 1};

  /// Queue bound for tenants whose config leaves max_queued_jobs at 0.
  std::size_t default_max_queued_jobs = 256;

  /// Config applied to tenants with no entry in `tenants`.
  TenantQosConfig default_tenant;

  /// Per-tenant overrides, keyed by tenant name.
  std::map<std::string, TenantQosConfig, std::less<>> tenants;

  /// Time source for rate limiting / deadlines. Null = the service
  /// creates its own SteadyClock. Tests inject a ManualClock; the
  /// pointer must outlive the service.
  VirtualClock* clock = nullptr;

  const TenantQosConfig& config_for(std::string_view tenant) const {
    auto it = tenants.find(tenant);
    return it == tenants.end() ? default_tenant : it->second;
  }

  std::size_t queue_bound_for(const TenantQosConfig& cfg) const {
    return cfg.max_queued_jobs != 0 ? cfg.max_queued_jobs
                                    : default_max_queued_jobs;
  }
};

}  // namespace fpisa::qos
