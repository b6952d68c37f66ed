// Per-tenant admission state: token bucket + queue-depth accounting.
//
// AdmissionControl is a passive book, same discipline as the SLO
// accumulators: it holds per-tenant buckets and queued-job counts and
// answers "may this job enter, and if not, why / how long until it
// may". The caller (cluster::AggregationService) provides the locking
// — every method here must be called under the service's job mutex —
// and implements the actual blocking / rejection / scheduling around
// the answers.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "qos/qos.h"
#include "qos/rate_limiter.h"
#include "qos/virtual_clock.h"

namespace fpisa::qos {

class AdmissionControl {
 public:
  struct TenantState {
    TenantQosConfig cfg;
    TokenBucket bucket;
    std::size_t queued = 0;  ///< admitted, not yet picked up by a runner

    TenantState(const TenantQosConfig& c, std::uint64_t now_ns)
        : cfg(c), bucket(c.rate_jobs_per_s, c.burst_jobs, now_ns) {}
  };

  /// Outcome of one admission probe (no state mutated on failure).
  struct Probe {
    bool admitted = false;
    RejectReason reason = RejectReason::kRateLimited;
    /// On rate-limit failure: ns until a token will exist. Lets a
    /// kBlock caller sleep the exact deficit instead of polling.
    std::uint64_t retry_after_ns = 0;
  };

  explicit AdmissionControl(const QosOptions& opts)
      : opts_(opts), clock_(opts.clock) {
    if (clock_ == nullptr) {
      owned_clock_ = std::make_unique<SteadyClock>();
      clock_ = owned_clock_.get();
    }
  }

  std::uint64_t now_ns() { return clock_->now_ns(); }

  /// Read-only lookup: null for a tenant that has never submitted.
  const TenantState* find(std::string_view name) const {
    const auto it = tenants_.find(name);
    return it == tenants_.end() ? nullptr : &it->second;
  }

  TenantState& tenant(std::string_view name) {
    auto it = tenants_.find(name);
    if (it == tenants_.end()) {
      it = tenants_
               .emplace(std::string(name),
                        TenantState(opts_.config_for(name), now_ns()))
               .first;
    }
    return it->second;
  }

  /// Probe admission for one job. A queued job checks its queue bound
  /// first (a full queue must not burn a token); a synchronous job runs
  /// inline on the caller's thread, so only the rate limiter applies. On
  /// success the token is taken and, for a queued job, the queued count
  /// incremented.
  Probe try_admit(TenantState& st, std::uint64_t now, bool queued) {
    Probe p;
    if (queued && st.queued >= opts_.queue_bound_for(st.cfg)) {
      p.reason = RejectReason::kQueueFull;
      return p;
    }
    if (!st.bucket.try_acquire(1, now)) {
      p.reason = RejectReason::kRateLimited;
      p.retry_after_ns = st.bucket.ns_until_available(1, now);
      return p;
    }
    if (queued) ++st.queued;
    p.admitted = true;
    return p;
  }

  /// A runner picked up one of this tenant's queued jobs.
  void on_dequeued(TenantState& st) {
    if (st.queued > 0) --st.queued;
  }

  const QosOptions& options() const { return opts_; }

 private:
  QosOptions opts_;
  VirtualClock* clock_;
  std::unique_ptr<SteadyClock> owned_clock_;
  std::map<std::string, TenantState, std::less<>> tenants_;
};

}  // namespace fpisa::qos
