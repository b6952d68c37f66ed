// Multi-tenant QoS isolation: victim-tenant job latency under aggressor
// load, with and without the admission/QoS plane.
//
// One 4-shard cluster, one job-runner thread — so the shared resource
// under contention is the job queue itself (head-of-line blocking), which
// makes the experiment meaningful on any host including single-core CI
// runners. The victim is a training tenant submitting medium allreduce
// jobs and timing submit -> result; the aggressor is a telemetry tenant
// keeping a deep backlog of smaller jobs queued at all times.
//
// Four phases, fresh service each:
//   baseline      QoS off, no aggressor   (uncontended floor)
//   qos_idle      QoS on,  no aggressor   (prices the admission plane)
//   unthrottled   QoS off, aggressor on   (FIFO: victim waits the backlog)
//   qos           QoS on,  aggressor on   (WDRR: training overtakes)
//
// Acceptance (checked by scripts/check_qos_isolation.py): victim p99 with
// QoS on stays within 2x of the uncontended baseline while the
// unthrottled phase shows real degradation — the isolation the subsystem
// exists to provide.
//
// --quick runs 5 victim samples against a 4-job backlog: enough to emit
// every key and telemetry series (ctest checks those), too few for the
// latency ratios to mean anything.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <future>
#include <span>
#include <string>
#include <vector>

#include "cluster/aggregation_service.h"
#include "qos/qos.h"
#include "telemetry/metrics.h"
#include "util/bench_json.h"
#include "util/cpus.h"
#include "util/rng.h"
#include "util/table.h"

namespace {

using namespace fpisa;
using cluster::AggregationService;
using cluster::ClusterOptions;
using cluster::JobReport;
using cluster::JobView;

int g_victim_samples = 40;
std::size_t g_aggressor_depth = 24;  ///< queued jobs kept pending
constexpr std::size_t kVictimValues = 16384;
constexpr std::size_t kAggressorValues = 4096;

std::vector<std::vector<float>> make_workers(int w, std::size_t n,
                                             std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::vector<float>> out(static_cast<std::size_t>(w),
                                      std::vector<float>(n));
  for (auto& vec : out) {
    for (auto& v : vec) v = static_cast<float>(rng.normal(0.0, 0.1));
  }
  return out;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  return v[static_cast<std::size_t>(pos + 0.5)];
}

struct PhaseResult {
  std::vector<double> victim_ms;
  std::vector<double> aggressor_ms;
  std::uint64_t aggressor_submitted = 0;
  std::uint64_t aggressor_completed = 0;
  std::uint64_t aggressor_rejected = 0;
  /// Registry snapshot (JSON) taken while the phase's service is alive:
  /// its per-instance gauges vanish with it.
  std::string telemetry;
};

PhaseResult run_phase(bool qos_on, bool contended) {
  ClusterOptions opts;
  opts.num_shards = 4;
  opts.slots_per_shard = 64;
  opts.slots_per_job = 16;
  opts.loss_rate = 0.0;
  opts.job_runner_threads = 1;  // the contended resource: one runner
  if (qos_on) {
    opts.qos.enabled = true;
    qos::TenantQosConfig victim;
    victim.priority = qos::Priority::kTraining;
    qos::TenantQosConfig aggressor;
    aggressor.priority = qos::Priority::kTelemetry;
    aggressor.max_queued_jobs = 4 * g_aggressor_depth;
    opts.qos.tenants["victim"] = victim;
    opts.qos.tenants["aggressor"] = aggressor;
  }
  AggregationService svc(opts);

  const auto victim_workers = make_workers(2, kVictimValues, 41);
  const auto aggressor_workers = make_workers(2, kAggressorValues, 43);
  const std::vector<std::span<const float>> victim_views(
      victim_workers.begin(), victim_workers.end());
  const std::vector<std::span<const float>> aggressor_views(
      aggressor_workers.begin(), aggressor_workers.end());
  std::vector<float> victim_out(kVictimValues);
  svc.submit(JobView{"victim", victim_views}, victim_out).get();  // warm-up

  using Clock = std::chrono::steady_clock;
  struct Pending {
    std::vector<float> out;  ///< the job's sum lands here
    std::future<JobReport> fut;
    Clock::time_point t0;
  };
  std::deque<Pending> backlog;
  PhaseResult r;

  // Jobs within one tenant finish FIFO (same WDRR class), so the front of
  // the deque is always the next to complete.
  const auto drain_ready = [&] {
    while (!backlog.empty() &&
           backlog.front().fut.wait_for(std::chrono::seconds(0)) ==
               std::future_status::ready) {
      r.aggressor_ms.push_back(
          std::chrono::duration<double, std::milli>(Clock::now() -
                                                    backlog.front().t0)
              .count());
      backlog.front().fut.get();
      ++r.aggressor_completed;
      backlog.pop_front();
    }
  };
  const auto top_up = [&] {
    drain_ready();
    while (backlog.size() < g_aggressor_depth) {
      try {
        const auto t0 = Clock::now();
        std::vector<float> out(kAggressorValues);
        auto fut = svc.submit(JobView{"aggressor", aggressor_views}, out);
        backlog.push_back({std::move(out), std::move(fut), t0});
        ++r.aggressor_submitted;
      } catch (const qos::AdmissionRejectedError&) {
        ++r.aggressor_rejected;
        break;  // queue bound hit; sample against what is queued
      }
    }
  };

  for (int i = 0; i < g_victim_samples; ++i) {
    if (contended) top_up();
    const auto t0 = Clock::now();
    svc.submit(JobView{"victim", victim_views}, victim_out).get();
    r.victim_ms.push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - t0)
            .count());
  }
  while (!backlog.empty()) {
    backlog.front().fut.wait();
    drain_ready();
  }
  r.telemetry = telemetry::snapshot().json();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      g_victim_samples = 5;
      g_aggressor_depth = 4;
    } else {
      std::fprintf(stderr, "usage: %s [--quick]\n", argv[0]);
      return 2;
    }
  }
  std::printf("=== Multi-tenant QoS isolation: victim latency under "
              "aggressor load ===\n\n");
  std::printf("1 runner thread, 4 shards; victim %zu values (training), "
              "aggressor backlog of %zu x %zu-value jobs (telemetry)\n\n",
              kVictimValues, g_aggressor_depth, kAggressorValues);

  const PhaseResult baseline = run_phase(/*qos_on=*/false, false);
  const PhaseResult qos_idle = run_phase(/*qos_on=*/true, false);
  const PhaseResult unthrottled = run_phase(/*qos_on=*/false, true);
  const PhaseResult qos = run_phase(/*qos_on=*/true, true);

  const double base_p50 = percentile(baseline.victim_ms, 0.50);
  const double base_p99 = percentile(baseline.victim_ms, 0.99);
  const double ratio_unthrottled =
      percentile(unthrottled.victim_ms, 0.99) / base_p99;
  const double ratio_qos = percentile(qos.victim_ms, 0.99) / base_p99;

  util::BenchJson json("qos_isolation");
  json.set("host_cpus", static_cast<double>(util::usable_cpus()));
  json.set("victim_samples", static_cast<double>(g_victim_samples));
  json.set("aggressor_depth", static_cast<double>(g_aggressor_depth));

  util::Table t({"Phase", "QoS", "Victim p50 (ms)", "Victim p99 (ms)",
                 "p99 vs baseline", "Aggr p50 (ms)", "Aggr done/rej"});
  const auto row = [&](const char* phase, const char* key, bool on,
                       const PhaseResult& r) {
    const double p50 = percentile(r.victim_ms, 0.50);
    const double p99 = percentile(r.victim_ms, 0.99);
    t.add_row({phase, on ? "on" : "off", util::Table::num(p50, 2),
               util::Table::num(p99, 2),
               util::Table::num(p99 / base_p99, 2) + "x",
               r.aggressor_ms.empty()
                   ? "-"
                   : util::Table::num(percentile(r.aggressor_ms, 0.50), 2),
               std::to_string(r.aggressor_completed) + "/" +
                   std::to_string(r.aggressor_rejected)});
    json.set(std::string("victim_p50_ms_") + key, p50);
    json.set(std::string("victim_p99_ms_") + key, p99);
    if (!r.aggressor_ms.empty()) {
      json.set(std::string("aggressor_p50_ms_") + key,
               percentile(r.aggressor_ms, 0.50));
      json.set(std::string("aggressor_p99_ms_") + key,
               percentile(r.aggressor_ms, 0.99));
    }
    json.set(std::string("aggressor_submitted_") + key,
             static_cast<double>(r.aggressor_submitted));
    json.set(std::string("aggressor_completed_") + key,
             static_cast<double>(r.aggressor_completed));
    json.set(std::string("aggressor_rejected_") + key,
             static_cast<double>(r.aggressor_rejected));
  };
  row("uncontended", "uncontended", false, baseline);
  row("qos idle", "qos_idle", true, qos_idle);
  row("unthrottled", "unthrottled", false, unthrottled);
  row("qos", "qos", true, qos);
  std::printf("%s", t.render().c_str());

  json.set("victim_p99_ratio_unthrottled", ratio_unthrottled);
  json.set("victim_p99_ratio_qos", ratio_qos);
  json.set("qos_isolation_speedup", ratio_unthrottled / ratio_qos);
  const double idle_overhead_pct =
      100.0 * (percentile(qos_idle.victim_ms, 0.50) - base_p50) / base_p50;
  json.set("qos_idle_overhead_pct", idle_overhead_pct);

  std::printf("\nvictim p99 vs uncontended: unthrottled %.1fx, qos %.1fx "
              "(acceptance: qos <= 2x while unthrottled degrades)\n",
              ratio_unthrottled, ratio_qos);
  std::printf("admission plane idle overhead: %+.1f%% on victim p50\n",
              idle_overhead_pct);
  if (ratio_qos > 2.0) {
    std::printf("warning: QoS victim p99 above the 2x isolation target on "
                "this machine\n");
  }

  // Embed the registry as the contended QoS phase saw it, so BENCH json
  // carries the qos_* series (admission queue depths, per-class
  // picks/admissions, reject taxonomy) and the live service's per-shard
  // phase histograms alongside the fabric metrics. A scrape after every service has
  // gone would hold only their retired counters.
  json.set_raw("telemetry", qos.telemetry);
  if (!json.write()) std::printf("warning: could not write BENCH json\n");
  return 0;
}
