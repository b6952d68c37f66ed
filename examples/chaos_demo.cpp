// Chaos replay harness: expands a seed into a Byzantine fault mix (the
// SAME expansion the chaos soak test uses, so a seed printed by a failing
// CI soak replays byte-identically here), runs the scenario through the
// session or cluster fabric, and checks the recovery contract:
//   - recoverable runs end bit-identical to the fault-free reference
//     (survivor reference when a worker dies under the degrade policy);
//   - unrecoverable runs (kAbort worker death) raise the typed
//     WorkerDeadError with the failure books intact.
// Fault telemetry counters are printed from the metrics registry.
//
//   example_chaos_demo --seed 7            replay soak seed 7
//   example_chaos_demo --seed 0 --runs 50  mini-soak over seeds [0, 50)
//   example_chaos_demo --fault-mix corrupt=0.3,stale=0.3,wipe=1
//                                          override the drawn mix
#include <cstdio>
#include <cstdlib>
#include <span>
#include <string>
#include <vector>

#include "cluster/aggregation_service.h"
#include "core/packed.h"
#include "fault/fault.h"
#include "switchml/session.h"
#include "telemetry/metrics.h"
#include "util/rng.h"
#include "util/table.h"

namespace {

constexpr std::size_t kVectorLen = 96;  // 48 chunks @ 2 lanes -> 3 waves

// One-binade integers: every in-switch add is exact, so recovery is
// checkable as bit-identity.
std::vector<std::vector<float>> make_exact_workers(int w, std::size_t n,
                                                   std::uint64_t seed) {
  fpisa::util::Rng rng(seed);
  std::vector<std::vector<float>> out(static_cast<std::size_t>(w),
                                      std::vector<float>(n));
  for (auto& vec : out) {
    for (auto& v : vec) v = static_cast<float>(256 + rng.next_below(256));
  }
  return out;
}

std::vector<std::vector<float>> survivors_of(
    const std::vector<std::vector<float>>& workers, int dead) {
  std::vector<std::vector<float>> out;
  for (std::size_t w = 0; w < workers.size(); ++w) {
    if (static_cast<int>(w) != dead) out.push_back(workers[w]);
  }
  return out;
}

bool bits_equal(const std::vector<float>& a, const std::vector<float>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (fpisa::core::fp32_bits(a[i]) != fpisa::core::fp32_bits(b[i])) {
      return false;
    }
  }
  return true;
}

bool expects_abort(const fpisa::fault::ChaosMix& mix) {
  return mix.fault.dead_worker >= 0 &&
         mix.fault.dead_worker_policy ==
             fpisa::fault::DeadWorkerPolicy::kAbort;
}

void print_mix(std::uint64_t seed, const fpisa::fault::ChaosMix& mix) {
  const auto& f = mix.fault;
  std::printf("seed %llu: %s, %d workers%s, loss %.3f\n",
              static_cast<unsigned long long>(seed),
              mix.cluster ? "cluster fabric" : "single-switch session",
              mix.num_workers,
              mix.cluster ? (", " + std::to_string(mix.num_shards) +
                             " shards").c_str()
                          : "",
              mix.loss_rate);
  std::printf("  corrupt %.3f  reorder %.3f  dup %.3f  stale %.3f\n",
              f.corrupt_rate, f.reorder_rate, f.dup_rate, f.stale_dup_rate);
  if (f.wipe_switch) {
    std::printf("  switch state wiped after wave %zu\n", f.wipe_wave);
  }
  if (f.dead_worker >= 0) {
    std::printf("  worker %d dies at wave %zu, policy %s\n", f.dead_worker,
                f.dead_worker_wave,
                f.dead_worker_policy ==
                        fpisa::fault::DeadWorkerPolicy::kAbort
                    ? "abort"
                    : "degrade");
  }
}

// Runs one scenario; returns true when the recovery contract held, and
// accumulates the run's fault counters into `totals`.
bool run_seed(std::uint64_t seed, const fpisa::fault::ChaosMix& mix,
              fpisa::fault::FaultCounters& totals) {
  using namespace fpisa;
  const auto workers =
      make_exact_workers(mix.num_workers, kVectorLen, seed * 7 + 1);
  const bool degrade_death =
      mix.fault.dead_worker >= 0 && !expects_abort(mix);
  const auto ref_workers =
      degrade_death ? survivors_of(workers, mix.fault.dead_worker) : workers;
  // Every reduce reads the gradients through views and writes the sum into
  // a caller-owned buffer.
  const std::vector<std::span<const float>> views(workers.begin(),
                                                  workers.end());
  const std::vector<std::span<const float>> ref_views(ref_workers.begin(),
                                                      ref_workers.end());
  std::vector<float> want(kVectorLen);
  std::vector<float> got(kVectorLen);

  if (!mix.cluster) {
    switchml::SessionOptions opts;
    opts.num_workers = static_cast<int>(ref_workers.size());
    opts.slots = 16;
    opts.lanes = 2;
    switchml::AggregationSession ref(pisa::SwitchConfig{}, opts);
    ref.reduce_into(ref_views, want);

    opts.num_workers = mix.num_workers;
    opts.loss_rate = mix.loss_rate;
    opts.loss_seed = seed * 11 + 3;
    opts.fault = mix.fault;
    switchml::AggregationSession session(pisa::SwitchConfig{}, opts);
    if (expects_abort(mix)) {
      try {
        session.reduce_into(views, got);
        std::printf("  FAIL: abort-policy death did not raise\n");
        return false;
      } catch (const fault::WorkerDeadError& e) {
        std::printf("  typed failure as designed: %s\n", e.what());
        totals += session.stats().faults;
        return true;
      }
    }
    session.reduce_into(views, got);
    totals += session.stats().faults;
    const bool ok = bits_equal(got, want) &&
                    session.fpisa_switch().occupied_slots() == 0;
    std::printf("  recovered bit-identical, no leaked switch state: %s\n",
                ok ? "YES" : "NO (bug!)");
    return ok;
  }

  cluster::ClusterOptions opts;
  opts.num_shards = mix.num_shards;
  opts.slots_per_shard = 16;
  opts.slots_per_job = 8;
  opts.lanes = 2;
  cluster::ClusterOptions ref_opts = opts;
  cluster::AggregationService ref(ref_opts);
  (void)ref.reduce({"chaos", ref_views}, want);

  opts.loss_rate = mix.loss_rate;
  opts.fault = mix.fault;
  cluster::AggregationService svc(opts);
  const cluster::JobView job{"chaos", views};
  if (expects_abort(mix)) {
    try {
      (void)svc.reduce(job, got);
      std::printf("  FAIL: abort-policy death did not raise\n");
      return false;
    } catch (const fault::WorkerDeadError& e) {
      const bool books = svc.jobs_failed() == 1 &&
                         svc.tenant_slo("chaos").jobs_failed == 1;
      std::printf("  typed failure as designed: %s (books intact: %s)\n",
                  e.what(), books ? "YES" : "NO (bug!)");
      return books;
    }
  }
  const cluster::JobReport report = svc.reduce(job, got);
  totals += report.stats.faults;
  const bool ok = bits_equal(got, want);
  std::printf("  recovered bit-identical: %s\n", ok ? "YES" : "NO (bug!)");
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fpisa;

  std::uint64_t seed = 0;
  int runs = 1;
  std::string mix_spec;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--seed" && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--runs" && i + 1 < argc) {
      runs = std::atoi(argv[++i]);
    } else if (arg == "--fault-mix" && i + 1 < argc) {
      mix_spec = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--seed <n>] [--runs <n>] "
                   "[--fault-mix k=v,k=v,...]\n"
                   "  fault-mix keys: corrupt reorder dup stale loss wipe "
                   "dead dead_wave policy\n",
                   argv[0]);
      return 2;
    }
  }
  if (runs < 1) runs = 1;

  std::printf("=== chaos replay: %d seeded fault mix%s from seed %llu ===\n\n",
              runs, runs == 1 ? "" : "es",
              static_cast<unsigned long long>(seed));

  int failures = 0;
  fault::FaultCounters totals{};
  for (int r = 0; r < runs; ++r) {
    const std::uint64_t s = seed + static_cast<std::uint64_t>(r);
    fault::ChaosMix mix = fault::draw_chaos_mix(s);
    if (!mix_spec.empty()) {
      mix.fault = {};
      mix.fault.seed = s + 1;
      if (!fault::parse_fault_mix(mix_spec, mix.fault, &mix.loss_rate)) {
        std::fprintf(stderr, "error: bad --fault-mix spec '%s'\n",
                     mix_spec.c_str());
        return 2;
      }
    }
    print_mix(s, mix);
    if (!run_seed(s, mix, totals)) ++failures;
  }

  // Per-run counters (from the stats books) and the registry's view (the
  // switch-side guard counts land there even for session runs).
  const telemetry::Snapshot snap = telemetry::snapshot();
  util::Table t({"Fault telemetry", "Value"});
  t.add_row({"corrupt copies rejected (runs)",
             std::to_string(totals.corrupt_rejected)});
  t.add_row({"stale duplicates rejected (runs)",
             std::to_string(totals.stale_dups_rejected)});
  t.add_row({"epoch bumps (runs)", std::to_string(totals.epoch_bumps)});
  t.add_row({"workers declared dead (runs)",
             std::to_string(totals.workers_declared_dead)});
  t.add_row({"waves replayed (runs)", std::to_string(totals.waves_replayed)});
  t.add_row({"fpisa_switch_corrupt_rejected_total",
             std::to_string(
                 snap.counter_total("fpisa_switch_corrupt_rejected_total"))});
  t.add_row({"fpisa_switch_stale_dups_rejected_total",
             std::to_string(snap.counter_total(
                 "fpisa_switch_stale_dups_rejected_total"))});
  t.add_row({"cluster_fault_epoch_bumps_total",
             std::to_string(
                 snap.counter_total("cluster_fault_epoch_bumps_total"))});
  t.add_row({"cluster_fault_workers_declared_dead_total",
             std::to_string(snap.counter_total(
                 "cluster_fault_workers_declared_dead_total"))});
  t.add_row({"cluster_fault_waves_replayed_total",
             std::to_string(
                 snap.counter_total("cluster_fault_waves_replayed_total"))});
  std::printf("\n%s\n", t.render().c_str());

  if (failures != 0) {
    std::fprintf(stderr,
                 "%d of %d runs violated the recovery contract; reproduce "
                 "with: example_chaos_demo --seed <printed seed>\n",
                 failures, runs);
    return 1;
  }
  std::printf("all %d run%s honored the recovery contract.\n", runs,
              runs == 1 ? "" : "s");
  return 0;
}
