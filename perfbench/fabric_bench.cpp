// Fabric benchmark program. Drives one named workload through the public
// collective::Communicator API for a fixed stretch of host time, checks every
// job's output against the FP64 exact sum of its inputs, and — in traced
// mode — times the same payload at each layer's public entry point (core
// kernel -> switch -> session -> cluster service -> communicator, plus the
// tree, QoS and telemetry rows).
//
// Usage: fabric_bench --workload NAME --seed N --seconds S --trace 0|1
//
// Prints ONE JSON document of raw samples on stdout (latencies, completion
// times, set-up samples, spans, exact simulator counts); perfbench/run.py
// turns it into the benchmark's metrics. Every time is host time (what the
// simulator costs), never modelled switch time; simulated quantities are
// reported as exact counts.
//
// Exit codes: 0 ran (check "failed" for output errors), 2 usage, 3 refused
// (not a Release build, or a sanitizer build).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <deque>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <sstream>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <unistd.h>

#include "cluster/aggregation_service.h"
#include "cluster/hierarchy.h"
#include "collective/communicator.h"
#include "core/batch_accumulator.h"
#include "pisa/fpisa_program.h"
#include "qos/qos.h"
#include "switchml/session.h"
#include "telemetry/metrics.h"
#include "util/build_info.h"
#include "util/rng.h"

namespace {

using namespace fpisa;
using Clock = std::chrono::steady_clock;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

constexpr int kLanes = 32;  // FP values per packet, every workload
constexpr int kSegments = 8;         // timed segments per untraced run
constexpr double kWarmSeconds = 1.0;  // untimed closed loop before timing
// Set-up samples before each timed segment: at least one, then more until
// this much host time is spent (short set-ups get many samples).
constexpr double kSetupBudgetSeconds = 0.2;
// A thread counts as busy when it uses at least this share of a CPU over
// the timed loops.
constexpr double kBusyShare = 0.1;

// ---------------------------------------------------------------------------
// Workloads

enum class Shape { kSync, kAsync };

struct WorkloadSpec {
  std::string_view name;
  collective::Backend backend;
  Shape shape;
  int workers;
  std::size_t values;   ///< output elements per job
  std::size_t pool;     ///< distinct seeded jobs, cycled by the timed loop
  int busy_threads;     ///< expected: generator + the fabric's busy threads
  int in_flight;        ///< closed-loop window (1 for the sync shapes)
  int jobs_per_window;  ///< consecutive jobs per values_per_s window
};

constexpr WorkloadSpec kWorkloads[] = {
    {"train_bucketed", collective::Backend::kCluster, Shape::kSync, 8,
     256 * 1024, 8, 3, 1, 16},
    {"lossy_switch", collective::Backend::kSwitch, Shape::kSync, 4,
     256 * 1024, 8, 1, 1, 16},
    {"multitenant_small", collective::Backend::kCluster, Shape::kAsync, 4,
     16 * 1024, 32, 3, 4, 256},
    {"tree_allreduce", collective::Backend::kTree, Shape::kSync, 8,
     16 * 1024, 8, 1, 1, 4},
};

const WorkloadSpec* find_workload(std::string_view name) {
  for (const auto& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

/// The §4.2 extended switch (RSAW + two-operand shift), i.e. full FPISA:
/// its per-add error is bounded (see tolerance()), so every output can be
/// checked against the exact sum. FPISA-A's overwrite / left-shift-wrap
/// regimes have no such per-element bound on wide-exponent data.
pisa::SwitchConfig full_fpisa_switch() {
  pisa::SwitchConfig c;
  c.ext.rsaw = true;
  c.ext.two_operand_shift = true;
  return c;
}

const char* const kTenants[] = {"training", "query", "telemetry"};
constexpr qos::Priority kTenantClass[] = {
    qos::Priority::kTraining, qos::Priority::kQuery,
    qos::Priority::kTelemetry};

collective::CommunicatorOptions workload_options(const WorkloadSpec& w,
                                                 std::uint64_t seed) {
  collective::CommunicatorOptions o;
  o.backend = w.backend;
  if (w.name == "train_bucketed") {
    auto& c = o.cluster;
    c.num_shards = 2;
    c.dispatch = cluster::ClusterOptions::DispatchMode::kWorkers;
    c.pipeline_waves = true;
    c.slots_per_shard = 64;
    c.slots_per_job = 64;
    c.lanes = kLanes;
    c.switch_config = full_fpisa_switch();
  } else if (w.name == "lossy_switch") {
    auto& s = o.session;
    s.num_workers = w.workers;
    s.slots = 64;
    s.lanes = kLanes;
    s.loss_rate = 0.01;
    s.loss_seed = seed;
    o.switch_config = full_fpisa_switch();
  } else if (w.name == "multitenant_small") {
    auto& c = o.cluster;
    c.num_shards = 2;
    c.dispatch = cluster::ClusterOptions::DispatchMode::kInline;
    c.job_runner_threads = 2;
    c.slots_per_shard = 64;
    c.slots_per_job = 16;
    c.lanes = kLanes;
    c.switch_config = full_fpisa_switch();
    // Unlimited rates and queue bounds far above the window: nothing may
    // be rejected, so any rejection is a failure.
    o.qos.enabled = true;
    o.qos.default_max_queued_jobs = 1024;
    for (std::size_t t = 0; t < 3; ++t) {
      qos::TenantQosConfig cfg;
      cfg.priority = kTenantClass[t];
      o.qos.tenants[kTenants[t]] = cfg;
    }
  } else {
    auto& h = o.hierarchy;
    h.leaves = w.workers / 2;
    h.workers_per_leaf = 2;
    h.slots = 64;
    h.lanes = kLanes;
    h.switch_config = full_fpisa_switch();
  }
  return o;
}

// ---------------------------------------------------------------------------
// Seeded inputs and the FP64 reference

/// One seeded job: W worker gradients plus the exact sum and the per-element
/// error bound its result is checked against.
struct PoolJob {
  std::vector<std::vector<float>> data;
  std::vector<std::span<const float>> views;
  std::vector<double> exact;
  std::vector<float> tol;
};

/// Per-element bound on |FPISA sum - exact sum| for full FPISA with a
/// 32-bit register and truncating reads. With e = the largest input
/// exponent of the element, one ulp at e is u = 2^(e-23):
///  * each of the W register adds truncates the smaller, aligned operand:
///    < u each (the register exponent never exceeds e);
///  * the read truncates to FP32: < one ulp of |sum| <= W * 2^(e+1),
///    i.e. < 2W u;
///  * the tree adds, per leaf, a leaf read (< 2 * 2 u for 2 workers per
///    leaf) and a spine add (< u): < 5 (W/2) u.
/// All together < 6W u; 8W u leaves margin. Flushed-to-zero results add
/// at most the smallest normal, 2^-126.
float tolerance(int workers, int max_exp) {
  return std::ldexp(8.0f * static_cast<float>(workers), max_exp - 23) +
         std::ldexp(1.0f, -126);
}

std::vector<PoolJob> make_pool(const WorkloadSpec& w, std::uint64_t seed) {
  util::Rng rng(seed * 0x9e3779b97f4a7c15ULL + w.values + w.workers);
  // Per-job scales: log-uniform over 1e-3 .. 1e+1, one per stratum of equal
  // width, in a seeded order. Stratifying keeps the spread of scales (and
  // so of mean_abs_error) alike across seeds.
  std::vector<std::size_t> order(w.pool);
  std::iota(order.begin(), order.end(), std::size_t{0});
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.next_below(i)]);
  }
  std::vector<PoolJob> pool(w.pool);
  const auto W = static_cast<std::size_t>(w.workers);
  for (std::size_t p = 0; p < w.pool; ++p) {
    PoolJob& job = pool[p];
    const double decade =
        -3.0 + 4.0 * (static_cast<double>(order[p]) + 0.5) /
                   static_cast<double>(w.pool);
    const double scale = std::pow(10.0, decade);
    job.data.assign(W, std::vector<float>(w.values));
    for (auto& vec : job.data) {
      for (float& v : vec) v = static_cast<float>(rng.normal() * scale);
    }
    job.views.assign(job.data.begin(), job.data.end());
    job.exact.assign(w.values, 0.0);
    job.tol.assign(w.values, 0.0f);
    for (std::size_t i = 0; i < w.values; ++i) {
      double sum = 0;
      int max_exp = -127;
      for (std::size_t k = 0; k < W; ++k) {
        const float v = job.data[k][i];
        sum += v;
        if (v != 0.0f) max_exp = std::max(max_exp, std::ilogb(v));
      }
      job.exact[i] = sum;
      job.tol[i] = tolerance(w.workers, max_exp);
    }
  }
  return pool;
}

// ---------------------------------------------------------------------------
// Run books: operation counts, checks, samples

struct Books {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t rejected = 0;              ///< qos::AdmissionRejectedError
  std::uint64_t retransmit_exhausted = 0;  ///< RetransmitExhaustedError
  std::uint64_t wrong_results = 0;
  std::vector<std::string> errors;  ///< first few failure messages

  void fail(std::string msg) {
    ++failed;
    if (errors.size() < 8) errors.push_back(std::move(msg));
  }
  /// Checks one output against the job's FP64 reference; returns the summed
  /// absolute error (a failed check counts the operation as failed).
  double check(const PoolJob& job, std::span<const float> out) {
    double err_sum = 0;
    std::size_t bad = out.size();
    for (std::size_t i = 0; i < out.size(); ++i) {
      const double err = std::fabs(static_cast<double>(out[i]) - job.exact[i]);
      err_sum += err;
      if (!(err <= job.tol[i]) && bad == out.size()) bad = i;
    }
    if (bad != out.size()) {
      ++wrong_results;
      char msg[160];
      std::snprintf(msg, sizeof msg,
                    "element %zu: got %.9g, exact %.9g, tolerance %.3g", bad,
                    static_cast<double>(out[bad]), job.exact[bad],
                    static_cast<double>(job.tol[bad]));
      fail(msg);
    }
    return err_sum;
  }
  /// Runs one operation, counting it and classifying any exception.
  template <class F>
  bool attempt(F&& op) {
    ++attempted;
    try {
      op();
      return true;
    } catch (const qos::AdmissionRejectedError& e) {
      ++rejected;
      fail(e.what());
    } catch (const switchml::RetransmitExhaustedError& e) {
      ++retransmit_exhausted;
      fail(e.what());
    } catch (const std::exception& e) {
      fail(e.what());
    }
    return false;
  }
};

/// Benchmark-owned spans: name, start, end, parent and job id, kept in a
/// buffer preallocated before timing starts and written once at exit.
class SpanBuffer {
 public:
  static constexpr std::uint32_t kNone = 0;

  explicit SpanBuffer(std::size_t capacity) { spans_.reserve(capacity); }

  /// Interns a span name (call before timing: it may allocate).
  std::uint32_t name(std::string_view n, double units_per_call) {
    for (std::size_t i = 0; i < names_.size(); ++i) {
      if (names_[i] == n) return static_cast<std::uint32_t>(i);
    }
    names_.emplace_back(n);
    units_.push_back(units_per_call);
    return static_cast<std::uint32_t>(names_.size() - 1);
  }
  /// Opens a span; returns its 1-based id (kNone when the buffer is full —
  /// the span is then dropped, never reallocated mid-run).
  std::uint32_t open(std::uint32_t name, std::uint32_t parent,
                     std::uint64_t job) {
    if (spans_.size() == spans_.capacity()) {
      ++dropped_;
      return kNone;
    }
    spans_.push_back({name, parent, job, now_ns(), -1});
    return static_cast<std::uint32_t>(spans_.size());
  }
  void close(std::uint32_t id) {
    if (id != kNone) spans_[id - 1].end = now_ns();
  }
  template <class F>
  void record(std::uint32_t name, std::uint32_t parent, std::uint64_t job,
              F&& f) {
    const std::uint32_t id = open(name, parent, job);
    try {
      f();
    } catch (...) {
      close(id);
      throw;
    }
    close(id);
  }

  void write_json(std::FILE* f) const;

 private:
  struct Span {
    std::uint32_t name;
    std::uint32_t parent;
    std::uint64_t job;
    std::int64_t start;
    std::int64_t end;
  };
  std::vector<Span> spans_;
  std::vector<std::string> names_;
  std::vector<double> units_;
  std::uint64_t dropped_ = 0;
};

void SpanBuffer::write_json(std::FILE* f) const {
  std::fprintf(f, "{\"names\": [");
  for (std::size_t i = 0; i < names_.size(); ++i) {
    std::fprintf(f, "%s\"%s\"", i ? ", " : "", names_[i].c_str());
  }
  std::fprintf(f, "], \"units\": [");
  for (std::size_t i = 0; i < units_.size(); ++i) {
    std::fprintf(f, "%s%.17g", i ? ", " : "", units_[i]);
  }
  std::fprintf(f, "], \"dropped\": %llu, \"spans\": [",
               static_cast<unsigned long long>(dropped_));
  // [name, parent, job, start_ns, end_ns]; parent is a 1-based span id.
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%s[%u, %u, %llu, %lld, %lld]", i ? ", " : "", s.name,
                 s.parent, static_cast<unsigned long long>(s.job),
                 static_cast<long long>(s.start),
                 static_cast<long long>(s.end));
  }
  std::fprintf(f, "]}");
}

/// Closed-loop samples: completion time and latency per job, plus the
/// job's tenant class (async shape; 0 otherwise), in segments of
/// uninterrupted looping (segment k starts at seg_start[k] with job
/// seg_first[k]).
struct LoopSamples {
  std::vector<std::int64_t> end_ns;
  std::vector<std::int64_t> lat_ns;
  std::vector<int> cls;
  std::vector<std::int64_t> seg_start;
  std::vector<std::size_t> seg_first;
};

// ---------------------------------------------------------------------------
// The end-to-end closed loops

class Runner {
 public:
  Runner(const WorkloadSpec& w, std::uint64_t seed)
      : w_(w), opts_(workload_options(w, seed)), pool_(make_pool(w, seed)) {
    outs_.assign(static_cast<std::size_t>(w.in_flight),
                 std::vector<float>(w.values));
  }

  /// One set-up sample: communicator construction up to the completion of
  /// its first (warm-up) job. With `keep` the communicator becomes the one
  /// the loops drive; otherwise it is torn down after the sample.
  double setup_sample(Books& books, bool keep) {
    const std::int64_t t0 = now_ns();
    auto comm = collective::make_communicator(opts_);
    std::vector<collective::TenantHandle> tenants;
    for (const char* t : kTenants) tenants.push_back(comm->tenant(t));
    const bool ok = run_one(*comm, tenants[0], 0, books, nullptr);
    const double sample = static_cast<double>(now_ns() - t0) * 1e-9;
    if (ok) books.check(pool_[0], outs_[0]);
    if (keep) {
      comm_ = std::move(comm);
      tenants_ = std::move(tenants);
    }
    return sample;
  }

  /// One pass over the pool, every output checked: the deterministic set of
  /// outputs mean_abs_error is taken over.
  double warm_pass(Books& books) {
    double err = 0;
    for (std::size_t p = 0; p < pool_.size(); ++p) {
      if (run_one(*comm_, tenants_[0], p, books, nullptr)) {
        err += books.check(pool_[p], outs_[0]);
      }
    }
    return err / static_cast<double>(pool_.size() * w_.values);
  }

  /// Closed loop for `seconds` of host time, appended to `s` as one
  /// segment. With `spans`, records the benchmark's own spans around each
  /// public call.
  void loop(double seconds, Books& books, SpanBuffer* spans, LoopSamples& s) {
    s.seg_first.push_back(s.end_ns.size());
    s.seg_start.push_back(now_ns());
    const std::int64_t deadline =
        s.seg_start.back() + static_cast<std::int64_t>(seconds * 1e9);
    if (w_.shape == Shape::kSync) {
      for (std::uint64_t i = 0; now_ns() < deadline; ++i) {
        const std::size_t p = i % pool_.size();
        const std::uint32_t job_span =
            spans ? spans->open(sp_job_, SpanBuffer::kNone, i)
                  : SpanBuffer::kNone;
        const std::int64_t t0 = now_ns();
        const bool ok = run_one(*comm_, tenants_[0], p, books, spans,
                                job_span, i);
        const std::int64_t t1 = now_ns();
        if (ok) {
          s.end_ns.push_back(t1);
          s.lat_ns.push_back(t1 - t0);
          s.cls.push_back(0);
          books.check(pool_[p], outs_[0]);
        }
        if (spans) spans->close(job_span);
      }
      return;
    }
    // Async: keep `in_flight` jobs outstanding, round-robin over the three
    // tenants; latency runs from submit to the return of wait().
    struct Flight {
      collective::JobHandle h;
      std::size_t p = 0;
      std::size_t out = 0;
      std::int64_t t0 = 0;
      int cls = 0;
      std::uint32_t span = SpanBuffer::kNone;
      std::uint64_t job = 0;
    };
    std::deque<Flight> flight;
    std::vector<std::size_t> free_outs(outs_.size());
    std::iota(free_outs.begin(), free_outs.end(), std::size_t{0});
    std::uint64_t next = 0;
    const auto submit = [&] {
      Flight fl;
      fl.job = next++;
      fl.p = fl.job % pool_.size();
      fl.out = free_outs.back();
      fl.cls = static_cast<int>(fl.job % 3);
      fl.span = spans ? spans->open(sp_job_, SpanBuffer::kNone, fl.job)
                      : SpanBuffer::kNone;
      fl.t0 = now_ns();
      const std::uint32_t sub =
          spans ? spans->open(sp_submit_, fl.span, fl.job) : SpanBuffer::kNone;
      const bool ok = books.attempt([&] {
        fl.h = tenants_[static_cast<std::size_t>(fl.cls)].submit(
            collective::WorkerViews(std::span<const std::span<const float>>(
                pool_[fl.p].views)),
            outs_[fl.out]);
      });
      if (spans) spans->close(sub);
      if (!ok) {
        if (spans) spans->close(fl.span);
        return false;
      }
      free_outs.pop_back();
      flight.push_back(std::move(fl));
      return true;
    };
    const auto retire = [&] {
      Flight fl = std::move(flight.front());
      flight.pop_front();
      const std::uint32_t wait =
          spans ? spans->open(sp_wait_, fl.span, fl.job) : SpanBuffer::kNone;
      bool ok = true;
      try {
        fl.h.wait();
      } catch (const std::exception& e) {
        ok = false;
        books.fail(e.what());
      }
      const std::int64_t t1 = now_ns();
      if (spans) {
        spans->close(wait);
        spans->close(fl.span);
      }
      if (ok) {
        s.end_ns.push_back(t1);
        s.lat_ns.push_back(t1 - fl.t0);
        s.cls.push_back(fl.cls);
        books.check(pool_[fl.p], outs_[fl.out]);
      }
      free_outs.push_back(fl.out);
    };
    while (now_ns() < deadline) {
      // A rejected submit leaves its slot free; retire before retrying.
      while (flight.size() < outs_.size() && submit()) {
      }
      if (!flight.empty()) retire();
    }
    while (!flight.empty()) retire();
  }

  /// Interns the e2e span names.
  void name_spans(SpanBuffer& spans) {
    sp_job_ = spans.name("e2e.job", static_cast<double>(w_.values));
    sp_call_ = spans.name("e2e.allreduce", static_cast<double>(w_.values));
    sp_submit_ = spans.name("e2e.submit", 1);
    sp_wait_ = spans.name("e2e.wait", 1);
  }

  collective::Communicator& comm() { return *comm_; }
  const std::vector<PoolJob>& pool() const { return pool_; }

 private:
  /// One job on pool entry `p` into outs_[0] (sync, or submit + wait).
  bool run_one(collective::Communicator& comm,
               collective::TenantHandle& tenant, std::size_t p, Books& books,
               SpanBuffer* spans, std::uint32_t parent = SpanBuffer::kNone,
               std::uint64_t job = 0) {
    const collective::WorkerViews views(
        std::span<const std::span<const float>>(pool_[p].views));
    const std::uint32_t id =
        spans ? spans->open(sp_call_, parent, job) : SpanBuffer::kNone;
    const bool ok = books.attempt([&] {
      if (w_.shape == Shape::kSync) {
        comm.allreduce(views, outs_[0]);
      } else {
        tenant.submit(views, outs_[0]).wait();
      }
    });
    if (spans) spans->close(id);
    return ok;
  }

  const WorkloadSpec& w_;
  collective::CommunicatorOptions opts_;
  std::vector<PoolJob> pool_;
  std::vector<std::vector<float>> outs_;
  std::unique_ptr<collective::Communicator> comm_;
  std::vector<collective::TenantHandle> tenants_;
  std::uint32_t sp_job_ = 0, sp_call_ = 0, sp_submit_ = 0, sp_wait_ = 0;
};

// ---------------------------------------------------------------------------
// Per-layer ladder (traced mode): the workload's payload at each layer

/// Runs `f(rep)` at least `min_reps` times, then until `budget_s` of host
/// time is spent (or `max_reps`).
template <class F>
void repeat(double budget_s, F&& f, int min_reps = 3, int max_reps = 400) {
  const std::int64_t end = now_ns() + static_cast<std::int64_t>(budget_s * 1e9);
  for (int r = 0; r < max_reps && (r < min_reps || now_ns() < end); ++r) {
    f(static_cast<std::uint64_t>(r));
  }
}

/// Exact counts and phase splits the ladder reads off the program.
struct LayerCounts {
  switchml::SessionStats lossy;   ///< one lossy reduce on a fresh session
  double switchml_add_s = 0, switchml_collect_s = 0;
  std::uint64_t switchml_jobs = 0;
  double cluster_add_s = 0, cluster_collect_s = 0;
  std::uint64_t cluster_jobs = 0;
  std::uint64_t mailbox_jobs = 0, mailbox_tickets = 0;
  std::uint64_t mailbox_wakeups = 0, spurious_wakeups = 0;
  std::uint64_t class_picks[3] = {};
  std::uint64_t qos_rejected = 0, peak_concurrent_jobs = 0;
  std::uint64_t tree_packets = 0;
  double tree_done_s = 0;
  std::size_t tree_values = 0;
};

/// The cluster rows' service: train_bucketed's fabric, either dispatch.
cluster::ClusterOptions layer_cluster(cluster::ClusterOptions::DispatchMode d) {
  cluster::ClusterOptions c;
  c.num_shards = 2;
  c.dispatch = d;
  c.slots_per_shard = 64;
  c.slots_per_job = 64;
  c.lanes = kLanes;
  c.switch_config = full_fpisa_switch();
  return c;
}

void run_layers(const WorkloadSpec& w, const PoolJob& job, double budget_s,
                SpanBuffer& spans, LayerCounts& counts, Books& books) {
  const auto W = static_cast<std::size_t>(w.workers);
  const std::size_t n = w.values;
  const std::size_t n_slots = n / kLanes;
  const double inputs = static_cast<double>(W * n);
  const std::span<const std::span<const float>> views(job.views);
  std::vector<float> out(n);
  // Payload as FP32 bit patterns, worker-major (the kernels' input form).
  std::vector<std::vector<std::uint32_t>> bits(W, std::vector<std::uint32_t>(n));
  for (std::size_t k = 0; k < W; ++k) {
    std::memcpy(bits[k].data(), job.data[k].data(), n * sizeof(float));
  }
  const double per_layer = budget_s / 11.0;

  // core: the batch kernels on a register file of n slots.
  {
    const auto s_add = spans.name("core.fpisa_add_batch", static_cast<double>(n));
    const auto s_read =
        spans.name("core.fpisa_read_reset_batch", static_cast<double>(n));
    core::AccumulatorConfig cfg;
    cfg.variant = core::Variant::kFull;
    cfg.reg_bits = 32;
    cfg.overflow = core::OverflowPolicy::kWrap;
    core::RegisterFile rf(n);
    core::OpCounters ops;
    std::vector<std::uint32_t> read(n);
    repeat(per_layer, [&](std::uint64_t r) {
      for (std::size_t k = 0; k < W; ++k) {
        spans.record(s_add, SpanBuffer::kNone, r, [&] {
          core::fpisa_add_batch(bits[k], rf.exp, rf.man, cfg, ops);
        });
      }
      spans.record(s_read, SpanBuffer::kNone, r, [&] {
        core::fpisa_read_reset_batch(rf.exp, rf.man, read, cfg);
      });
    });
  }

  // pisa: the compiled batch ingress/egress over the whole payload (one
  // slot per 32-value chunk), then the interpreted per-packet path.
  {
    const auto s_add =
        spans.name("pisa.add_batch", static_cast<double>(W * n_slots));
    const auto s_col =
        spans.name("pisa.read_and_reset_batch", static_cast<double>(n_slots));
    pisa::FpisaProgramOptions po;
    po.variant = core::Variant::kFull;
    po.lanes = kLanes;
    po.slots = n_slots;
    po.num_workers = w.workers;
    pisa::FpisaSwitch sw(full_fpisa_switch(), po);
    std::vector<std::uint16_t> slots;
    std::vector<std::uint8_t> workers;
    std::vector<std::uint32_t> values;
    for (std::size_t c = 0; c < n_slots; ++c) {
      for (std::size_t k = 0; k < W; ++k) {
        slots.push_back(static_cast<std::uint16_t>(c));
        workers.push_back(static_cast<std::uint8_t>(k));
        values.insert(values.end(), bits[k].begin() + c * kLanes,
                      bits[k].begin() + (c + 1) * kLanes);
      }
    }
    std::vector<std::uint32_t> read(n);
    repeat(per_layer, [&](std::uint64_t r) {
      spans.record(s_add, SpanBuffer::kNone, r,
                   [&] { sw.add_batch(slots, workers, values); });
      spans.record(s_col, SpanBuffer::kNone, r, [&] {
        sw.read_and_reset_batch(0, n_slots, read);
      });
    });

    const auto s_padd = spans.name("pisa.add", 1);
    const auto s_preset = spans.name("pisa.read_and_reset", 1);
    const std::size_t interp_slots = std::min<std::size_t>(n_slots, 16);
    pisa::FpisaResult res;
    repeat(per_layer, [&](std::uint64_t r) {
      for (std::size_t c = 0; c < interp_slots; ++c) {
        for (std::size_t k = 0; k < W; ++k) {
          const std::span<const std::uint32_t> v(
              values.data() + (c * W + k) * kLanes, kLanes);
          spans.record(s_padd, SpanBuffer::kNone, r, [&] {
            res = sw.add(static_cast<std::uint16_t>(c),
                         static_cast<std::uint8_t>(k), v);
          });
        }
        spans.record(s_preset, SpanBuffer::kNone, r, [&] {
          res = sw.read_and_reset(static_cast<std::uint16_t>(c));
        });
      }
    });
  }

  // switchml: one session per loss rate. The lossy session's first reduce
  // gives the exact protocol counts.
  {
    switchml::SessionOptions so;
    so.num_workers = w.workers;
    so.slots = 64;
    so.lanes = kLanes;
    const auto s_red = spans.name("switchml.reduce_into", inputs);
    switchml::AggregationSession clean(full_fpisa_switch(), so);
    repeat(per_layer, [&](std::uint64_t r) {
      spans.record(s_red, SpanBuffer::kNone, r,
                   [&] { clean.reduce_into(views, out); });
      ++counts.switchml_jobs;
    });
    books.check(job, out);
    counts.switchml_add_s = clean.phase_breakdown().add_s;
    counts.switchml_collect_s = clean.phase_breakdown().collect_s;

    so.loss_rate = 0.01;
    so.loss_seed = 7;
    const auto s_lossy = spans.name("switchml.reduce_into_lossy", inputs);
    switchml::AggregationSession lossy(full_fpisa_switch(), so);
    repeat(per_layer, [&](std::uint64_t r) {
      spans.record(s_lossy, SpanBuffer::kNone, r,
                   [&] { lossy.reduce_into(views, out); });
      if (r == 0) counts.lossy = lossy.stats();
    });
    books.check(job, out);
  }

  // cluster: the service's view reduce under both dispatch modes, and the
  // fixed per-job cost of a one-chunk job.
  {
    const cluster::JobView jv{"bench", views};
    const auto s_w = spans.name("cluster.reduce", inputs);
    cluster::AggregationService svc(layer_cluster(
        cluster::ClusterOptions::DispatchMode::kWorkers));
    svc.reduce(jv, out);  // warm-up, kept out of the timed reps
    const auto phase0 = svc.phase_breakdown();
    std::uint64_t jobs = 0;
    repeat(per_layer, [&](std::uint64_t r) {
      spans.record(s_w, SpanBuffer::kNone, r, [&] { svc.reduce(jv, out); });
      ++jobs;
    });
    books.check(job, out);
    counts.cluster_add_s = svc.phase_breakdown().add_s - phase0.add_s;
    counts.cluster_collect_s =
        svc.phase_breakdown().collect_s - phase0.collect_s;
    counts.cluster_jobs = jobs;
    counts.mailbox_jobs = jobs + 1;  // + the warm-up
    for (int s = 0; s < svc.num_shards(); ++s) {
      counts.mailbox_tickets += svc.mailbox_stats(s).enqueued;
      counts.mailbox_wakeups += svc.mailbox_stats(s).wakeups;
      counts.spurious_wakeups += svc.mailbox_stats(s).spurious_wakeups;
    }

    const auto s_i = spans.name("cluster.reduce_inline", inputs);
    cluster::AggregationService inl(layer_cluster(
        cluster::ClusterOptions::DispatchMode::kInline));
    inl.reduce(jv, out);
    repeat(per_layer, [&](std::uint64_t r) {
      spans.record(s_i, SpanBuffer::kNone, r, [&] { inl.reduce(jv, out); });
    });
    books.check(job, out);

    std::vector<std::span<const float>> chunk(W);
    for (std::size_t k = 0; k < W; ++k) chunk[k] = views[k].first(kLanes);
    const cluster::JobView one{"bench", chunk};
    std::vector<float> out1(kLanes);
    const auto s_1 = spans.name("cluster.reduce_one_chunk", 1);
    repeat(per_layer, [&](std::uint64_t r) {
      spans.record(s_1, SpanBuffer::kNone, r, [&] { svc.reduce(one, out1); });
    }, 50, 2000);
  }

  // qos: async submits over the workload's payload on the QoS-enabled
  // multitenant configuration; a fixed 24-job run so the pick counts are
  // exact. The counts are structural: every admitted job is picked once,
  // so a round-robin run reads 8/8/8 whatever order the scheduler picks
  // in. They check that no job is lost or picked twice, not the weights.
  {
    collective::CommunicatorOptions o =
        workload_options(*find_workload("multitenant_small"), /*seed=*/1);
    auto comm = collective::make_communicator(o);
    std::vector<collective::TenantHandle> tenants;
    for (const char* t : kTenants) tenants.push_back(comm->tenant(t));
    const auto s_sub = spans.name("qos.submit", 1);
    std::vector<std::vector<float>> outs(4, std::vector<float>(n));
    std::deque<std::pair<collective::JobHandle, std::size_t>> flight;
    const auto retire = [&] {
      auto [h, o] = std::move(flight.front());
      flight.pop_front();
      if (books.attempt([&] { h.wait(); })) books.check(job, outs[o]);
    };
    constexpr std::uint64_t kJobs = 24;
    for (std::uint64_t j = 0; j < kJobs; ++j) {
      if (flight.size() == outs.size()) retire();
      const std::size_t o = j % outs.size();
      books.attempt([&] {
        spans.record(s_sub, SpanBuffer::kNone, j, [&] {
          flight.emplace_back(
              tenants[j % 3].submit(collective::WorkerViews(views), outs[o]),
              o);
        });
      });
    }
    while (!flight.empty()) retire();
    auto& svc = dynamic_cast<collective::ClusterCommunicator&>(*comm).service();
    for (std::size_t c = 0; c < 3; ++c) {
      counts.class_picks[c] = svc.class_picks(kTenantClass[c]);
    }
    counts.qos_rejected = svc.jobs_rejected();
    counts.peak_concurrent_jobs = svc.peak_concurrent_jobs();
  }

  // collective: Communicator::allreduce vs AggregationService::reduce on
  // the same service and payload, interleaved.
  {
    collective::ClusterCommunicator comm(layer_cluster(
        cluster::ClusterOptions::DispatchMode::kWorkers));
    const cluster::JobView jv{"bench", views};
    const auto s_comm = spans.name("collective.allreduce", inputs);
    const auto s_svc = spans.name("collective.service_reduce", inputs);
    comm.allreduce(collective::WorkerViews(views), out);
    repeat(per_layer, [&](std::uint64_t r) {
      spans.record(s_comm, SpanBuffer::kNone, r, [&] {
        comm.allreduce(collective::WorkerViews(views), out, {}, "bench");
      });
      spans.record(s_svc, SpanBuffer::kNone, r,
                   [&] { comm.service().reduce(jv, out); });
    });
    books.check(job, out);
  }

  // hierarchy: the tree's interpreted per-slot loop on a prefix of the
  // payload (at most 16K values: it runs ~100x slower than the cluster).
  {
    const std::size_t m = std::min<std::size_t>(n, 16 * 1024);
    std::vector<std::span<const float>> prefix(W);
    for (std::size_t k = 0; k < W; ++k) prefix[k] = views[k].first(m);
    cluster::HierarchyOptions ho;
    ho.leaves = w.workers / 2;
    ho.workers_per_leaf = 2;
    ho.slots = 64;
    ho.lanes = kLanes;
    ho.switch_config = full_fpisa_switch();
    cluster::HierarchicalAggregator tree(ho);
    const auto s_tree =
        spans.name("hierarchy.reduce_into", static_cast<double>(W * m));
    std::vector<float> tout(m);
    repeat(per_layer, [&](std::uint64_t r) {
      spans.record(s_tree, SpanBuffer::kNone, r,
                   [&] { tree.reduce_into(prefix, tout); });
    }, 2);
    counts.tree_packets = tree.timing().packets;
    counts.tree_done_s = tree.timing().done_s;
    counts.tree_values = m;
  }

  // telemetry: the same cluster reduce with the registry on vs off,
  // interleaved so host drift hits both sides alike.
  {
    cluster::AggregationService svc(layer_cluster(
        cluster::ClusterOptions::DispatchMode::kWorkers));
    const cluster::JobView jv{"bench", views};
    const auto s_on = spans.name("telemetry.reduce_on", inputs);
    const auto s_off = spans.name("telemetry.reduce_off", inputs);
    svc.reduce(jv, out);
    repeat(per_layer, [&](std::uint64_t r) {
      telemetry::set_enabled(true);
      spans.record(s_on, SpanBuffer::kNone, r, [&] { svc.reduce(jv, out); });
      telemetry::set_enabled(false);
      spans.record(s_off, SpanBuffer::kNone, r, [&] { svc.reduce(jv, out); });
    });
    telemetry::set_enabled(true);
    books.check(job, out);
  }
}

// ---------------------------------------------------------------------------
// Process probes and output

/// Effective core clock in GHz from a dependent 64-bit multiply chain
/// (taken as 3 cycles per multiply), timed for ~50 ms. Recorded as
/// provenance only, so a reader can tell a slow spell of a shared host
/// from a change in the program; no metric is rescaled by it.
double host_ghz() {
  constexpr std::uint64_t kIters = 1u << 24;
  std::uint64_t x = 12345;
  const std::int64_t t0 = now_ns();
  for (std::uint64_t i = 0; i < kIters; ++i) {
    x *= 0x9E3779B97F4A7C15ULL;
    __asm__ volatile("" : "+r"(x));  // keep the chain from being folded
  }
  const double ns = static_cast<double>(now_ns() - t0);
  return 3.0 * static_cast<double>(kIters) / ns;
}

long proc_status_kb(const char* key) {
  std::ifstream f("/proc/self/status");
  std::string line;
  const std::size_t len = std::strlen(key);
  while (std::getline(f, line)) {
    if (line.compare(0, len, key) == 0) return std::stol(line.substr(len));
  }
  return -1;
}

/// CPU time (clock ticks) each thread of this process has used so far, by
/// thread id, from /proc/self/task/<tid>/stat.
std::map<long, long> thread_cpu_ticks() {
  std::map<long, long> out;
  std::error_code ec;
  for (const auto& e :
       std::filesystem::directory_iterator("/proc/self/task", ec)) {
    std::ifstream f(e.path() / "stat");
    std::string line;
    if (!std::getline(f, line)) continue;  // the thread has exited
    // Fields after the ")" closing the command name start at field 3
    // (state); utime and stime are fields 14 and 15.
    const std::size_t close = line.rfind(')');
    if (close == std::string::npos) continue;
    std::istringstream in(line.substr(close + 1));
    std::string field;
    long ticks = 0;
    for (int i = 3; i <= 15 && in >> field; ++i) {
      if (i >= 14) ticks += std::stol(field);
    }
    out[std::stol(e.path().filename().string())] = ticks;
  }
  return out;
}

/// Which threads keep a CPU busy during the timed loops: CPU time per
/// thread over the loops it brackets (threads alive at both ends).
class ThreadLoad {
 public:
  void begin() {
    before_ = thread_cpu_ticks();
    t0_ = now_ns();
  }
  void end() {
    wall_s_ += static_cast<double>(now_ns() - t0_) * 1e-9;
    for (const auto& [tid, ticks] : thread_cpu_ticks()) {
      const auto it = before_.find(tid);
      if (it != before_.end()) busy_[tid] += ticks - it->second;
    }
  }
  /// Threads whose CPU time is at least `share` of the loops' wall time.
  int busy_threads(double share) const {
    int n = 0;
    for (const auto& [tid, ticks] : busy_) n += cpu_s(ticks) >= share * wall_s_;
    return n;
  }
  /// CPU time of all threads over wall time: the mean number of busy CPUs.
  double cpu_load() const {
    double total = 0;
    for (const auto& [tid, ticks] : busy_) total += cpu_s(ticks);
    return wall_s_ > 0 ? total / wall_s_ : 0;
  }

 private:
  static double cpu_s(long ticks) {
    return static_cast<double>(ticks) / static_cast<double>(sysconf(_SC_CLK_TCK));
  }
  std::map<long, long> before_, busy_;
  std::int64_t t0_ = 0;
  double wall_s_ = 0;
};

std::string json_escape(std::string_view s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

template <class T>
void write_array(std::FILE* f, const char* key, const std::vector<T>& v) {
  std::fprintf(f, ", \"%s\": [", key);
  for (std::size_t i = 0; i < v.size(); ++i) {
    if constexpr (std::is_floating_point_v<T>) {
      std::fprintf(f, "%s%.17g", i ? ", " : "", static_cast<double>(v[i]));
    } else {
      std::fprintf(f, "%s%lld", i ? ", " : "", static_cast<long long>(v[i]));
    }
  }
  std::fprintf(f, "]");
}

void write_loop(std::FILE* f, const char* key, const LoopSamples& s) {
  std::fprintf(f, ", \"%s\": {\"segments\": %zu", key, s.seg_start.size());
  write_array(f, "seg_start", s.seg_start);
  write_array(f, "seg_first", s.seg_first);
  write_array(f, "end_ns", s.end_ns);
  write_array(f, "lat_ns", s.lat_ns);
  write_array(f, "cls", s.cls);
  std::fprintf(f, "}");
}

int usage() {
  std::fprintf(stderr,
               "usage: fabric_bench --workload NAME --seed N --seconds S "
               "--trace 0|1\nworkloads:");
  for (const auto& w : kWorkloads) {
    std::fprintf(stderr, " %.*s", static_cast<int>(w.name.size()),
                 w.name.data());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      workload = v;
    } else if (k == "--seed") {
      seed = std::stoull(v);
    } else if (k == "--seconds") {
      seconds = std::stod(v);
    } else if (k == "--trace") {
      trace = std::string_view(v) == "1";
    } else {
      return usage();
    }
  }
  const WorkloadSpec* spec = find_workload(workload);
  if (spec == nullptr || !(seconds > 0)) return usage();

  // Numbers from a debug or sanitizer build say nothing about the program.
  const util::BuildInfo& bi = util::build_info();
  if (bi.build_type != "Release" || bi.sanitizer != "none") {
    std::fprintf(stderr,
                 "fabric_bench: refusing to measure a %.*s build "
                 "(sanitizer %.*s); build Release without sanitizers\n",
                 static_cast<int>(bi.build_type.size()), bi.build_type.data(),
                 static_cast<int>(bi.sanitizer.size()), bi.sanitizer.data());
    return 3;
  }
  const unsigned host_cpus = std::thread::hardware_concurrency();

  Books books;
  Runner runner(*spec, seed);
  // Clock probes (provenance) before the first timed piece and after each.
  std::vector<double> ghz{host_ghz()};
  std::vector<double> setup_s{runner.setup_sample(books, /*keep=*/true)};
  const long threads_after_setup = proc_status_kb("Threads:");
  const double mean_abs_error = runner.warm_pass(books);
  LoopSamples warm;
  runner.loop(kWarmSeconds, books, nullptr, warm);

  LoopSamples timed, traced;
  ThreadLoad load;
  std::unique_ptr<SpanBuffer> spans;
  LayerCounts counts;
  if (!trace) {
    // Timed segments with set-up samples (throwaway communicators) before
    // each, so set-up time is sampled across the whole run like the loop.
    for (int k = 0; k < kSegments; ++k) {
      const std::int64_t setup_end =
          now_ns() + static_cast<std::int64_t>(kSetupBudgetSeconds * 1e9);
      do {
        setup_s.push_back(runner.setup_sample(books, /*keep=*/false));
      } while (now_ns() < setup_end);
      load.begin();
      runner.loop(seconds / kSegments, books, nullptr, timed);
      load.end();
      ghz.push_back(host_ghz());
    }
  } else {
    // Untraced third (tracing overhead baseline and tail diagnostics),
    // traced third, then the layer ladder.
    spans = std::make_unique<SpanBuffer>(std::size_t{1} << 18);
    runner.name_spans(*spans);
    load.begin();
    runner.loop(seconds / 3, books, nullptr, timed);
    load.end();
    ghz.push_back(host_ghz());
    runner.loop(seconds / 3, books, spans.get(), traced);
    books.attempt([&] {
      run_layers(*spec, runner.pool()[0], seconds / 3, *spans, counts, books);
    });
  }
  // The e2e communicator's own QoS books: nothing may have been rejected.
  std::uint64_t service_rejected = 0;
  if (auto* cc = dynamic_cast<collective::ClusterCommunicator*>(&runner.comm())) {
    service_rejected = cc->service().jobs_rejected();
  }

  std::FILE* f = stdout;
  std::fprintf(f, "{\"workload\": \"%.*s\", \"seed\": %llu, \"trace\": %d",
               static_cast<int>(spec->name.size()), spec->name.data(),
               static_cast<unsigned long long>(seed), trace ? 1 : 0);
  std::fprintf(
      f,
      ", \"provenance\": {\"git_describe\": \"%s\", \"build_type\": \"%s\", "
      "\"sanitizer\": \"%s\", \"compiler\": \"%s\", \"avx2\": %s, "
      "\"batch_backend\": \"%s\", \"host_cpus\": %u, "
      "\"threads_after_setup\": %ld, \"busy_threads_expected\": %d, "
      "\"busy_threads_measured\": %d, \"cpu_load\": %.4f}",
      json_escape(bi.git_describe).c_str(), json_escape(bi.build_type).c_str(),
      json_escape(bi.sanitizer).c_str(), json_escape(bi.compiler).c_str(),
      bi.avx2 ? "true" : "false",
      json_escape(core::batch_backend_name()).c_str(), host_cpus,
      threads_after_setup, spec->busy_threads,
      load.busy_threads(kBusyShare), load.cpu_load());
  std::fprintf(f,
               ", \"values_per_job\": %zu, \"workers\": %d, "
               "\"jobs_per_window\": %d",
               spec->values, spec->workers, spec->jobs_per_window);
  write_array(f, "setup_s", setup_s);
  write_array(f, "host_ghz", ghz);
  std::fprintf(f, ", \"mean_abs_error\": %.17g", mean_abs_error);
  std::fprintf(f, ", \"peak_rss_kb\": %ld", proc_status_kb("VmHWM:"));
  write_loop(f, "timed", timed);
  std::fprintf(f,
               ", \"books\": {\"attempted\": %llu, \"failed\": %llu, "
               "\"rejected\": %llu, \"service_rejected\": %llu, "
               "\"retransmit_exhausted\": %llu, \"wrong_results\": %llu}",
               static_cast<unsigned long long>(books.attempted),
               static_cast<unsigned long long>(books.failed),
               static_cast<unsigned long long>(books.rejected),
               static_cast<unsigned long long>(service_rejected),
               static_cast<unsigned long long>(books.retransmit_exhausted),
               static_cast<unsigned long long>(books.wrong_results));
  std::fprintf(f, ", \"errors\": [");
  for (std::size_t i = 0; i < books.errors.size(); ++i) {
    std::fprintf(f, "%s\"%s\"", i ? ", " : "",
                 json_escape(books.errors[i]).c_str());
  }
  std::fprintf(f, "]");
  if (trace) {
    write_loop(f, "traced", traced);
    std::fprintf(f, ", \"spans\": ");
    spans->write_json(f);
    const auto& l = counts.lossy;
    std::fprintf(
        f,
        ", \"counts\": {\"switchml_lossy_packets\": %llu, "
        "\"switchml_lossy_retransmissions\": %llu, "
        "\"switchml_lossy_duplicates\": %llu, "
        "\"switchml_lossy_adds\": %llu, \"switchml_lossy_rounded_adds\": %llu, "
        "\"switchml_lossy_saturations\": %llu, "
        "\"switchml_add_s\": %.17g, \"switchml_collect_s\": %.17g, "
        "\"switchml_jobs\": %llu, \"cluster_add_s\": %.17g, "
        "\"cluster_collect_s\": %.17g, \"cluster_jobs\": %llu, "
        "\"mailbox_jobs\": %llu, \"mailbox_tickets\": %llu, "
        "\"mailbox_wakeups\": %llu, "
        "\"spurious_wakeups\": %llu, "
        "\"class_picks\": [%llu, %llu, %llu], "
        "\"qos_rejected\": %llu, \"peak_concurrent_jobs\": %llu, "
        "\"tree_packets\": %llu, \"tree_done_s\": %.17g, "
        "\"tree_values\": %zu}",
        static_cast<unsigned long long>(l.packets_sent),
        static_cast<unsigned long long>(l.retransmissions),
        static_cast<unsigned long long>(l.duplicates_absorbed),
        static_cast<unsigned long long>(l.ops.adds),
        static_cast<unsigned long long>(l.ops.rounded_adds),
        static_cast<unsigned long long>(l.ops.saturations),
        counts.switchml_add_s, counts.switchml_collect_s,
        static_cast<unsigned long long>(counts.switchml_jobs),
        counts.cluster_add_s, counts.cluster_collect_s,
        static_cast<unsigned long long>(counts.cluster_jobs),
        static_cast<unsigned long long>(counts.mailbox_jobs),
        static_cast<unsigned long long>(counts.mailbox_tickets),
        static_cast<unsigned long long>(counts.mailbox_wakeups),
        static_cast<unsigned long long>(counts.spurious_wakeups),
        static_cast<unsigned long long>(counts.class_picks[0]),
        static_cast<unsigned long long>(counts.class_picks[1]),
        static_cast<unsigned long long>(counts.class_picks[2]),
        static_cast<unsigned long long>(counts.qos_rejected),
        static_cast<unsigned long long>(counts.peak_concurrent_jobs),
        static_cast<unsigned long long>(counts.tree_packets),
        counts.tree_done_s, counts.tree_values);
  }
  std::fprintf(f, "}\n");
  return 0;
}
