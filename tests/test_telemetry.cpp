// Unified telemetry layer: metrics registry semantics (striped counters,
// gauge, `le` histogram boundaries, find-or-create handles, kill switch),
// exposition formats (Prometheus text, JSON), span tracing (nesting,
// explicit timestamps, Chrome export), and the cross-layer integration
// contracts: the cluster job span tree covers submit → partition → shard
// waves → merge (+failover), a shard's wave spans never overlap, traced
// wave time agrees with phase_breakdown(), and all four collective backends expose the same
// metrics()/phase_breakdown()/set_trace surface.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cluster/aggregation_service.h"
#include "collective/communicator.h"
#include "core/accumulator.h"
#include "core/packed.h"
#include "pisa/fpisa_program.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"
#include "util/rng.h"
#include "testkit.h"

namespace fpisa {
namespace {

using telemetry::Labels;
using telemetry::MetricsRegistry;
using telemetry::Snapshot;
using telemetry::Trace;

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

// --- registry primitives ---------------------------------------------------

TEST(TelemetryCounter, StripedIncrementsFoldAcrossThreads) {
  auto& c = telemetry::registry().counter("test_counter_threads_total");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.inc();
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  c.inc(5);
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kPerThread + 5);
}

TEST(TelemetryGauge, SetAndAdd) {
  auto& g = telemetry::registry().gauge("test_gauge_depth");
  g.set(3.0);
  EXPECT_DOUBLE_EQ(g.value(), 3.0);
  g.add(-1.5);
  EXPECT_DOUBLE_EQ(g.value(), 1.5);
  g.set(0.0);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(TelemetryHistogram, LeBoundariesAreInclusive) {
  const double bounds[] = {1.0, 2.0, 4.0};
  auto& h =
      telemetry::registry().histogram("test_hist_bounds", {}, bounds);
  // A sample lands in the FIRST bucket whose upper bound is >= the value.
  h.observe(0.5);  // -> le=1
  h.observe(1.0);  // boundary: inclusive, -> le=1
  h.observe(1.0000001);  // -> le=2
  h.observe(2.0);  // -> le=2
  h.observe(4.0);  // -> le=4
  h.observe(4.5);  // -> +Inf
  h.observe(std::numeric_limits<double>::quiet_NaN());  // -> +Inf
  ASSERT_EQ(h.num_buckets(), 4u);
  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.bucket_count(1), 2u);
  EXPECT_EQ(h.bucket_count(2), 1u);
  EXPECT_EQ(h.bucket_count(3), 2u);  // +Inf overflow bucket
  EXPECT_EQ(h.count(), 7u);
  EXPECT_DOUBLE_EQ(h.upper_bound(0), 1.0);
  EXPECT_TRUE(std::isinf(h.upper_bound(3)));
}

TEST(TelemetryHistogram, SumIsCumulativeWallTime) {
  const double bounds[] = {1.0, 10.0};
  auto& h = telemetry::registry().histogram("test_hist_sum", {}, bounds);
  h.observe(0.25);
  h.observe(0.5);
  h.observe(100.0);
  EXPECT_DOUBLE_EQ(h.sum(), 100.75);
}

TEST(TelemetryRegistry, FindOrCreateIsLabelOrderInsensitive) {
  auto& reg = telemetry::registry();
  auto& a = reg.counter("test_reg_alias_total",
                        {{"tenant", "ml"}, {"shard", "0"}});
  auto& b = reg.counter("test_reg_alias_total",
                        {{"shard", "0"}, {"tenant", "ml"}});
  EXPECT_EQ(&a, &b);  // same canonical key -> same handle
  auto& c = reg.counter("test_reg_alias_total", {{"shard", "1"}});
  EXPECT_NE(&a, &c);
}

TEST(TelemetryRegistry, KindMismatchThrows) {
  auto& reg = telemetry::registry();
  (void)reg.counter("test_reg_kind_total");
  EXPECT_THROW((void)reg.gauge("test_reg_kind_total"), std::logic_error);
  const double bounds[] = {1.0};
  EXPECT_THROW((void)reg.histogram("test_reg_kind_total", {}, bounds),
               std::logic_error);
  // Histogram re-registered with different bounds is also a bug.
  (void)reg.histogram("test_reg_bounds_hist", {}, bounds);
  const double other[] = {2.0};
  EXPECT_THROW((void)reg.histogram("test_reg_bounds_hist", {}, other),
               std::logic_error);
}

TEST(TelemetryRegistry, KillSwitchStopsRecording) {
  auto& c = telemetry::registry().counter("test_kill_switch_total");
  auto& g = telemetry::registry().gauge("test_kill_switch_gauge");
  const double bounds[] = {1.0};
  auto& h =
      telemetry::registry().histogram("test_kill_switch_hist", {}, bounds);
  c.inc();
  telemetry::set_enabled(false);
  c.inc(100);
  g.set(42.0);
  h.observe(0.5);
  telemetry::set_enabled(true);
  EXPECT_EQ(c.value(), 1u);  // the disabled window recorded nothing
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  EXPECT_EQ(h.count(), 0u);
  c.inc();
  EXPECT_EQ(c.value(), 2u);  // handles stay valid across the toggle
}

// --- instance labels and retire ------------------------------------------

std::size_t series_count(const Snapshot& s) {
  return s.counters.size() + s.gauges.size() + s.histograms.size();
}

bool has_label(const Labels& labels, std::string_view key,
               std::string_view value) {
  return std::any_of(labels.begin(), labels.end(), [&](const auto& kv) {
    return kv.first == key && kv.second == value;
  });
}

TEST(TelemetryRetire, FoldsCountersAndHistogramsIntoRetiredSeries) {
  MetricsRegistry reg;
  const double bounds[] = {1.0, 2.0};
  reg.counter("x_total", {{"inst", "0"}, {"op", "add"}}).inc(3);
  reg.counter("x_total", {{"inst", "1"}, {"op", "add"}}).inc(4);
  reg.counter("x_total", {{"op", "add"}}).inc(5);  // no instance: untouched
  reg.gauge("x_depth", {{"inst", "0"}}).set(7.0);
  auto& h0 = reg.histogram("x_seconds", {{"inst", "0"}}, bounds);
  h0.observe(0.5);
  h0.observe(3.0);
  reg.histogram("x_seconds", {{"inst", "1"}}, bounds).observe(1.5);

  reg.retire("inst", "0");
  Snapshot s = reg.snapshot();
  EXPECT_EQ(s.counter_total("x_total"), 12u);
  EXPECT_EQ(s.counter_total("x_total", {{"inst", "retired"}, {"op", "add"}}),
            3u);
  EXPECT_TRUE(s.with_label("inst", "0").empty());
  EXPECT_TRUE(s.gauges.empty());  // a dead instance's gauge means nothing
  ASSERT_EQ(s.histograms.size(), 2u);
  const auto& retired = s.histograms[1];  // "retired" sorts after "1"
  EXPECT_TRUE(has_label(retired.labels, "inst", "retired"));
  EXPECT_EQ(retired.counts, (std::vector<std::uint64_t>{1, 0, 1}));
  EXPECT_EQ(retired.count, 2u);
  EXPECT_DOUBLE_EQ(retired.sum, 3.5);

  // A second instance folds into the same retired series.
  reg.retire("inst", "1");
  s = reg.snapshot();
  EXPECT_EQ(s.counter_total("x_total"), 12u);
  EXPECT_EQ(s.counter_total("x_total", {{"inst", "retired"}}), 7u);
  ASSERT_EQ(s.histograms.size(), 1u);
  EXPECT_EQ(s.histograms[0].counts, (std::vector<std::uint64_t>{1, 1, 1}));
  EXPECT_EQ(s.histograms[0].count, 3u);
  EXPECT_DOUBLE_EQ(s.histograms[0].sum, 5.0);
  EXPECT_EQ(series_count(s), 3u);  // two counters, one histogram

  reg.retire("inst", "9");  // nothing to retire: a no-op
  EXPECT_EQ(series_count(reg.snapshot()), 3u);

  // A twin of another kind cannot take the fold: the series stays whole.
  reg.gauge("y_total", {{"inst", "retired"}});
  reg.counter("y_total", {{"inst", "2"}}).inc(9);
  reg.retire("inst", "2");
  EXPECT_EQ(reg.snapshot().counter_total("y_total", {{"inst", "2"}}), 9u);
}

TEST(TelemetryRetire, FoldingIgnoresTheKillSwitch) {
  MetricsRegistry reg;
  reg.counter("x_total", {{"inst", "0"}}).inc(2);
  telemetry::set_enabled(false);
  reg.retire("inst", "0");
  telemetry::set_enabled(true);
  EXPECT_EQ(reg.snapshot().counter_total("x_total"), 2u);
}

TEST(TelemetryRetire, InstanceLabelsAreNeverReused) {
  std::string first;
  {
    const telemetry::InstanceLabel l("test_inst");
    first = l.value();
    EXPECT_EQ(l.label().first, "test_inst");
    telemetry::registry().counter("test_inst_total", {l.label()}).inc(6);
  }
  const telemetry::InstanceLabel next("test_inst");
  EXPECT_NE(next.value(), first);
  const Snapshot s = telemetry::snapshot();
  EXPECT_TRUE(s.with_label("test_inst", first).empty());
  EXPECT_EQ(s.counter_total("test_inst_total", {{"test_inst", "retired"}}),
            6u);
}

TEST(TelemetryRetire, RacesSnapshotWithoutLosingCounts) {
  // Instances come and go on one thread while another scrapes: every scrape
  // sees each instance either live or retired, never both or neither, so
  // the total never moves backwards and ends exact.
  MetricsRegistry reg;
  constexpr int kInstances = 2000;
  std::atomic<bool> done{false};
  std::thread churn([&] {
    for (int i = 0; i < kInstances; ++i) {
      const std::string v = std::to_string(i);
      reg.counter("x_total", {{"inst", v}}).inc(1);
      reg.gauge("x_depth", {{"inst", v}}).set(1.0);
      reg.retire("inst", v);
    }
    done.store(true);
  });
  std::uint64_t last = 0;
  while (!done.load()) {
    const Snapshot s = reg.snapshot();
    const std::uint64_t total = s.counter_total("x_total");
    EXPECT_GE(total, last);
    last = total;
    EXPECT_LE(series_count(s), 3u);
  }
  churn.join();
  EXPECT_EQ(reg.snapshot().counter_total("x_total"),
            static_cast<std::uint64_t>(kInstances));
}

/// Per-name totals of every counter, and per-name bucket/count sums of
/// every histogram: what a drop must leave unchanged.
struct NameTotals {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::vector<std::uint64_t>> buckets;
  std::map<std::string, std::uint64_t> counts;
  bool operator==(const NameTotals&) const = default;
};

NameTotals name_totals(const Snapshot& s) {
  NameTotals t;
  for (const auto& c : s.counters) t.counters[c.name] += c.value;
  for (const auto& h : s.histograms) {
    auto& b = t.buckets[h.name];
    b.resize(h.counts.size());
    for (std::size_t i = 0; i < h.counts.size(); ++i) b[i] += h.counts[i];
    t.counts[h.name] += h.count;
  }
  return t;
}

/// Every (key, value) label pair in a snapshot.
std::set<std::pair<std::string, std::string>> label_pairs(const Snapshot& s) {
  std::set<std::pair<std::string, std::string>> out;
  const auto add = [&out](const Labels& labels) {
    out.insert(labels.begin(), labels.end());
  };
  for (const auto& c : s.counters) add(c.labels);
  for (const auto& g : s.gauges) add(g.labels);
  for (const auto& h : s.histograms) add(h.labels);
  return out;
}

TEST(TelemetryRetire, CommunicatorChurnKeepsTheRegistryBounded) {
  using namespace collective;
  const auto workers = make_workers(4, 64, 23);
  std::vector<float> out(64);
  for (const Backend backend :
       {Backend::kSwitch, Backend::kTree, Backend::kCluster, Backend::kHost}) {
    CommunicatorOptions copts;
    copts.backend = backend;
    copts.session.slots = 8;
    copts.session.lanes = 8;
    copts.cluster.num_shards = 2;
    copts.cluster.slots_per_shard = 8;
    copts.cluster.slots_per_job = 4;
    copts.cluster.lanes = 8;
    copts.hierarchy.leaves = 2;
    copts.hierarchy.workers_per_leaf = 2;
    copts.hierarchy.slots = 8;
    copts.hierarchy.lanes = 8;
    // A live communicator of the same shape keeps its switch programs
    // shared, so a cycle builds only per-instance state.
    const auto holder = make_communicator(copts);
    std::size_t after_first = 0;
    for (int cycle = 0; cycle < 1000; ++cycle) {
      // The full comparisons run on a few cycles; the count on every one.
      const bool check = cycle % 250 == 0;
      const Snapshot base = check ? telemetry::snapshot() : Snapshot{};
      auto comm = make_communicator(copts);
      (void)comm->allreduce(WorkerViews(workers), out);
      const Snapshot live = check ? telemetry::snapshot() : Snapshot{};
      comm.reset();
      const Snapshot after = telemetry::snapshot();
      if (cycle == 0) after_first = series_count(after);
      ASSERT_EQ(series_count(after), after_first)
          << backend_name(backend) << " cycle " << cycle;
      if (!check) continue;
      EXPECT_TRUE(name_totals(after) == name_totals(live))
          << backend_name(backend) << " cycle " << cycle;
      // The instance labels this communicator brought are gone.
      const auto before_pairs = label_pairs(base);
      const auto after_pairs = label_pairs(after);
      int dropped = 0;
      for (const auto& kv : label_pairs(live)) {
        const bool instance = kv.first == "sw" || kv.first == "sess" ||
                              kv.first == "tree" || kv.first == "svc" ||
                              kv.first == "comm";
        if (!instance || before_pairs.count(kv) != 0) continue;
        ++dropped;
        EXPECT_EQ(after_pairs.count(kv), 0u)
            << backend_name(backend) << ": " << kv.first << "=" << kv.second;
      }
      EXPECT_GT(dropped, 0) << backend_name(backend);
    }
  }
}

// --- exposition ------------------------------------------------------------

TEST(TelemetrySnapshot, FilterAndCounterTotal) {
  auto& reg = telemetry::registry();
  reg.counter("test_snap_total", {{"k", "a"}}).inc(3);
  reg.counter("test_snap_total", {{"k", "b"}}).inc(4);
  const Snapshot snap = telemetry::snapshot();
  EXPECT_EQ(snap.counter_total("test_snap_total"), 7u);
  EXPECT_EQ(snap.counter_total("test_snap_total", {{"k", "a"}}), 3u);
  const Snapshot only_a = snap.with_label("k", "a");
  EXPECT_EQ(only_a.counter_total("test_snap_total"), 3u);
  EXPECT_EQ(only_a.counter_total("test_snap_total", {{"k", "b"}}), 0u);
}

TEST(TelemetrySnapshot, PrometheusTextFormat) {
  auto& reg = telemetry::registry();
  reg.counter("test_prom_total", {{"tenant", "a\"b\\c\nd"}}).inc(2);
  const double bounds[] = {1.0, 2.0};
  auto& h = reg.histogram("test_prom_seconds", {}, bounds);
  h.observe(0.5);
  h.observe(1.5);
  h.observe(99.0);
  const std::string text = telemetry::snapshot().prometheus_text();
  // One # TYPE line per metric name, label escaping, cumulative buckets.
  EXPECT_NE(text.find("# TYPE test_prom_total counter"), std::string::npos);
  EXPECT_NE(text.find("test_prom_total{tenant=\"a\\\"b\\\\c\\nd\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE test_prom_seconds histogram"),
            std::string::npos);
  EXPECT_NE(text.find("test_prom_seconds_bucket{le=\"1\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("test_prom_seconds_bucket{le=\"2\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("test_prom_seconds_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("test_prom_seconds_count 3"), std::string::npos);
  // Counters are monotone across scrapes (the CI lint checks the same).
  reg.counter("test_prom_total", {{"tenant", "a\"b\\c\nd"}}).inc();
  const std::string text2 = telemetry::snapshot().prometheus_text();
  EXPECT_NE(text2.find("test_prom_total{tenant=\"a\\\"b\\\\c\\nd\"} 3"),
            std::string::npos);
}

TEST(TelemetrySnapshot, JsonContainsAllSections) {
  telemetry::registry().counter("test_json_total").inc();
  const std::string j = telemetry::snapshot().json();
  EXPECT_EQ(j.front(), '{');
  EXPECT_EQ(j.back(), '}');
  EXPECT_NE(j.find("\"counters\""), std::string::npos);
  EXPECT_NE(j.find("\"gauges\""), std::string::npos);
  EXPECT_NE(j.find("\"histograms\""), std::string::npos);
  EXPECT_NE(j.find("\"test_json_total\""), std::string::npos);
}

// --- trace -----------------------------------------------------------------

TEST(TelemetryTrace, NestingAndDeterministicOrder) {
  Trace tr;
  const auto root = tr.begin("job");
  const auto child = tr.begin("submit", root);
  tr.annotate(child, "tenant", "ml");
  tr.end(child);
  tr.end(root);
  const auto spans = tr.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "job");
  EXPECT_EQ(spans[0].parent, Trace::kNone);
  EXPECT_EQ(spans[1].name, "submit");
  EXPECT_EQ(spans[1].parent, root);
  EXPECT_LT(spans[0].seq, spans[1].seq);
  EXPECT_GE(spans[1].dur_ns, 0);
  ASSERT_EQ(spans[1].args.size(), 1u);
  EXPECT_EQ(spans[1].args[0].first, "tenant");
  const std::string tree = tr.tree();
  EXPECT_NE(tree.find("job"), std::string::npos);
  EXPECT_NE(tree.find("submit"), std::string::npos);
  EXPECT_NE(tree.find("tenant=ml"), std::string::npos);
}

TEST(TelemetryTrace, ExplicitTimestampsRoundTrip) {
  Trace tr;
  const auto t0 = Trace::Clock::now();
  const auto t1 = t0 + std::chrono::microseconds(250);
  const auto id = tr.begin_at("wave", Trace::kNone, t0);
  tr.end_at(id, t1);
  const auto spans = tr.spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].dur_ns, 250000);
  EXPECT_NEAR(tr.total_seconds_of("wave"), 250e-6, 1e-12);
}

TEST(TelemetryTrace, EndIsIdempotentAndClamped) {
  Trace tr;
  const auto id = tr.begin("s");
  tr.end(id);
  const auto dur = tr.spans()[0].dur_ns;
  tr.end(id);  // double-close: no-op
  EXPECT_EQ(tr.spans()[0].dur_ns, dur);
  tr.end(Trace::kNone);  // kNone: no-op
  tr.end(999);           // unknown id: no-op
  EXPECT_EQ(tr.size(), 1u);
  // end_at before the start clamps to a zero-length span, never negative.
  const auto t0 = Trace::Clock::now();
  const auto id2 = tr.begin_at("back", Trace::kNone, t0);
  tr.end_at(id2, t0 - std::chrono::microseconds(5));
  EXPECT_EQ(tr.spans()[1].dur_ns, 0);
}

TEST(TelemetryTrace, ChromeTraceJsonShape) {
  Trace tr;
  const auto root = tr.begin("job");
  tr.begin("open_child", root);  // left open: exported with latest ts
  tr.end(root);
  const std::string j = tr.chrome_trace_json();
  EXPECT_NE(j.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(j.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(j.find("\"name\":\"job\""), std::string::npos);
  EXPECT_NE(j.find("\"name\":\"open_child\""), std::string::npos);
  EXPECT_NE(j.find("\"pid\":1"), std::string::npos);
}

TEST(TelemetryTrace, ScopedSpanNullTraceIsNoOp) {
  telemetry::ScopedSpan s(nullptr, "nothing");
  s.annotate("k", "v");  // must not crash
  EXPECT_EQ(s.id(), Trace::kNone);
}

// --- cluster integration ---------------------------------------------------

TEST(TelemetryCluster, JobSpanTreeCoversEveryPhase) {
  cluster::ClusterOptions opts;
  opts.num_shards = 2;
  opts.slots_per_shard = 32;
  opts.slots_per_job = 16;
  opts.lanes = 2;
  cluster::AggregationService svc(opts);
  Trace tr;
  svc.attach_trace(&tr);
  const auto workers = make_workers(3, 512, 7);
  (void)testkit::reduce(svc, "trace-test", workers);
  svc.attach_trace(nullptr);

  int jobs = 0, submits = 0, partitions = 0, acquires = 0, passes = 0,
      shards = 0, adds = 0, collects = 0, merges = 0;
  for (const auto& s : tr.spans()) {
    if (s.name == "job") ++jobs;
    if (s.name == "submit") ++submits;
    if (s.name == "partition") ++partitions;
    if (s.name == "acquire_slots") ++acquires;
    if (s.name == "pass") ++passes;
    if (s.name == "shard") ++shards;
    if (s.name == "add_wave") ++adds;
    if (s.name == "collect_wave") ++collects;
    if (s.name == "merge") ++merges;
    EXPECT_GE(s.dur_ns, 0) << s.name << " left open";
  }
  EXPECT_EQ(jobs, 1);
  EXPECT_EQ(submits, 1);
  EXPECT_EQ(partitions, 1);
  EXPECT_EQ(acquires, 1);
  EXPECT_EQ(passes, 1);
  EXPECT_EQ(shards, 2);
  EXPECT_GT(adds, 0);
  EXPECT_EQ(adds, collects);  // every wave has both phases
  EXPECT_EQ(merges, 1);

  // The wave spans reuse the exact clock readings that feed the phase
  // histograms, so traced time equals phase_breakdown() to fp rounding.
  const auto pb = svc.phase_breakdown();
  EXPECT_GT(pb.add_s, 0.0);
  EXPECT_NEAR(tr.total_seconds_of("add_wave"), pb.add_s,
              1e-9 + 1e-9 * pb.add_s);
  EXPECT_NEAR(tr.total_seconds_of("collect_wave"), pb.collect_s,
              1e-9 + 1e-9 * pb.collect_s);
}

TEST(TelemetryCluster, ShardWaveSpansAreOrderedAndNeverOverlap) {
  // One wave order: within a shard, add_wave k, collect_wave k, add_wave
  // k+1, ... follow each other without overlap. The payload makes one
  // wave's encode (8 workers x 64 slots of 32 lanes) outlast the span
  // bookkeeping between waves, so an encode timed into the wrong wave's
  // window would show up as an overlap.
  cluster::ClusterOptions opts;
  opts.num_shards = 2;
  opts.slots_per_shard = 64;
  opts.slots_per_job = 64;
  opts.lanes = 32;
  opts.loss_rate = 0.01;
  cluster::AggregationService svc(opts);
  Trace tr;
  svc.attach_trace(&tr);
  const auto workers = make_workers(8, 2 * 4 * 64 * 32, 8);
  (void)testkit::reduce(svc, "trace-test", workers);
  svc.attach_trace(nullptr);

  std::map<Trace::SpanId, std::vector<Trace::SpanView>> by_shard;
  for (const auto& s : tr.spans()) {
    if (s.name == "add_wave" || s.name == "collect_wave") {
      by_shard[s.parent].push_back(s);
    }
  }
  ASSERT_EQ(by_shard.size(), 2u);
  for (auto& [shard, spans] : by_shard) {
    SCOPED_TRACE(shard);
    // Stable: spans come in open order, add_wave before its collect_wave.
    std::stable_sort(
        spans.begin(), spans.end(),
        [](const auto& a, const auto& b) { return a.start_ns < b.start_ns; });
    ASSERT_GE(spans.size(), 2u * 4u);
    for (std::size_t i = 0; i < spans.size(); ++i) {
      SCOPED_TRACE(i);
      EXPECT_EQ(spans[i].name, i % 2 == 0 ? "add_wave" : "collect_wave");
      EXPECT_EQ(spans[i].args, spans[i - i % 2].args);  // same wave
      if (i > 0) {
        EXPECT_GE(spans[i].start_ns,
                  spans[i - 1].start_ns + spans[i - 1].dur_ns)
            << spans[i].name << " overlaps the span before it";
      }
    }
  }
}

TEST(TelemetryCluster, FailoverJobRecordsFailoverSpanAndCounters) {
  cluster::ClusterOptions opts;
  opts.num_shards = 3;
  opts.slots_per_shard = 32;
  opts.slots_per_job = 16;
  opts.lanes = 2;
  opts.failover.enabled = true;
  opts.failover.max_consecutive_failures = 1;
  opts.failover.faults = {cluster::ShardFault{
      1, cluster::FaultKind::kKill, cluster::FaultPhase::kMidAdd, 0, 0.0}};
  cluster::AggregationService svc(opts);
  Trace tr;
  svc.attach_trace(&tr);
  const auto workers = make_workers(3, 512, 9);
  const auto report = testkit::reduce(svc, "fo", workers);
  svc.attach_trace(nullptr);
  EXPECT_EQ(report.stats.shard_failures, 1u);

  int failovers = 0, passes = 0;
  for (const auto& s : tr.spans()) {
    if (s.name == "failover") ++failovers;
    if (s.name == "pass") ++passes;
  }
  EXPECT_EQ(failovers, 1);
  EXPECT_EQ(passes, 2);  // original + clean retry

  // The fabric-level failover events landed in the registry too.
  const Snapshot snap = telemetry::snapshot();
  bool found = false;
  for (const auto& c : snap.counters) {
    if (c.name != "cluster_failover_shard_deaths_total") continue;
    for (const auto& [k, v] : c.labels) {
      if (k == "svc" && c.value == 1) found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(TelemetryCluster, ShardAndTotalStatsCarryOpCounters) {
  cluster::ClusterOptions opts;
  opts.num_shards = 2;
  opts.slots_per_shard = 32;
  opts.slots_per_job = 16;
  opts.lanes = 2;
  cluster::AggregationService svc(opts);
  const auto workers = make_workers(3, 512, 11);
  (void)testkit::reduce(svc, "ops", workers);
  core::OpCounters folded{};
  for (int s = 0; s < opts.num_shards; ++s) {
    folded += svc.shard_stats(s).ops;
  }
  EXPECT_GT(folded.adds, 0u);
  EXPECT_EQ(svc.total_stats().ops.adds, folded.adds);
}

// --- collective backends: uniform surface ----------------------------------

TEST(TelemetryCollective, AllFourBackendsExposeTheSameSurface) {
  using namespace collective;
  const auto workers = make_workers(4, 256, 13);
  for (const Backend backend :
       {Backend::kHost, Backend::kSwitch, Backend::kCluster, Backend::kTree}) {
    CommunicatorOptions copts;
    copts.backend = backend;
    copts.cluster.num_shards = 2;
    copts.cluster.slots_per_shard = 32;
    copts.cluster.slots_per_job = 16;
    copts.hierarchy.leaves = 2;
    copts.hierarchy.workers_per_leaf = 2;
    const auto comm = make_communicator(copts);

    Trace tr;
    comm->set_trace(&tr);
    std::vector<float> out(256);
    (void)comm->allreduce(WorkerViews(workers), out);
    // The async path lands in the same series and span as the sync one.
    (void)comm->submit(WorkerViews(workers), out).wait();
    comm->set_trace(nullptr);

    // metrics(): this communicator's registry slice, identical schema.
    const Snapshot m = comm->metrics();
    EXPECT_EQ(m.counter_total("collective_allreduces_total",
                              {{"backend", std::string(comm->name())}}),
              2u)
        << backend_name(backend);
    ASSERT_EQ(m.histograms.size(), 1u) << backend_name(backend);
    EXPECT_EQ(m.histograms[0].name, "collective_allreduce_seconds");
    EXPECT_EQ(m.histograms[0].count, 2u) << backend_name(backend);

    // phase_breakdown(): non-negative, and real time on the substrates
    // with an internal phase split.
    const auto pb = comm->phase_breakdown();
    EXPECT_GE(pb.add_s, 0.0);
    EXPECT_GE(pb.collect_s, 0.0);
    if (backend == Backend::kSwitch || backend == Backend::kCluster) {
      EXPECT_GT(pb.add_s, 0.0) << backend_name(backend);
      EXPECT_GT(pb.collect_s, 0.0) << backend_name(backend);
    }

    // set_trace(): every backend records one allreduce span per job.
    int allreduces = 0;
    for (const auto& s : tr.spans()) {
      if (s.name == "allreduce") ++allreduces;
    }
    EXPECT_EQ(allreduces, 2) << backend_name(backend);
    // The cluster backend unfolds the whole job tree underneath.
    if (backend == Backend::kCluster) {
      bool saw_merge = false;
      for (const auto& s : tr.spans()) {
        if (s.name == "merge") saw_merge = true;
      }
      EXPECT_TRUE(saw_merge);
    }
  }
}

TEST(TelemetryCollective, ClusterPhaseBreakdownMatchesLegacyMethod) {
  using namespace collective;
  cluster::ClusterOptions opts;
  opts.num_shards = 2;
  opts.slots_per_shard = 32;
  opts.slots_per_job = 16;
  opts.lanes = 2;
  ClusterCommunicator comm(opts);
  const auto workers = make_workers(3, 512, 17);
  std::vector<float> out(512);
  (void)comm.allreduce(WorkerViews(workers), out);
  // The communicator surface is a re-shape of the service's legacy view —
  // both read the same registry histograms, so they agree exactly.
  const auto uniform = comm.phase_breakdown();
  const auto legacy = comm.service().phase_breakdown();
  EXPECT_DOUBLE_EQ(uniform.add_s, legacy.add_s);
  EXPECT_DOUBLE_EQ(uniform.collect_s, legacy.collect_s);
  EXPECT_GT(uniform.add_s, 0.0);
}

TEST(TelemetryCollective, SwitchBackendStatsCarryOpCountersEndToEnd) {
  using namespace collective;
  CommunicatorOptions copts;
  copts.backend = Backend::kSwitch;
  copts.session.slots = 32;
  const auto comm = make_communicator(copts);
  const auto workers = make_workers(4, 256, 19);
  std::vector<float> out(256);
  const ReduceStats first = comm->allreduce(WorkerViews(workers), out);
  // The per-job delta carries the kernel op taxonomy (it used to be
  // dropped by a hand-rolled field list)...
  EXPECT_GT(first.network.ops.adds, 0u);
  const ReduceStats second = comm->allreduce(WorkerViews(workers), out);
  EXPECT_EQ(second.network.ops.adds, first.network.ops.adds);
  // ...and the cumulative books merge it, so per-MAU operation counts
  // survive aggregation end to end.
  EXPECT_EQ(comm->total_stats().ops.adds,
            first.network.ops.adds + second.network.ops.adds);
}

// --- switch-level metrics --------------------------------------------------

TEST(TelemetrySwitch, RegistersPacketsOpsAndOccupancy) {
  pisa::FpisaProgramOptions popts;
  popts.slots = 8;
  popts.lanes = 1;
  pisa::SwitchConfig cfg;
  cfg.ext.rsaw = true;  // full FPISA needs the RSAW extension
  pisa::FpisaSwitch sw(cfg, popts);
  const std::uint32_t one = core::fp32_bits(1.0f);
  (void)sw.add(0, 0, {&one, 1});
  const auto adds_before_dup = sw.op_counters().adds;
  (void)sw.add(0, 0, {&one, 1});  // duplicate: dedup bitmap absorbs it
  EXPECT_EQ(sw.dedup_hits(), 1u);
  EXPECT_EQ(sw.occupied_slots(), 1);
  // The dup never reached the ALU, so the op taxonomy did not move.
  EXPECT_EQ(sw.op_counters().adds, adds_before_dup);
  (void)sw.read_and_reset(0);
  EXPECT_EQ(sw.occupied_slots(), 0);

  // The same numbers are visible through this switch's registry slice.
  const Snapshot snap = telemetry::snapshot();
  bool found_occupancy = false;
  for (const auto& g : snap.gauges) {
    if (g.name == "fpisa_switch_occupied_slots" && g.value == 0.0) {
      found_occupancy = true;
    }
  }
  EXPECT_TRUE(found_occupancy);
}

}  // namespace
}  // namespace fpisa
