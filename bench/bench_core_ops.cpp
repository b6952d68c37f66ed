// Microbenchmarks + ablations for the core FPISA operations:
//   * add throughput: full vs FPISA-A vs host float
//   * batched branchless datapath vs the scalar reference loop, per backend
//   * batched egress (read/renormalize) vs the per-slot read loop, per
//     backend, and the AVX2 egress scattered to per-row destinations
//   * the switch's compiled ingress/egress (FpisaSwitch::add_batch /
//     read_and_reset_batch) on the same kernels, per value
//   * communicator churn: build, one allreduce, drop, and the registry's
//     series count after it (bounded by the objects alive)
//   * one ToR -> spine tree reduce, its leaves running concurrently
//   * one lossy single-switch session reduce at perfbench's lossy_switch
//     shape
//   * read (delayed renorm) vs hypothetical renormalize-every-add
//   * LPM-table CLZ vs native countl_zero
//   * advanced ops (multiply / table-multiply / log2 / sqrt)
#include <benchmark/benchmark.h>

#include <bit>
#include <cstddef>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/hierarchy.h"
#include "collective/communicator.h"
#include "core/accumulator.h"
#include "core/advanced_ops.h"
#include "core/batch_accumulator.h"
#include "core/clz_table.h"
#include "core/vector_accumulator.h"
#include "pisa/fpisa_program.h"
#include "switchml/session.h"
#include "telemetry/metrics.h"
#include "util/build_info.h"
#include "util/rng.h"

namespace {

using namespace fpisa;

std::vector<float> values(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.normal(0.0, 0.1));
  return v;
}

void BM_FpisaAddFull(benchmark::State& state) {
  const auto vals = values(4096, 1);
  core::FpisaAccumulator acc;
  for (auto _ : state) {
    for (const float v : vals) acc.add(v);
    benchmark::DoNotOptimize(acc.state());
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_FpisaAddFull);

void BM_FpisaAddApprox(benchmark::State& state) {
  const auto vals = values(4096, 2);
  core::AccumulatorConfig cfg;
  cfg.variant = core::Variant::kApproximate;
  core::FpisaAccumulator acc(cfg);
  for (auto _ : state) {
    for (const float v : vals) acc.add(v);
    benchmark::DoNotOptimize(acc.state());
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_FpisaAddApprox);

void BM_HostFloatAdd(benchmark::State& state) {
  const auto vals = values(4096, 3);
  float acc = 0;
  for (auto _ : state) {
    for (const float v : vals) acc += v;
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_HostFloatAdd);

void BM_VectorAggregate8Workers(benchmark::State& state) {
  std::vector<std::vector<float>> workers;
  for (int w = 0; w < 8; ++w) workers.push_back(values(1024, 10 + w));
  const std::vector<std::span<const float>> views(workers.begin(),
                                                  workers.end());
  std::vector<float> sum(1024);
  for (auto _ : state) {
    (void)core::aggregate_into(views, sum);
    benchmark::DoNotOptimize(sum.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * 8 * 1024);
  state.SetLabel(std::string("backend=") +
                 std::string(core::batch_backend_name()));
}
BENCHMARK(BM_VectorAggregate8Workers);

// --- batched branchless datapath vs the scalar reference -------------------
// The reference is the pre-batching FpisaVector loop: extract + branchy
// fpisa_add per element. The batched kernels are bit-identical to it
// (test_core_batch_equivalence), so these rows measure pure datapath shape.

std::vector<std::uint32_t> value_bits(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::uint32_t> v(n);
  for (auto& x : v) {
    x = core::fp32_bits(static_cast<float>(rng.normal(0.0, 0.1)));
  }
  return v;
}

core::AccumulatorConfig bench_cfg(core::Variant v) {
  core::AccumulatorConfig cfg;
  cfg.variant = v;
  return cfg;
}

void run_reference_loop(benchmark::State& state, core::Variant variant) {
  const auto bits = value_bits(4096, 40);
  const core::AccumulatorConfig cfg = bench_cfg(variant);
  std::vector<std::int32_t> exp(4096, 0);
  std::vector<std::int64_t> man(4096, 0);
  core::OpCounters counters;
  for (auto _ : state) {
    for (std::size_t i = 0; i < bits.size(); ++i) {
      const auto ex = core::extract(bits[i], cfg.format);
      if (ex.cls == core::FpClass::kInf || ex.cls == core::FpClass::kNaN) {
        ++counters.nonfinite_inputs;
        continue;
      }
      core::FpState s{exp[i], man[i]};
      core::fpisa_add(s, ex.value, cfg, counters);
      exp[i] = s.exp;
      man[i] = s.man;
    }
    benchmark::DoNotOptimize(man.data());
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}

void run_batch(benchmark::State& state, core::Variant variant,
               core::BatchBackend backend) {
  bool available = false;
  for (const auto b : core::available_batch_backends()) {
    available = available || b == backend;
  }
  if (!available) {
    state.SkipWithError("backend not available on this CPU/build");
    return;
  }
  core::force_batch_backend(backend);
  const auto bits = value_bits(4096, 40);
  const core::AccumulatorConfig cfg = bench_cfg(variant);
  std::vector<std::int32_t> exp(4096, 0);
  std::vector<std::int64_t> man(4096, 0);
  core::OpCounters counters;
  for (auto _ : state) {
    core::fpisa_add_batch(bits, exp, man, cfg, counters);
    benchmark::DoNotOptimize(man.data());
  }
  core::reset_batch_backend();
  state.SetItemsProcessed(state.iterations() * 4096);
}

void BM_BatchAddFullReference(benchmark::State& state) {
  run_reference_loop(state, core::Variant::kFull);
}
BENCHMARK(BM_BatchAddFullReference);

void BM_BatchAddFullScalar(benchmark::State& state) {
  run_batch(state, core::Variant::kFull, core::BatchBackend::kScalar);
}
BENCHMARK(BM_BatchAddFullScalar);

void BM_BatchAddFullAvx2(benchmark::State& state) {
  run_batch(state, core::Variant::kFull, core::BatchBackend::kAvx2);
}
BENCHMARK(BM_BatchAddFullAvx2);

void BM_BatchAddApproxReference(benchmark::State& state) {
  run_reference_loop(state, core::Variant::kApproximate);
}
BENCHMARK(BM_BatchAddApproxReference);

void BM_BatchAddApproxScalar(benchmark::State& state) {
  run_batch(state, core::Variant::kApproximate, core::BatchBackend::kScalar);
}
BENCHMARK(BM_BatchAddApproxScalar);

void BM_BatchAddApproxAvx2(benchmark::State& state) {
  run_batch(state, core::Variant::kApproximate, core::BatchBackend::kAvx2);
}
BENCHMARK(BM_BatchAddApproxAvx2);

// --- batched egress (read/renormalize) vs the per-slot reference -----------
// The reference is the pre-batching collect shape: one fpisa_read
// (renormalize + assemble) per register pair. The batched kernels are
// bit-identical to it (test_core_batch_equivalence), so these rows measure
// pure datapath shape for the collect phase.

/// Registers pre-loaded with a gradient stream: realistic exponent spread
/// for the renormalize path.
struct ReadState {
  std::vector<std::int32_t> exp;
  std::vector<std::int64_t> man;
};

ReadState make_read_state(std::size_t n, const core::AccumulatorConfig& cfg) {
  ReadState s;
  s.exp.assign(n, 0);
  s.man.assign(n, 0);
  core::OpCounters counters;
  for (int round = 0; round < 4; ++round) {
    const auto bits = value_bits(n, 50 + static_cast<std::uint64_t>(round));
    core::fpisa_add_batch(bits, s.exp, s.man, cfg, counters);
  }
  return s;
}

void run_read_reference_loop(benchmark::State& state) {
  const core::AccumulatorConfig cfg = bench_cfg(core::Variant::kFull);
  const ReadState s = make_read_state(4096, cfg);
  std::vector<std::uint32_t> out(4096);
  for (auto _ : state) {
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i] = static_cast<std::uint32_t>(
          core::fpisa_read({s.exp[i], s.man[i]}, cfg).bits);
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}

void run_read_batch(benchmark::State& state, core::BatchBackend backend,
                    int reg_bits = 0) {
  bool available = false;
  for (const auto b : core::available_batch_backends()) {
    available = available || b == backend;
  }
  if (!available) {
    state.SkipWithError("backend not available on this CPU/build");
    return;
  }
  core::force_batch_backend(backend);
  core::AccumulatorConfig cfg = bench_cfg(core::Variant::kFull);
  cfg.reg_bits = reg_bits;
  const ReadState s = make_read_state(4096, cfg);
  std::vector<std::uint32_t> out(4096);
  for (auto _ : state) {
    core::fpisa_read_batch(s.exp, s.man, out, cfg);
    benchmark::DoNotOptimize(out.data());
  }
  core::reset_batch_backend();
  state.SetItemsProcessed(state.iterations() * 4096);
}

void BM_BatchReadReference(benchmark::State& state) {
  run_read_reference_loop(state);
}
BENCHMARK(BM_BatchReadReference);

void BM_BatchReadScalar(benchmark::State& state) {
  run_read_batch(state, core::BatchBackend::kScalar);
}
BENCHMARK(BM_BatchReadScalar);

// Default 32-bit register: the 8-lane 32-bit AVX2 read kernel.
void BM_BatchReadAvx2(benchmark::State& state) {
  run_read_batch(state, core::BatchBackend::kAvx2);
}
BENCHMARK(BM_BatchReadAvx2);

// Descriptor egress on the 8-lane AVX2 kernel: the same 4096 registers as
// 128 rows of 32 lanes, each row written to its own place in a float buffer
// (rows in reverse order, as a wave's slots land at their chunks' places in
// a result), against the flat row above.
void BM_BatchReadScatterAvx2(benchmark::State& state) {
  bool available = false;
  for (const auto b : core::available_batch_backends()) {
    available = available || b == core::BatchBackend::kAvx2;
  }
  if (!available) {
    state.SkipWithError("backend not available on this CPU/build");
    return;
  }
  core::force_batch_backend(core::BatchBackend::kAvx2);
  constexpr std::size_t kLanes = 32;
  constexpr std::size_t kRows = 4096 / kLanes;
  const core::AccumulatorConfig cfg = bench_cfg(core::Variant::kFull);
  const ReadState s = make_read_state(4096, cfg);
  std::vector<float> out(4096);
  const std::span<std::byte> bytes = std::as_writable_bytes(std::span(out));
  std::vector<std::byte*> dests(kRows);
  for (std::size_t r = 0; r < kRows; ++r) {
    dests[r] = bytes.data() + (kRows - 1 - r) * kLanes * sizeof(float);
  }
  for (auto _ : state) {
    core::fpisa_read_scatter(s.exp, s.man, kLanes, dests, cfg);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  core::reset_batch_backend();
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_BatchReadScatterAvx2);

// 40-bit register: the generic 4x64-bit-lane AVX2 read kernel, kept as the
// comparison row for the 8-lane specialization above.
void BM_BatchReadAvx2Wide64(benchmark::State& state) {
  run_read_batch(state, core::BatchBackend::kAvx2, 40);
}
BENCHMARK(BM_BatchReadAvx2Wide64);

// --- the switch layer on the same kernels ----------------------------------
// FpisaSwitch's compiled ingress and egress at the fabric benchmark's
// shape: 32 lanes, 64 slots, 4 workers, one wave of packets in wave order
// (slot-major, worker-minor), full FPISA on the RSAW-extended switch.
// Items are values, so these rows read directly against the core kernel
// rows above. Each row times its own half; the other half (which returns
// the switch to the same state) runs with the timer paused.

constexpr int kSwitchLanes = 32;
constexpr std::size_t kSwitchSlots = 64;
constexpr int kSwitchWorkers = 4;

struct SwitchWave {
  std::vector<std::uint16_t> slots;
  std::vector<std::uint8_t> workers;
  std::vector<std::uint32_t> values;
};

SwitchWave make_switch_wave() {
  SwitchWave w;
  w.values = value_bits(kSwitchSlots * kSwitchWorkers * kSwitchLanes, 60);
  for (std::size_t slot = 0; slot < kSwitchSlots; ++slot) {
    for (int k = 0; k < kSwitchWorkers; ++k) {
      w.slots.push_back(static_cast<std::uint16_t>(slot));
      w.workers.push_back(static_cast<std::uint8_t>(k));
    }
  }
  return w;
}

pisa::FpisaSwitch make_bench_switch() {
  pisa::SwitchConfig cfg;
  cfg.ext.two_operand_shift = true;
  cfg.ext.rsaw = true;
  pisa::FpisaProgramOptions opts;
  opts.variant = core::Variant::kFull;
  opts.lanes = kSwitchLanes;
  opts.slots = kSwitchSlots;
  return pisa::FpisaSwitch(cfg, opts);
}

void BM_SwitchAddBatch(benchmark::State& state) {
  pisa::FpisaSwitch sw = make_bench_switch();
  const SwitchWave w = make_switch_wave();
  std::vector<std::uint32_t> out(kSwitchSlots * kSwitchLanes);
  for (auto _ : state) {
    sw.add_batch(w.slots, w.workers, w.values);
    benchmark::DoNotOptimize(sw.op_counters().adds);
    benchmark::ClobberMemory();
    state.PauseTiming();
    sw.read_and_reset_batch(0, kSwitchSlots, out);
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(w.values.size()));
}
BENCHMARK(BM_SwitchAddBatch);

void BM_SwitchReadResetBatch(benchmark::State& state) {
  pisa::FpisaSwitch sw = make_bench_switch();
  const SwitchWave w = make_switch_wave();
  std::vector<std::uint32_t> out(kSwitchSlots * kSwitchLanes);
  for (auto _ : state) {
    state.PauseTiming();
    sw.add_batch(w.slots, w.workers, w.values);
    state.ResumeTiming();
    sw.read_and_reset_batch(0, kSwitchSlots, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(out.size()));
}
BENCHMARK(BM_SwitchReadResetBatch);

// Switch construction at the fabric shape. With no other holder every
// switch builds the program's layout (PHV, parser and deparser bindings,
// register declarations) but not the interpreter's MAU stages, which wait
// for a first interpreted packet; with one switch of the shape alive the
// layout is shared and a further switch builds only its register state.
void BM_FpisaSwitchBuild(benchmark::State& state) {
  for (auto _ : state) {
    pisa::FpisaSwitch sw = make_bench_switch();
    benchmark::DoNotOptimize(&sw);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FpisaSwitchBuild);

void BM_FpisaSwitchBuildShared(benchmark::State& state) {
  const pisa::FpisaSwitch holder = make_bench_switch();
  for (auto _ : state) {
    pisa::FpisaSwitch sw = make_bench_switch();
    benchmark::DoNotOptimize(&sw);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FpisaSwitchBuildShared);

// A throwaway tree communicator (4 leaves x 2 workers, 32 lanes x 64
// slots) beside a live one of the same shape, which holds the switch
// programs: build, one 4096-value allreduce, drop. `registry_series` is
// the registry's series count after the loop; `series_growth` is how far
// the loop moved it. A dropped communicator's series fold into the
// `retired` ones, so the growth is at most the first fold's new series.
void BM_CommunicatorChurn(benchmark::State& state) {
  collective::CommunicatorOptions opts;
  opts.backend = collective::Backend::kTree;
  opts.hierarchy.leaves = 4;
  opts.hierarchy.workers_per_leaf = 2;
  opts.hierarchy.lanes = 32;
  opts.hierarchy.slots = 64;
  constexpr std::size_t kValues = 4096;
  util::Rng rng(7);
  std::vector<std::vector<float>> grads(8, std::vector<float>(kValues));
  for (auto& g : grads) {
    for (auto& v : g) v = static_cast<float>(rng.normal(0.0, 0.1));
  }
  std::vector<float> out(kValues);
  const auto series = [] {
    const telemetry::Snapshot s = telemetry::snapshot();
    return s.counters.size() + s.gauges.size() + s.histograms.size();
  };
  const auto holder = collective::make_communicator(opts);
  const std::size_t before = series();
  for (auto _ : state) {
    const auto comm = collective::make_communicator(opts);
    (void)comm->allreduce(collective::WorkerViews(grads), out);
    benchmark::DoNotOptimize(out.data());
  }
  const std::size_t after = series();
  state.SetItemsProcessed(state.iterations());
  state.counters["registry_series"] = static_cast<double>(after);
  state.counters["series_growth"] =
      static_cast<double>(after) - static_cast<double>(before);
}
BENCHMARK(BM_CommunicatorChurn);

// One reduce through the tree perfbench's tree_allreduce drives: 4 leaves
// x 2 workers, 16K values, 32 lanes x 64 slots, full FPISA. The leaves run
// on the tree's helper threads and the caller, so the row is wall time;
// `helper_threads` is how many the tree started.
void BM_HierarchyReduce(benchmark::State& state) {
  cluster::HierarchyOptions opts;
  opts.leaves = 4;
  opts.workers_per_leaf = 2;
  opts.lanes = 32;
  opts.slots = 64;
  opts.switch_config.ext.rsaw = true;
  opts.switch_config.ext.two_operand_shift = true;
  constexpr std::size_t kValues = 16 * 1024;
  std::vector<std::vector<float>> grads;
  for (int w = 0; w < 8; ++w) {
    grads.push_back(values(kValues, 80 + static_cast<std::uint64_t>(w)));
  }
  const std::vector<std::span<const float>> views(grads.begin(), grads.end());
  std::vector<float> out(kValues);
  cluster::HierarchicalAggregator tree(opts);
  for (auto _ : state) {
    tree.reduce_into(views, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kValues));
  state.counters["helper_threads"] = tree.helper_threads();
}
BENCHMARK(BM_HierarchyReduce)->UseRealTime();

// One reduce through the session perfbench's lossy_switch drives: 4
// workers x 256K values, 32 lanes x 64 slots, 1% loss each way, full
// FPISA. The session is reused across iterations, so its loss stream runs
// on and each iteration draws fresh losses; the row is wall time.
void BM_SessionReduceLossy(benchmark::State& state) {
  pisa::SwitchConfig cfg;
  cfg.ext.rsaw = true;
  cfg.ext.two_operand_shift = true;
  switchml::SessionOptions opts;
  opts.num_workers = 4;
  opts.slots = 64;
  opts.lanes = 32;
  opts.loss_rate = 0.01;
  opts.loss_seed = 1;
  constexpr std::size_t kValues = 256 * 1024;
  std::vector<std::vector<float>> grads;
  for (int w = 0; w < opts.num_workers; ++w) {
    grads.push_back(values(kValues, 90 + static_cast<std::uint64_t>(w)));
  }
  const std::vector<std::span<const float>> views(grads.begin(), grads.end());
  std::vector<float> out(kValues);
  switchml::AggregationSession session(cfg, opts);
  for (auto _ : state) {
    session.reduce_into(views, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kValues));
}
BENCHMARK(BM_SessionReduceLossy)->UseRealTime();

// Ablation: delayed renormalization (read once at the end) vs
// renormalizing after every add — the data-dependency the design removes.
void BM_DelayedRenorm(benchmark::State& state) {
  const auto vals = values(1024, 20);
  for (auto _ : state) {
    core::FpisaAccumulator acc;
    for (const float v : vals) acc.add(v);
    benchmark::DoNotOptimize(acc.read());
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_DelayedRenorm);

void BM_RenormEveryAdd(benchmark::State& state) {
  const auto vals = values(1024, 20);
  for (auto _ : state) {
    core::FpisaAccumulator acc;
    float out = 0;
    for (const float v : vals) {
      acc.add(v);
      out = acc.read();  // forced renormalize each step
    }
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_RenormEveryAdd);

void BM_ClzLpmTable(benchmark::State& state) {
  const auto table = core::build_clz_lpm_table(32, 23);
  util::Rng rng(30);
  std::vector<std::uint32_t> keys(1024);
  for (auto& k : keys) k = static_cast<std::uint32_t>(rng.next_u64());
  for (auto _ : state) {
    int sum = 0;
    for (const auto k : keys) sum += core::lpm_lookup_shift(table, k, 32);
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_ClzLpmTable);

void BM_NativeCountlZero(benchmark::State& state) {
  util::Rng rng(31);
  std::vector<std::uint32_t> keys(1024);
  for (auto& k : keys) k = static_cast<std::uint32_t>(rng.next_u64());
  for (auto _ : state) {
    int sum = 0;
    for (const auto k : keys) sum += std::countl_zero(k);
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_NativeCountlZero);

void BM_FpisaMultiply(benchmark::State& state) {
  util::Rng rng(32);
  std::vector<std::uint32_t> a(512), b(512);
  for (std::size_t i = 0; i < 512; ++i) {
    a[i] = core::fp32_bits(static_cast<float>(rng.normal(0, 2)));
    b[i] = core::fp32_bits(static_cast<float>(rng.normal(0, 2)));
  }
  for (auto _ : state) {
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < 512; ++i) {
      sum ^= core::fpisa_multiply(a[i], b[i], core::kFp32);
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * 512);
}
BENCHMARK(BM_FpisaMultiply);

void BM_Log2Table(benchmark::State& state) {
  const core::Log2Table table;
  util::Rng rng(33);
  std::vector<std::uint32_t> xs(512);
  for (auto& x : xs) {
    x = core::fp32_bits(static_cast<float>(rng.uniform(0.001, 1000.0)));
  }
  for (auto _ : state) {
    std::int64_t sum = 0;
    for (const auto x : xs) sum += table.log2_q16(x);
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * 512);
}
BENCHMARK(BM_Log2Table);

}  // namespace

// BENCHMARK_MAIN, plus JSON file output so the results land in
// BENCH_core_ops.json like every other bench (see src/util/bench_json.h).
// Explicit --benchmark_out flags still win over the injected defaults.
// The context block carries this code's build (git describe with its dirty
// flag, build type, batch backend) next to gbench's own fields, whose
// library_build_type describes the gbench library, not this code.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  std::string out_flag = "--benchmark_out=BENCH_core_ops.json";
  std::string fmt_flag = "--benchmark_out_format=json";
  bool has_out = false;
  bool has_fmt = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    has_out = has_out || arg.starts_with("--benchmark_out=");
    has_fmt = has_fmt || arg.starts_with("--benchmark_out_format=");
  }
  if (!has_out) args.push_back(out_flag.data());
  if (!has_out && !has_fmt) args.push_back(fmt_flag.data());
  int n = static_cast<int>(args.size());
  const util::BuildInfo& build = util::build_info();
  benchmark::AddCustomContext("fpisa_git_describe",
                              std::string(build.git_describe));
  benchmark::AddCustomContext("fpisa_build_type",
                              std::string(build.build_type));
  benchmark::AddCustomContext("fpisa_batch_backend",
                              std::string(core::batch_backend_name()));
  benchmark::Initialize(&n, args.data());
  if (benchmark::ReportUnrecognizedArguments(n, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
