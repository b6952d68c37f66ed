#include "core/batch_accumulator.h"

#include <cassert>
#include <stdexcept>
#include <string>

#include "core/batch_lane.h"
#include "core/decompose.h"

namespace fpisa::core {
namespace {

bool avx2_available() {
#if defined(FPISA_HAVE_AVX2) && defined(__GNUC__)
  static const bool ok = __builtin_cpu_supports("avx2");
  return ok;
#else
  return false;
#endif
}

/// Dispatch override installed by force_batch_backend (tests only).
bool g_forced = false;
BatchBackend g_forced_backend = BatchBackend::kScalar;

template <Variant V, OverflowPolicy P, LaneMode M>
void run_scalar(const detail::GatherBatch& g, const detail::LaneParams& p,
                detail::BatchTallies& t) {
  detail::for_each_row_run(g, [&](const std::byte* const* payloads,
                                  std::size_t k, std::int32_t* exp,
                                  std::int64_t* man) {
    detail::lane_add_run<V, P, M>(payloads, k, 0, g.lanes, exp, man, p, t);
  });
}

using Kernel = void (*)(const detail::GatherBatch&, const detail::LaneParams&,
                        detail::BatchTallies&);

template <LaneMode M>
Kernel pick_scalar(const AccumulatorConfig& cfg) {
  if (cfg.variant == Variant::kFull) {
    return cfg.overflow == OverflowPolicy::kWrap
               ? run_scalar<Variant::kFull, OverflowPolicy::kWrap, M>
               : run_scalar<Variant::kFull, OverflowPolicy::kSaturate, M>;
  }
  return cfg.overflow == OverflowPolicy::kWrap
             ? run_scalar<Variant::kApproximate, OverflowPolicy::kWrap, M>
             : run_scalar<Variant::kApproximate, OverflowPolicy::kSaturate, M>;
}

/// Reference fallback for configs outside the fast path (non-FP32 layouts,
/// 64-bit registers): the scalar per-element loop, unchanged semantics.
void run_reference(const detail::GatherBatch& g, const AccumulatorConfig& cfg,
                   OpCounters& counters) {
  detail::for_each_row_run(g, [&](const std::byte* const* payloads,
                                  std::size_t k, std::int32_t* exp,
                                  std::int64_t* man) {
    for (std::size_t j = 0; j < k; ++j) {
      for (std::size_t i = 0; i < g.lanes; ++i) {
        const ExtractResult ex =
            extract(detail::load_lane(payloads[j], i), cfg.format);
        if (ex.cls == FpClass::kInf || ex.cls == FpClass::kNaN) {
          ++counters.nonfinite_inputs;
          continue;
        }
        FpState s{exp[i], man[i]};
        fpisa_add(s, ex.value, cfg, counters);
        exp[i] = s.exp;
        man[i] = s.man;
      }
    }
  });
}

/// The one add body behind fpisa_add_batch and fpisa_add_gather, on a
/// batch whose spans and rows are already checked.
void add_rows(const detail::GatherBatch& g, const AccumulatorConfig& cfg,
              OpCounters& counters, LaneMode mode, const char* who) {
  if (!batch_eligible(cfg)) {
    if (mode == LaneMode::kSwitch) {
      throw std::invalid_argument(
          std::string(who) +
          ": LaneMode::kSwitch needs a batch-eligible config "
          "(FP32, register narrower than 64 bits)");
    }
    run_reference(g, cfg, counters);
    return;
  }
  const int need = cfg.format.significand_bits() + cfg.guard_bits + 1;
  if (need > cfg.effective_reg_bits()) {
    throw std::invalid_argument(
        std::string(who) + ": a " + std::to_string(need) +
        "-bit shifted significand does not fit the " +
        std::to_string(cfg.effective_reg_bits()) + "-bit register");
  }

  detail::BatchTallies t;
#if defined(FPISA_HAVE_AVX2)
  if (batch_backend() == BatchBackend::kAvx2) {
    detail::add_gather_avx2(g, cfg, mode, t);
  } else
#endif
  {
    const Kernel k = mode == LaneMode::kSwitch
                         ? pick_scalar<LaneMode::kSwitch>(cfg)
                         : pick_scalar<LaneMode::kAccumulator>(cfg);
    k(g, detail::LaneParams::from(cfg), t);
  }

  counters.adds += t.adds;
  counters.rounded_adds += t.rounded;
  counters.overwrites += t.overwrites;
  counters.lshift_overflows += t.lshift_overflows;
  counters.saturations += t.saturations;
  counters.nonfinite_inputs += t.nonfinite;
  counters.zero_inputs += t.zeros;
}

}  // namespace

BatchBackend batch_backend() {
  if (g_forced) return g_forced_backend;
  return avx2_available() ? BatchBackend::kAvx2 : BatchBackend::kScalar;
}

std::string_view batch_backend_name() {
  return batch_backend() == BatchBackend::kAvx2 ? "avx2" : "scalar";
}

std::span<const BatchBackend> available_batch_backends() {
  static const BatchBackend with_avx2[] = {BatchBackend::kScalar,
                                           BatchBackend::kAvx2};
  static const BatchBackend scalar_only[] = {BatchBackend::kScalar};
  return avx2_available() ? std::span<const BatchBackend>(with_avx2)
                          : std::span<const BatchBackend>(scalar_only);
}

void force_batch_backend(BatchBackend backend) {
  assert(backend == BatchBackend::kScalar || avx2_available());
  g_forced = true;
  g_forced_backend = backend;
}

void reset_batch_backend() { g_forced = false; }

bool batch_eligible(const AccumulatorConfig& cfg) {
  const FloatFormat& f = cfg.format;
  return f.total_bits == 32 && f.exp_bits == 8 && f.man_bits == 23 &&
         cfg.effective_reg_bits() < 64;
}

void fpisa_add_batch(std::span<const std::uint32_t> bits,
                     std::span<std::int32_t> exp, std::span<std::int64_t> man,
                     const AccumulatorConfig& cfg, OpCounters& counters,
                     LaneMode mode) {
  if (exp.size() != bits.size() || man.size() != bits.size()) {
    throw std::invalid_argument(
        "fpisa_add_batch: bits, exp and man spans differ in length");
  }
  // One row spanning the whole batch.
  const std::byte* const payload = std::as_bytes(bits).data();
  const std::uint32_t row = 0;
  add_rows({&payload, &row, 1, bits.size(), exp.data(), man.data()}, cfg,
           counters, mode, "fpisa_add_batch");
}

void fpisa_add_gather(std::span<const std::byte* const> payloads,
                      std::span<const std::uint32_t> rows, std::size_t lanes,
                      std::span<std::int32_t> exp, std::span<std::int64_t> man,
                      const AccumulatorConfig& cfg, OpCounters& counters,
                      LaneMode mode) {
  if (payloads.size() != rows.size()) {
    throw std::invalid_argument(
        "fpisa_add_gather: payloads and rows differ in length");
  }
  if (exp.size() != man.size()) {
    throw std::invalid_argument(
        "fpisa_add_gather: exp and man spans differ in length");
  }
  for (std::size_t r = 0; r < rows.size(); ++r) {
    if ((std::size_t{rows[r]} + 1) * lanes > exp.size()) {
      throw std::out_of_range(
          "fpisa_add_gather: payload " + std::to_string(r) + " targets row " +
          std::to_string(rows[r]) + ", past the end of a " +
          std::to_string(exp.size()) + "-register bank of " +
          std::to_string(lanes) + "-lane rows");
    }
  }
  add_rows({payloads.data(), rows.data(), rows.size(), lanes, exp.data(),
            man.data()},
           cfg, counters, mode, "fpisa_add_gather");
}

}  // namespace fpisa::core
