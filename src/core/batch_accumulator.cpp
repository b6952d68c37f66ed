#include "core/batch_accumulator.h"

#include <cassert>
#include <stdexcept>

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
void run_scalar(const std::uint32_t* bits, std::size_t n, std::int32_t* exp,
                std::int64_t* man, const AccumulatorConfig& cfg,
                detail::BatchTallies& t) {
  const detail::LaneParams p = detail::LaneParams::from(cfg);
  detail::lane_add_range<V, P, M>(bits, n, exp, man, p, t);
}

using Kernel = void (*)(const std::uint32_t*, std::size_t, std::int32_t*,
                        std::int64_t*, const AccumulatorConfig&,
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
void run_reference(std::span<const std::uint32_t> bits,
                   std::span<std::int32_t> exp, std::span<std::int64_t> man,
                   const AccumulatorConfig& cfg, OpCounters& counters) {
  for (std::size_t i = 0; i < bits.size(); ++i) {
    const ExtractResult ex = extract(bits[i], cfg.format);
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
  if (!batch_eligible(cfg)) {
    if (mode == LaneMode::kSwitch) {
      throw std::invalid_argument(
          "fpisa_add_batch: LaneMode::kSwitch needs a batch-eligible config "
          "(FP32, register narrower than 64 bits)");
    }
    run_reference(bits, exp, man, cfg, counters);
    return;
  }
  assert(cfg.format.significand_bits() + cfg.guard_bits + 1 <=
             cfg.effective_reg_bits() &&
         "value does not fit the accumulator register");

  detail::BatchTallies t;
#if defined(FPISA_HAVE_AVX2)
  if (batch_backend() == BatchBackend::kAvx2) {
    detail::add_batch_avx2(bits.data(), bits.size(), exp.data(), man.data(),
                           cfg, mode, t);
  } else
#endif
  {
    const Kernel k = mode == LaneMode::kSwitch
                         ? pick_scalar<LaneMode::kSwitch>(cfg)
                         : pick_scalar<LaneMode::kAccumulator>(cfg);
    k(bits.data(), bits.size(), exp.data(), man.data(), cfg, t);
  }

  counters.adds += t.adds;
  counters.rounded_adds += t.rounded;
  counters.overwrites += t.overwrites;
  counters.lshift_overflows += t.lshift_overflows;
  counters.saturations += t.saturations;
  counters.nonfinite_inputs += t.nonfinite;
  counters.zero_inputs += t.zeros;
}

}  // namespace fpisa::core
