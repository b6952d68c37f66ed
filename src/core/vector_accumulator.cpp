#include "core/vector_accumulator.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

namespace fpisa::core {
namespace {

/// Stack chunk for narrowing inputs and bit-casting outputs without heap
/// churn.
constexpr std::size_t kChunk = 256;

/// Caller-supplied spans are checked in every build: a wrong length would
/// read or write past the register file.
void require_size(const char* who, std::size_t got, std::size_t want) {
  if (got != want) {
    throw std::invalid_argument(std::string("FpisaVector::") + who +
                                ": span has " + std::to_string(got) +
                                " entries, expected " + std::to_string(want));
  }
}

}  // namespace

FpisaVector::FpisaVector(std::size_t size, AccumulatorConfig cfg)
    : cfg_(cfg), regs_(size) {}

void FpisaVector::add(std::span<const float> values) {
  require_size("add", values.size(), size());
  if (cfg_.format.total_bits != 32) {
    throw std::invalid_argument(
        "FpisaVector::add: the config is not FP32; use add_bits");
  }
  // The floats' bytes are the packed FP32 payload: one row, read in place.
  const std::byte* const payload = std::as_bytes(values).data();
  const std::uint32_t row = 0;
  fpisa_add_gather({&payload, 1}, {&row, 1}, values.size(), regs_.exp,
                   regs_.man, cfg_, counters_);
}

void FpisaVector::add_bits(std::span<const std::uint64_t> bits) {
  require_size("add_bits", bits.size(), size());
  if (batch_eligible(cfg_)) {
    // FP32 layout: narrow to 32-bit lanes chunk-wise and batch.
    std::uint32_t narrow[kChunk];
    for (std::size_t base = 0; base < bits.size(); base += kChunk) {
      const std::size_t n = std::min(kChunk, bits.size() - base);
      for (std::size_t i = 0; i < n; ++i) {
        narrow[i] = static_cast<std::uint32_t>(bits[base + i]);
      }
      fpisa_add_batch({narrow, n}, {regs_.exp.data() + base, n},
                      {regs_.man.data() + base, n}, cfg_, counters_);
    }
    return;
  }
  for (std::size_t i = 0; i < bits.size(); ++i) {
    const ExtractResult ex = extract(bits[i], cfg_.format);
    if (ex.cls == FpClass::kInf || ex.cls == FpClass::kNaN) {
      ++counters_.nonfinite_inputs;
      continue;
    }
    FpState s{regs_.exp[i], regs_.man[i]};
    fpisa_add(s, ex.value, cfg_, counters_);
    regs_.exp[i] = s.exp;
    regs_.man[i] = s.man;
  }
}

void FpisaVector::read(std::span<float> out) const {
  require_size("read", out.size(), size());
  if (read_batch_eligible(cfg_)) {
    // Hardware-faithful truncating read: the batched renormalize kernel
    // (CLZ + shift + pack, bit-identical to the general assemble — proven
    // in tests/test_core_batch_equivalence.cpp), chunked through a stack
    // buffer of result bits.
    std::uint32_t bits[kChunk];
    for (std::size_t base = 0; base < out.size(); base += kChunk) {
      const std::size_t n = std::min(kChunk, out.size() - base);
      fpisa_read_batch({regs_.exp.data() + base, n},
                       {regs_.man.data() + base, n}, {bits, n}, cfg_);
      for (std::size_t i = 0; i < n; ++i) out[base + i] = fp32_value(bits[i]);
    }
    return;
  }
  for (std::size_t i = 0; i < out.size(); ++i) {
    const auto r = fpisa_read({regs_.exp[i], regs_.man[i]}, cfg_);
    if (cfg_.format.total_bits == 32) {
      out[i] = fp32_value(static_cast<std::uint32_t>(r.bits));
    } else {
      out[i] = static_cast<float>(decode(r.bits, cfg_.format));
    }
  }
}

void FpisaVector::read_bits(std::span<std::uint64_t> out) const {
  require_size("read_bits", out.size(), size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = fpisa_read({regs_.exp[i], regs_.man[i]}, cfg_).bits;
  }
}

void FpisaVector::reset() {
  regs_.clear();
  counters_ = {};
}

OpCounters aggregate_into(std::span<const std::span<const float>> workers,
                          std::span<float> out, AccumulatorConfig cfg) {
  check_views(workers, out.size(), "aggregate_into");
  FpisaVector acc(out.size(), cfg);
  if (cfg.format.total_bits == 32) {
    for (const auto w : workers) acc.add(w);
  } else {
    std::vector<std::uint64_t> bits(acc.size());
    for (const auto w : workers) {
      for (std::size_t i = 0; i < w.size(); ++i) {
        bits[i] = encode(w[i], cfg.format);
      }
      acc.add_bits(bits);
    }
  }
  acc.read(out);
  return acc.counters();
}

void check_views(std::span<const std::span<const float>> workers,
                 std::size_t out_size, std::string_view who) {
  const auto fail = [who](const char* what) {
    throw std::invalid_argument(std::string(who) + ": " + what);
  };
  if (workers.empty()) fail("no workers");
  for (const auto w : workers) {
    if (w.size() != workers.front().size()) {
      fail("worker views differ in length");
    }
  }
  if (out_size != workers.front().size()) fail("out span length mismatch");
}

}  // namespace fpisa::core
