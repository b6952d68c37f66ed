// Host-pipeline goodput model (Fig 10) and end-to-end training speedup
// cards (Fig 11).
//
// The paper's own Fig 10/11 methodology is an emulation: the switch runs at
// line rate regardless of per-packet computation, so end-to-end throughput
// is decided by host-side per-element work (quantization, byteswap, staging
// copies, GPU copy engines and kernel launches). This model reproduces that
// arithmetic with (a) rates measured on the current machine
// (src/host/endianness.*) and (b) documented constants for the GPU/NIC
// parts we cannot measure here.
#pragma once

#include <string>
#include <vector>

#include "host/endianness.h"

namespace fpisa::host {

enum class Approach {
  kSwitchMlCpu,   ///< CPU quantize/byteswap per element (SwitchML baseline)
  kSwitchMlGpu,   ///< GPU quantize, per-chunk kernel launches + copies
  kFpisaCpu,      ///< FPISA-A with RDMA staging memcpy on the CPU
  kFpisaCpuOpt,   ///< FPISA-A operating in place on native FP vectors
  kFpisaGpu,      ///< FPISA-A with batched GPU<->host copies
};

const char* approach_name(Approach a);

struct PipelineParams {
  double line_gbps = 100.0;
  double max_goodput_gbps = 92.0;  ///< framing overhead ceiling (paper)
  double per_message_overhead_us = 1.0;  ///< doorbell/completion per message
  // GPU model (documented constants; our testbed has no GPU):
  double gpu_copy_gbps = 80.0;        ///< bidirectional copy-engine bound
  double gpu_kernel_launch_us = 10.0; ///< serialized launch cost per kernel
  double gpu_copy_batch_bytes = 1 << 20;  ///< FPISA-A/GPU batching size
  // SwitchML's extra exponent round trip per chunk:
  double rtt_us = 12.0;
  double pipeline_window_bytes = 4.0 * (1 << 20);  ///< outstanding data cap
};

/// Goodput in Gbps for one approach at a core count and message size,
/// reducing a large (1 GB) vector between two workers as in Fig 10.
double goodput_gbps(Approach a, int cores, double message_bytes,
                    const MeasuredRates& rates, const PipelineParams& p = {});

// ---------------------------------------------------------------------------
// Fig 11: end-to-end training speedup
// ---------------------------------------------------------------------------

/// Per-model workload card: gradient volume per iteration and the GPU
/// compute time that communication must hide behind. Values follow the
/// models' public parameter counts and the MLPerf-style batch settings the
/// paper uses; they position each model on the comm- vs compute-bound axis.
struct ModelCard {
  const char* name;
  double grad_mbytes;       ///< gradient bytes exchanged per iteration
  double compute_ms;        ///< forward+backward per iteration
};

std::vector<ModelCard> paper_model_cards();

/// DPDK-transport efficiency factors for the Fig 11 setup (the paper uses
/// the DPDK backend there because SwitchML/RDMA is not framework-integrated).
struct DpdkParams {
  double efficiency = 0.55;       ///< per-core rate scale vs RDMA backend
  double switchml_cap_gbps = 55;  ///< DPDK SwitchML peak goodput
  double fpisa_cap_gbps = 75;     ///< FPISA-A over DPDK peak goodput
};

struct SpeedupRow {
  const char* model;
  double speedup_2core;  ///< fractional, e.g. 0.859 = 85.9%
  double speedup_8core;
};

/// End-to-end training-throughput speedup of FPISA-A vs SwitchML (both on
/// the DPDK transport), per model, for 2- and 8-core configurations.
std::vector<SpeedupRow> training_speedups(const MeasuredRates& rates,
                                          const PipelineParams& p = {},
                                          const DpdkParams& d = {});

}  // namespace fpisa::host
