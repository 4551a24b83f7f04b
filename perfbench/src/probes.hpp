// Per-layer probes of the traced run: the machine's own peak (hw.*), the
// host kernels at the drivers' shapes (la.*, lapack.*), and the device
// runtime (hybrid.*). Each probe calls the layer's public functions
// directly and reports medians over repetitions.
#pragma once

#include <string>
#include <vector>

#include "reductions.hpp"
#include "stats.hpp"

namespace perfbench {

/// Facts about the host, recorded with every result.
struct HostInfo {
  std::string cpu_model;
  int nproc = 0;             ///< CPUs this process may run on (what `nproc` prints)
  double llc_bytes = 0.0;    ///< largest cache level the CPU reports
};
HostInfo host_info();

/// hw.fma_gflops (one core, register-resident FMA chains) and
/// hw.triad_gbps (single-thread STREAM triad, 24 bytes per element, every
/// array at least four times the last-level cache). Appends the array and
/// cache sizes to `info`.
std::vector<Metric> probe_hardware(const HostInfo& host,
                                   std::vector<std::pair<std::string, double>>& info);

/// la.*, lapack.* and hybrid.* runtime probes at size n with panel kNb.
/// `fma_gflops`/`triad_gbps` are the hw denominators of the roof fractions.
std::vector<Metric> probe_kernels(index_t n, std::uint64_t seed, double fma_gflops,
                                  double triad_gbps);

}  // namespace perfbench
