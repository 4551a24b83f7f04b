// Workloads and the closed-loop driver: one client, each reduction starts
// when the previous one returns. A round runs, per code of the workload, the
// fault-prone hybrid reduction, the fault-tolerant one, and the
// fault-tolerant one absorbing one injected fault, all on the same seeded
// matrix, back to back; the order reverses every round. End-to-end metrics
// are medians over rounds of these walls and of their per-round ratios.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "reductions.hpp"
#include "stats.hpp"

namespace perfbench {

struct WorkloadSpec {
  std::string name;
  index_t n = 0;
  std::vector<Code> codes;
};

/// The workloads BENCHMARK.json names; nullptr for an unknown name.
const WorkloadSpec* find_workload(const std::string& name);

struct RunOptions {
  const WorkloadSpec* workload = nullptr;
  std::uint64_t seed = 0;
  double seconds = 0.0;  ///< length of the timed loop
  bool trace = false;    ///< per-layer run instead of the end-to-end run
  /// Self-test hook: perturb one element of the output of the reduction
  /// with this attempt number (0-based) before it is checked.
  long corrupt_attempt = -1;
};

struct RunResult {
  long attempted = 0;  ///< reductions run (warm-up, timed and count passes)
  long failed = 0;     ///< reductions that threw or failed an output check
  bool residuals_ok = true;
  std::vector<std::string> failures;  ///< first few failure messages
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, double>> info;  ///< run facts (not gated)
  bool correct() const { return failed == 0 && residuals_ok; }
};

RunResult run_workload(const RunOptions& opt);

}  // namespace perfbench
