// fth_perfbench — the repository benchmark (metric dictionary: METRICS.md).
//
//   fth_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
// Human-readable lines come first; the last line of stdout is one JSON
// object {"correct", "attempted", "failed", "metrics"}. Exits 2 on bad
// arguments and 3 when the build or environment would distort the numbers
// (checker compiled in, a tracing/journal/DAG sink armed by environment).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "check/effects.hpp"
#include "check/hooks.hpp"
#include "obs/dag.hpp"
#include "obs/incident.hpp"
#include "obs/journal.hpp"
#include "obs/trace.hpp"
#include "probes.hpp"
#include "workload.hpp"

using namespace perfbench;

namespace {

/// Why this process must not produce numbers; empty when it may. The same
/// facts `fth_checkinfo --expect-off` asserts, plus the arming variables.
std::string refusal() {
  for (const char* var : {"FTH_TRACE", "FTH_DAG", "FTH_FLIGHT", "FTH_JOURNAL", "FTH_INCIDENT",
                          "FTH_CHECK", "FTH_CHECK_EFFECTS"}) {
    if (const char* v = std::getenv(var); v != nullptr && v[0] != '\0')
      return std::string(var) + " is set";
  }
  if (fth::check::compiled_in()) return "the fth::check checker is compiled in";
  if (fth::check::effects_compiled_in()) return "the declared-effect layer is compiled in";
  fth::obs::trace_init_from_env();
  fth::obs::journal_init_from_env();
  fth::obs::incident_init_from_env();
  if (fth::obs::trace_enabled()) return "a trace sink is armed";
  if (fth::obs::dag::enabled()) return "the DAG recorder is armed";
  if (fth::obs::journal_enabled()) return "the journal is armed";
  if (fth::obs::incident_enabled()) return "incident capture is armed";
  return {};
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "fth_perfbench: %s\nusage: fth_perfbench --workload "
               "<paper-n1022|small-n128|family-n384> --seed <n> --seconds <s> --trace <0|1>\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions opt;
  std::string workload;
  long trace = -1;
  bool have_seed = false;
  if (argc % 2 != 1) return usage("arguments come in --key value pairs");
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* key = argv[i];
    const char* val = argv[i + 1];
    char* end = nullptr;
    if (std::strcmp(key, "--workload") == 0) {
      workload = val;
    } else if (std::strcmp(key, "--seed") == 0) {
      opt.seed = std::strtoull(val, &end, 10);
      have_seed = end != val && *end == '\0';
    } else if (std::strcmp(key, "--seconds") == 0) {
      opt.seconds = std::strtod(val, &end);
      if (end == val || *end != '\0' || !(opt.seconds > 0 && opt.seconds <= 600))
        return usage("--seconds must be in (0, 600]");
    } else if (std::strcmp(key, "--trace") == 0) {
      trace = std::strtol(val, &end, 10);
    } else {
      return usage((std::string("unknown argument ") + key).c_str());
    }
  }
  opt.workload = find_workload(workload);
  if (opt.workload == nullptr) return usage("unknown or missing --workload");
  if (!have_seed) return usage("missing or malformed --seed");
  if (opt.seconds <= 0) return usage("missing --seconds");
  if (trace != 0 && trace != 1) return usage("--trace must be 0 or 1");
  opt.trace = trace == 1;

  if (const std::string why = refusal(); !why.empty()) {
    std::fprintf(stderr, "fth_perfbench: refusing to measure: %s\n", why.c_str());
    return 3;
  }

  const HostInfo host = host_info();
  RunResult res = run_workload(opt);
  if (opt.trace) {
    const std::vector<Metric> hw = probe_hardware(host, res.info);
    const auto find = [&](const char* name) {
      for (const Metric& m : hw)
        if (m.name == name) return m.value;
      return 0.0;
    };
    const std::vector<Metric> k =
        probe_kernels(opt.workload->n, opt.seed, find("hw.fma_gflops"), find("hw.triad_gbps"));
    res.metrics.insert(res.metrics.end(), hw.begin(), hw.end());
    res.metrics.insert(res.metrics.end(), k.begin(), k.end());
  }

  std::printf("workload %s  n=%lld  seed=%llu  seconds=%g  trace=%d\n", workload.c_str(),
              static_cast<long long>(opt.workload->n),
              static_cast<unsigned long long>(opt.seed), opt.seconds, opt.trace ? 1 : 0);
  std::printf("%-28s %16s %-7s %8s %s\n", "metric", "value", "unit", "samples", "tail");
  for (const Metric& m : res.metrics) {
    std::printf("%-28s %16.6g %-7s %8zu", m.name.c_str(), m.value, m.unit.c_str(), m.samples);
    if (m.tail_pct >= 0) std::printf(" p%d=%.6g", m.tail_pct, m.tail_value);
    std::printf("\n");
  }
  std::printf("failed_frac %.6g (%ld of %ld reductions)\n",
              static_cast<double>(res.failed) / static_cast<double>(res.attempted), res.failed,
              res.attempted);
  for (const std::string& f : res.failures) std::printf("FAILED: %s\n", f.c_str());

  std::string info = "{\"build_type\":" + json_string(PERFBENCH_BUILD_TYPE) +
                     ",\"cxx_flags\":" + json_string(PERFBENCH_CXX_FLAGS) +
                     ",\"compiler\":" + json_string(PERFBENCH_COMPILER) +
                     ",\"cpu_model\":" + json_string(host.cpu_model) +
                     ",\"nproc\":" + std::to_string(host.nproc) +
                     ",\"llc_mib\":" + json_number(host.llc_bytes / 1048576.0);
  for (const auto& [key, value] : res.info) info += ",\"" + key + "\":" + json_number(value);
  std::printf("perfbench-info %s}\n", info.c_str());

  bool finite = true;
  std::string metrics;
  for (const Metric& m : res.metrics) {
    finite = finite && std::isfinite(m.value);
    metrics += (metrics.empty() ? "" : ",") + json_string(m.name) + ":{\"value\":" +
               json_number(m.value) + ",\"unit\":" + json_string(m.unit) + "}";
  }
  std::printf("{\"correct\":%s,\"attempted\":%ld,\"failed\":%ld,\"metrics\":{%s}}\n",
              res.correct() && finite ? "true" : "false", res.attempted, res.failed,
              metrics.c_str());
  return 0;
}
