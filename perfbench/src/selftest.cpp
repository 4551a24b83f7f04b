// Self-test of the benchmark's output checks: a clean reduction passes, and
// a reduction whose output has one element perturbed after the run is
// counted as failed — by the checks directly, and end to end through the
// workload driver. Exits 0 when every case holds.
#include <cstdio>
#include <string>

#include "checks.hpp"
#include "workload.hpp"

using namespace perfbench;

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

/// Checks on one code at size n: clean outputs pass; an element perturbed in
/// the reduced form, in the reflector storage, or in d fails.
void check_code(Code code, index_t n) {
  const std::string name = to_string(code);
  const Input in = make_input(code, n, 42);
  fth::hybrid::Device dev;
  Output hy, ft;
  prepare(in, hy);
  prepare(in, ft);
  run_hybrid(dev, code, hy, nullptr);
  run_ft(dev, code, ft, nullptr, nullptr, nullptr);
  expect(check_output(in, hy).empty(), name + ": clean hybrid output passes");
  expect(check_output(in, ft).empty(), name + ": clean FT output passes");
  expect(check_agreement(agreement_gap(in, hy, ft)).empty(), name + ": FT agrees with hybrid");
  expect(check_residuals(residuals(in, ft)).empty(), name + ": residuals within tolerance");

  const double delta = 1e-6 * in.fro;
  Output bad = ft;
  bad.a(n / 2, n / 2) += delta;
  expect(!check_output(in, bad).empty(), name + ": perturbed diagonal element fails");
  bad = ft;
  bad.a(n - 1, 0) += delta;  // reflector storage in every code's layout
  expect(!check_agreement(agreement_gap(in, hy, bad)).empty(), name + ": perturbed reflector element fails");
  expect(!check_residuals(residuals(in, bad)).empty(),
         name + ": perturbed reflector element fails the residual check");
  if (code != Code::Gehrd) {
    bad = ft;
    bad.d[static_cast<std::size_t>(n / 3)] += delta;
    expect(!check_output(in, bad).empty(), name + ": perturbed d element fails");
  }
}

/// The driver counts a perturbed reduction as exactly one failure, whether
/// it is a warm-up hybrid or FT run, a count-pass run or a faulted FT run
/// of the recovery ledger.
void check_driver(const char* workload) {
  RunOptions opt;
  opt.workload = find_workload(workload);
  opt.seed = 7;
  opt.seconds = 0.01;
  opt.trace = true;  // one set-up, then the count pass (hybrid, FT per code)
  const RunResult clean = run_workload(opt);
  expect(clean.correct() && clean.failed == 0,
         std::string(workload) + ": clean run has no failures");
  const long per_pass = 2 * static_cast<long>(opt.workload->codes.size());
  for (const long attempt : {0L, 1L, per_pass, per_pass + 1, 2 * per_pass}) {
    opt.corrupt_attempt = attempt;
    const RunResult r = run_workload(opt);
    expect(r.failed == 1 && !r.correct(),
           std::string(workload) + ": perturbed attempt " + std::to_string(attempt) +
               " counted as one failure");
  }
}

}  // namespace

int main() {
  check_code(Code::Gehrd, 96);
  check_code(Code::Sytrd, 96);
  check_code(Code::Gebrd, 96);
  check_driver("small-n128");
  check_driver("family-n384");
  std::printf("%s: %d failure(s)\n", g_failures == 0 ? "PASS" : "FAIL", g_failures);
  return g_failures == 0 ? 0 : 1;
}
