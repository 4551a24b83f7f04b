#include "probes.hpp"

#include <cpuid.h>
#include <immintrin.h>
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <memory>

#include "hybrid/dev_blas.hpp"
#include "la/blas2.hpp"
#include "la/blas3.hpp"
#include "la/generate.hpp"
#include "lapack/gehrd.hpp"

namespace perfbench {

using fth::Diag;
using fth::MatrixView;
using fth::Side;
using fth::Trans;
using fth::Uplo;
using fth::VectorView;
namespace hy = fth::hybrid;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Seconds of each of `reps` timed calls of `fn` (after one untimed warm-up).
/// `prep` runs untimed before every call (e.g. restoring an input).
template <class Fn, class Prep>
std::vector<double> time_reps(int reps, Fn&& fn, Prep&& prep) {
  std::vector<double> s;
  prep();
  fn();
  for (int r = 0; r < reps; ++r) {
    prep();
    const auto t0 = Clock::now();
    fn();
    s.push_back(seconds_since(t0));
  }
  return s;
}
template <class Fn>
std::vector<double> time_reps(int reps, Fn&& fn) {
  return time_reps(reps, fn, [] {});
}

/// Repetitions so one probe executes about `target` flops, within [lo, hi].
int reps_for(double flops, double target, int lo, int hi) {
  return std::clamp(static_cast<int>(target / flops), lo, hi);
}

// --- hardware ---------------------------------------------------------------

volatile double g_sink = 0.0;

/// Flops/s of one core running independent FMA chains, enough of them to
/// cover the FMA latency on every port.
double fma_rate(long iters) {
#if defined(__AVX512F__)
  constexpr int kAcc = 16, kLanes = 8;
  __m512d acc[kAcc];
  for (int k = 0; k < kAcc; ++k) acc[k] = _mm512_set1_pd(1e-3 * (k + 1));
  const __m512d m = _mm512_set1_pd(0.9999999), a = _mm512_set1_pd(1e-3);
  const auto t0 = Clock::now();
  for (long it = 0; it < iters; ++it)
    for (int k = 0; k < kAcc; ++k) acc[k] = _mm512_fmadd_pd(acc[k], m, a);
  const double s = seconds_since(t0);
  double lanes[kLanes];
  for (int k = 1; k < kAcc; ++k) acc[0] = _mm512_add_pd(acc[0], acc[k]);
  _mm512_storeu_pd(lanes, acc[0]);
  for (const double x : lanes) g_sink = g_sink + x;
#elif defined(__FMA__)
  constexpr int kAcc = 12, kLanes = 4;
  __m256d acc[kAcc];
  for (int k = 0; k < kAcc; ++k) acc[k] = _mm256_set1_pd(1e-3 * (k + 1));
  const __m256d m = _mm256_set1_pd(0.9999999), a = _mm256_set1_pd(1e-3);
  const auto t0 = Clock::now();
  for (long it = 0; it < iters; ++it)
    for (int k = 0; k < kAcc; ++k) acc[k] = _mm256_fmadd_pd(acc[k], m, a);
  const double s = seconds_since(t0);
  double lanes[kLanes];
  for (int k = 1; k < kAcc; ++k) acc[0] = _mm256_add_pd(acc[0], acc[k]);
  _mm256_storeu_pd(lanes, acc[0]);
  for (const double x : lanes) g_sink = g_sink + x;
#else
  constexpr int kAcc = 8, kLanes = 1;
  double acc[kAcc];
  for (int k = 0; k < kAcc; ++k) acc[k] = 1e-3 * (k + 1);
  const auto t0 = Clock::now();
  for (long it = 0; it < iters; ++it)
    for (int k = 0; k < kAcc; ++k) acc[k] = acc[k] * 0.9999999 + 1e-3;
  const double s = seconds_since(t0);
  for (int k = 0; k < kAcc; ++k) g_sink = g_sink + acc[k];
#endif
  return 2.0 * kLanes * kAcc * static_cast<double>(iters) / s;
}

/// Size in bytes of the largest cache CPUID leaf 4 (Intel) or 0x8000001D
/// (AMD) describes; 0 when neither leaf is available.
double largest_cache_bytes() {
  double best = 0.0;
  for (const unsigned leaf : {4u, 0x8000001Du}) {
    unsigned a = 0, b = 0, c = 0, d = 0;
    if (__get_cpuid_max(leaf & 0x80000000u, nullptr) < leaf) continue;
    for (unsigned sub = 0; sub < 16; ++sub) {
      __cpuid_count(leaf, sub, a, b, c, d);
      if ((a & 0x1F) == 0) break;
      const double ways = ((b >> 22) & 0x3FF) + 1, parts = ((b >> 12) & 0x3FF) + 1,
                   line = (b & 0xFFF) + 1, sets = static_cast<double>(c) + 1;
      best = std::max(best, ways * parts * line * sets);
    }
    if (best > 0) break;
  }
  return best;
}

}  // namespace

HostInfo host_info() {
  HostInfo h;
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i)
      __cpuid(0x80000002u + i, regs[4 * i], regs[4 * i + 1], regs[4 * i + 2], regs[4 * i + 3]);
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    h.cpu_model = brand;
    h.cpu_model.erase(0, h.cpu_model.find_first_not_of(' '));
  }
  if (h.cpu_model.empty()) h.cpu_model = "unknown";
  cpu_set_t set;
  CPU_ZERO(&set);
  h.nproc = sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : 1;
  h.llc_bytes = largest_cache_bytes();
  return h;
}

std::vector<Metric> probe_hardware(const HostInfo& host,
                                   std::vector<std::pair<std::string, double>>& info) {
  std::vector<Metric> out;
  std::vector<double> fma;
  fma_rate(1'000'000);  // warm-up (clock ramp)
  for (int r = 0; r < 7; ++r) fma.push_back(fma_rate(4'000'000) / 1e9);
  out.push_back(summarize("hw.fma_gflops", "GF/s", fma));

  // Without a reported cache size, assume 256 MiB so the arrays still
  // dwarf any plausible last-level cache.
  const double llc = host.llc_bytes > 0 ? host.llc_bytes : 256.0 * 1024 * 1024;
  const std::size_t elems = static_cast<std::size_t>(4.0 * llc / sizeof(double)) + 8;
  std::unique_ptr<double[]> a(new double[elems]), b(new double[elems]), c(new double[elems]);
  for (std::size_t i = 0; i < elems; ++i) {
    a[i] = 0.0;
    b[i] = 1.0;
    c[i] = 2.0;
  }
  std::vector<double> gbps;
  const double q = 3.0;
  for (int r = 0; r < 3; ++r) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < elems; ++i) a[i] = b[i] + q * c[i];
    gbps.push_back(3.0 * sizeof(double) * static_cast<double>(elems) / seconds_since(t0) / 1e9);
  }
  g_sink = g_sink + a[elems / 2];
  out.push_back(summarize("hw.triad_gbps", "GB/s", gbps));
  info.emplace_back("triad_array_mib", static_cast<double>(elems * sizeof(double)) / 1048576.0);
  return out;
}

std::vector<Metric> probe_kernels(index_t n, std::uint64_t seed, double fma_gflops,
                                  double triad_gbps) {
  const index_t nb = kNb;
  const double dn = static_cast<double>(n), dnb = static_cast<double>(nb);
  std::vector<Metric> out;
  // Achieved rate over the roofline bound min(peak, intensity × bandwidth),
  // with bytes computed from the operand sizes (cache reuse ignored).
  const auto roof = [&](const std::string& name, const std::vector<double>& s, double flops,
                        double bytes) {
    const Metric rate = summarize(name + "_gflops", "GF/s", s, flops / 1e9, true);
    out.push_back(rate);
    const double bound = std::min(fma_gflops, flops / bytes * triad_gbps);
    out.push_back(exact(name + "_roof_frac", "ratio", rate.value / bound));
    return rate.value;
  };

  const Matrix<double> a0 = fth::random_matrix(n, n, seed);
  const Matrix<double> panel = fth::random_matrix(n, nb, seed + 1);
  const Matrix<double> wide = fth::random_matrix(nb, n, seed + 2);
  Matrix<double> c(a0.cview());
  std::vector<double> x(static_cast<std::size_t>(n), 1.0), y(static_cast<std::size_t>(n), 0.0);
  const VectorView<const double> xv(x.data(), n);
  const VectorView<double> yv(y.data(), n);

  // la: the trailing update (n×nb · nb×n), the per-column gemv, the nb×nb
  // trmm applied to an n×nb block, and sytrd's symv / syr2k.
  const double gemm_flops = 2.0 * dn * dn * dnb;
  const auto gemm = time_reps(reps_for(gemm_flops, 2e9, 10, 200), [&] {
    fth::blas::gemm(Trans::No, Trans::No, -1.0, panel.cview(), wide.cview(), 1.0, c.view());
  });
  roof("la.gemm", gemm, gemm_flops, 8.0 * (2.0 * dn * dnb + 2.0 * dn * dn));

  const double gemv_flops = 2.0 * dn * dn, gemv_bytes = 8.0 * (dn * dn + 3.0 * dn);
  const auto gemv = time_reps(reps_for(gemv_flops, 2e8, 20, 400), [&] {
    fth::blas::gemv(Trans::No, 1.0, a0.cview(), xv, 0.0, yv);
  });
  const double gemv_gflops = roof("la.gemv", gemv, gemv_flops, gemv_bytes);
  out.push_back(exact("la.gemv_gbps", "GB/s", gemv_gflops / gemv_flops * gemv_bytes));

  const Matrix<double> tri = fth::random_matrix(nb, nb, seed + 3);
  Matrix<double> blk(panel.cview());
  const double trmm_flops = dn * dnb * dnb;
  const auto trmm = time_reps(reps_for(trmm_flops, 2e8, 20, 400), [&] {
    fth::blas::trmm(Side::Right, Uplo::Upper, Trans::No, Diag::NonUnit, 1.0, tri.cview(),
                    blk.view());
  }, [&] { fth::copy(panel.cview(), blk.view()); });
  roof("la.trmm", trmm, trmm_flops, 8.0 * (dnb * dnb / 2.0 + 2.0 * dn * dnb));

  const auto symv = time_reps(reps_for(gemv_flops, 2e8, 20, 400), [&] {
    fth::blas::symv(Uplo::Lower, 1.0, a0.cview(), xv, 0.0, yv);
  });
  roof("la.symv", symv, gemv_flops, 8.0 * (dn * dn / 2.0 + 3.0 * dn));

  const double syr2k_flops = 2.0 * dn * dn * dnb;
  const auto syr2k = time_reps(reps_for(syr2k_flops, 1e9, 5, 100), [&] {
    fth::blas::syr2k(Uplo::Lower, Trans::No, -1.0, panel.cview(), panel.cview(), 1.0, c.view());
  });
  roof("la.syr2k", syr2k, syr2k_flops, 8.0 * (2.0 * dn * dnb + dn * dn));

  // lapack: the host panel (lahr2 on the first nb columns) and the plain
  // single-threaded blocked reduction of the same matrix.
  {
    Matrix<double> work(n, n), t(nb, nb), yb(n, nb);
    std::vector<double> tau(static_cast<std::size_t>(std::max<index_t>(n - 1, nb)));
    const auto restore = [&] { fth::copy(a0.cview(), work.view()); };
    const auto lahr2 = time_reps(reps_for(2.0 * dn * dn * dnb, 1e9, 5, 100), [&] {
      fth::lapack::lahr2(work.view(), 0, nb, t.view(), yb.view(), VectorView<double>(tau.data(), nb));
    }, restore);
    out.push_back(summarize("lapack.lahr2_s", "s", lahr2));
    const auto gehrd = time_reps(3, [&] {
      fth::lapack::gehrd(work.view(), VectorView<double>(tau.data(), n - 1), {.nb = nb, .nx = nb});
    }, restore);
    out.push_back(summarize("lapack.gehrd_gflops", "GF/s", gehrd,
                            nominal_flops(Code::Gehrd, n) / 1e9, true));
  }

  // hybrid runtime: an empty task's round trip, the device gemm at the
  // update shape, and an n×nb panel copy each way.
  {
    hy::Device dev;
    hy::Stream& s = dev.stream();
    const auto rt = time_reps(2000, [&] {
      s.enqueue("perfbench.empty", [] {});
      s.synchronize();
    });
    out.push_back(summarize("hybrid.roundtrip_us", "us", rt, 1e6));

    hy::DeviceMatrix<double> dp(dev, n, nb, "perfbench.panel"), dw(dev, nb, n, "perfbench.wide"),
        dc(dev, n, n, "perfbench.c");
    hy::copy_h2d(s, panel.cview(), dp.view());
    hy::copy_h2d(s, wide.cview(), dw.view());
    hy::copy_h2d(s, a0.cview(), dc.view());
    const auto dev_gemm = time_reps(static_cast<int>(gemm.size()), [&] {
      hy::gemm_async(s, Trans::No, Trans::No, -1.0, dp.view(), dw.view(), 1.0, dc.view());
      s.synchronize();
    });
    const Metric dg = summarize("hybrid.dev_gemm_gflops", "GF/s", dev_gemm, gemm_flops / 1e9, true);
    out.push_back(dg);
    out.push_back(exact("hybrid.dispatch_us", "us", 1e6 * (median(dev_gemm) - median(gemm))));

    Matrix<double> back(n, nb);
    const double bytes = 8.0 * dn * dnb;
    const auto h2d = time_reps(200, [&] { hy::copy_h2d(s, panel.cview(), dp.view()); });
    out.push_back(summarize("hybrid.h2d_gbps", "GB/s", h2d, bytes / 1e9, true));
    const auto d2h = time_reps(200, [&] { hy::copy_d2h(s, dp.view(), back.view()); });
    out.push_back(summarize("hybrid.d2h_gbps", "GB/s", d2h, bytes / 1e9, true));
  }
  return out;
}

}  // namespace perfbench
