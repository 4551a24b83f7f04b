// google-benchmark microbenchmarks for the kernels the reduction is built
// from — useful when tuning block sizes or porting the BLAS.
#include <benchmark/benchmark.h>

#include "ft/checksum.hpp"
#include "hybrid/dev_blas.hpp"
#include "hybrid/device.hpp"
#include "la/blas2.hpp"
#include "la/blas3.hpp"
#include "la/generate.hpp"
#include "lapack/gehrd.hpp"
#include "lapack/orghr.hpp"
#include "lapack/reflectors.hpp"

using namespace fth;

namespace {

void BM_gemm(benchmark::State& state) {
  const index_t n = state.range(0);
  Matrix<double> a = random_matrix(n, n, 1);
  Matrix<double> b = random_matrix(n, n, 2);
  Matrix<double> c(n, n);
  for (auto _ : state) {
    blas::gemm(Trans::No, Trans::No, 1.0, a.cview(), b.cview(), 0.0, c.view());
    benchmark::DoNotOptimize(c.data());
  }
  const double dn = static_cast<double>(n);
  state.counters["GFLOP/s"] = benchmark::Counter(
      2.0 * dn * dn * dn * static_cast<double>(state.iterations()) / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_gemm)->Arg(64)->Arg(128)->Arg(256)->Arg(512)->Unit(benchmark::kMicrosecond);

void BM_gemv(benchmark::State& state) {
  const index_t n = state.range(0);
  Matrix<double> a = random_matrix(n, n, 3);
  std::vector<double> x(static_cast<std::size_t>(n), 1.0);
  std::vector<double> y(static_cast<std::size_t>(n), 0.0);
  for (auto _ : state) {
    blas::gemv(Trans::No, 1.0, a.cview(), VectorView<const double>(x.data(), n), 0.0,
               VectorView<double>(y.data(), n));
    benchmark::DoNotOptimize(y.data());
  }
  const double dn = static_cast<double>(n);
  state.counters["GFLOP/s"] = benchmark::Counter(
      2.0 * dn * dn * static_cast<double>(state.iterations()) / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_gemv)->Arg(256)->Arg(1024)->Arg(4096)->Unit(benchmark::kMicrosecond);

// The hybrid panel's product Y(:, j) = A·v on a default device's kernel
// team, with y starting `phase` doubles (the argument, 0–7) into a cache
// line, as a column of the panel's Y does. Each iteration is one launch
// and its synchronize.
void BM_team_gemv(benchmark::State& state) {
  const index_t n = 1021;
  const index_t phase = state.range(0);
  hybrid::Device dev;
  hybrid::Stream& s = dev.stream();
  hybrid::DeviceMatrix<double> da(dev, n, n), dx(dev, n, 1), dy(dev, n + phase, 1);
  hybrid::copy_h2d(s, random_matrix(n, n, 3).cview(), da.view());
  hybrid::copy_h2d(s, random_matrix(n, 1, 4).cview(), dx.view());
  const auto y = dy.view().col(0).sub(phase, n);
  for (auto _ : state) {
    hybrid::gemv_async(s, Trans::No, 1.0, da.view(), dx.view().col(0), 0.0, y);
    s.synchronize();
  }
  const double dn = static_cast<double>(n);
  state.counters["GFLOP/s"] = benchmark::Counter(
      2.0 * dn * dn * static_cast<double>(state.iterations()) / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_team_gemv)->DenseRange(0, 7)->Unit(benchmark::kMicrosecond)->UseRealTime();

// The runtime layer: one host→device→host handoff with no work in it, on a
// default device's stream. BM_stream_roundtrip enqueues an empty task and
// synchronizes; BM_event_roundtrip enqueues one, records an Event behind
// it and waits on that, as a panel column of Algorithm 2 does.
void BM_stream_roundtrip(benchmark::State& state) {
  hybrid::Device dev;
  hybrid::Stream& s = dev.stream();
  std::uint64_t runs = 0;
  for (auto _ : state) {
    s.enqueue("bench.empty", FTH_TASK_EFFECTS(), [&runs] { ++runs; });
    s.synchronize();
  }
  benchmark::DoNotOptimize(runs);
}
BENCHMARK(BM_stream_roundtrip)->Unit(benchmark::kMicrosecond)->UseRealTime();

void BM_event_roundtrip(benchmark::State& state) {
  hybrid::Device dev;
  hybrid::Stream& s = dev.stream();
  std::uint64_t runs = 0;
  for (auto _ : state) {
    s.enqueue("bench.empty", FTH_TASK_EFFECTS(), [&runs] { ++runs; });
    s.record().wait();
  }
  benchmark::DoNotOptimize(runs);
}
BENCHMARK(BM_event_roundtrip)->Unit(benchmark::kMicrosecond)->UseRealTime();

void BM_larfb(benchmark::State& state) {
  const index_t m = state.range(0);
  const index_t k = 32;
  Matrix<double> a = random_matrix(m + 1, m + 1, 4);
  std::vector<double> tau(static_cast<std::size_t>(m));
  lapack::gehrd(a.view(), VectorView<double>(tau.data(), m), {.nb = k, .nx = k});
  Matrix<double> v = lapack::materialize_v(a.cview(), 0, k);
  Matrix<double> t(k, k);
  lapack::larft(Direction::Forward, StoreV::Columnwise, v.cview(),
                VectorView<const double>(tau.data(), k), t.view());
  Matrix<double> c = random_matrix(m, m, 5);
  Matrix<double> work(m, k);
  for (auto _ : state) {
    lapack::larfb(Side::Left, Trans::Yes, Direction::Forward, StoreV::Columnwise, v.cview(),
                  t.cview(), c.view(), work.view());
    benchmark::DoNotOptimize(c.data());
  }
}
BENCHMARK(BM_larfb)->Arg(256)->Arg(512)->Unit(benchmark::kMicrosecond);

void BM_lahr2_panel(benchmark::State& state) {
  const index_t n = state.range(0);
  const index_t nb = 32;
  Matrix<double> a0 = random_matrix(n, n, 6);
  Matrix<double> t(nb, nb);
  Matrix<double> y(n, nb);
  std::vector<double> tau(static_cast<std::size_t>(nb));
  for (auto _ : state) {
    state.PauseTiming();
    Matrix<double> a(a0.cview());
    state.ResumeTiming();
    lapack::lahr2(a.view(), 0, nb, t.view(), y.view(),
                  VectorView<double>(tau.data(), nb));
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_lahr2_panel)->Arg(256)->Arg(512)->Unit(benchmark::kMicrosecond);

void BM_gehrd(benchmark::State& state) {
  const index_t n = state.range(0);
  Matrix<double> a0 = random_matrix(n, n, 7);
  std::vector<double> tau(static_cast<std::size_t>(n - 1));
  for (auto _ : state) {
    state.PauseTiming();
    Matrix<double> a(a0.cview());
    state.ResumeTiming();
    lapack::gehrd(a.view(), VectorView<double>(tau.data(), n - 1), {});
    benchmark::DoNotOptimize(a.data());
  }
  const double dn = static_cast<double>(n);
  state.counters["GFLOP/s"] = benchmark::Counter(
      10.0 / 3.0 * dn * dn * dn * static_cast<double>(state.iterations()) / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_gehrd)->Arg(128)->Arg(256)->Arg(512)->Unit(benchmark::kMillisecond);

void BM_encode_extended(benchmark::State& state) {
  const index_t n = state.range(0);
  Matrix<double> a = random_matrix(n, n, 8);
  for (auto _ : state) {
    Matrix<double> ext = ft::encode_extended(a.cview());
    benchmark::DoNotOptimize(ext.data());
  }
}
BENCHMARK(BM_encode_extended)->Arg(256)->Arg(1024)->Unit(benchmark::kMicrosecond);

void BM_detection_gap(benchmark::State& state) {
  const index_t n = state.range(0);
  Matrix<double> ext = ft::encode_extended(random_matrix(n, n, 9).cview());
  for (auto _ : state) {
    benchmark::DoNotOptimize(ft::detection_gap(ext.cview()));
  }
}
BENCHMARK(BM_detection_gap)->Arg(1024)->Arg(4096)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
