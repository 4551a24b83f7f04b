// The device kernel team: fork/join runtime, team sizing, and the team
// kernels' bit-identity with the serial la/lapack kernels.
#include <gtest/gtest.h>

#include <bit>
#include <chrono>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/flops.hpp"
#include "hybrid/dev_blas.hpp"
#include "hybrid/device.hpp"
#include "hybrid/pool.hpp"
#include "la/blas2.hpp"
#include "la/blas3.hpp"
#include "la/generate.hpp"
#include "lapack/reflectors.hpp"

namespace fth::hybrid {
namespace {

using namespace std::chrono_literals;

constexpr int kMaxTeam = 4;

/// Bitwise equality of two equally-shaped matrices (NaN-safe, ±0-exact).
::testing::AssertionResult bits_equal(const Matrix<double>& x, const Matrix<double>& y) {
  if (x.rows() != y.rows() || x.cols() != y.cols())
    return ::testing::AssertionFailure() << "shape mismatch";
  for (index_t j = 0; j < x.cols(); ++j)
    for (index_t i = 0; i < x.rows(); ++i)
      if (std::bit_cast<std::uint64_t>(x(i, j)) != std::bit_cast<std::uint64_t>(y(i, j)))
        return ::testing::AssertionFailure()
               << "differ at (" << i << ", " << j << "): " << x(i, j) << " vs " << y(i, j);
  return ::testing::AssertionSuccess();
}

/// Run `team_kernel(team, out)` and `serial_kernel(out)` on copies of
/// `init` for every team size, asserting bit-identical outputs, that the
/// team actually forked (size > 1), and that both count the same FLOPs.
template <class TeamKernel, class SerialKernel>
void expect_identical(const Matrix<double>& init, TeamKernel team_kernel,
                      SerialKernel serial_kernel) {
  Matrix<double> want = init;
  std::uint64_t want_flops = 0;
  {
    flops::Scope scope;
    serial_kernel(want.view());
    want_flops = scope.delta();
  }
  for (int size = 1; size <= kMaxTeam; ++size) {
    SCOPED_TRACE("team size " + std::to_string(size));
    Team team(size);
    Matrix<double> got = init;
    flops::Scope scope;
    const std::uint64_t thread_before = flops::thread_count();
    team_kernel(team, got.view());
    EXPECT_TRUE(bits_equal(got, want));
    EXPECT_EQ(scope.delta(), want_flops);
    EXPECT_EQ(flops::thread_count() - thread_before, want_flops)
        << "helpers' FLOPs are credited to the dispatching thread";
    EXPECT_EQ(team.forks(), size > 1 ? 1u : 0u) << "the shape must pass the size gate";
  }
}

TEST(TeamKernels, GemmAllTransPairsOnRaggedShapes) {
  struct Shape {
    index_t m, n, k;
  };
  // Ragged in every dimension; m = 37 is the left-update W = Vᵀ·E shape.
  for (const Shape sh : {Shape{203, 317, 45}, Shape{37, 519, 211}, Shape{613, 13, 97}}) {
    for (const Trans ta : {Trans::No, Trans::Yes}) {
      for (const Trans tb : {Trans::No, Trans::Yes}) {
        SCOPED_TRACE(testing::Message() << sh.m << "x" << sh.n << "x" << sh.k << " ta="
                                        << (ta == Trans::Yes) << " tb=" << (tb == Trans::Yes));
        const Matrix<double> a = ta == Trans::No ? random_matrix(sh.m, sh.k, 1)
                                                 : random_matrix(sh.k, sh.m, 1);
        const Matrix<double> b = tb == Trans::No ? random_matrix(sh.k, sh.n, 2)
                                                 : random_matrix(sh.n, sh.k, 2);
        for (const double beta : {0.0, 1.0, -0.37}) {
          expect_identical(
              random_matrix(sh.m, sh.n, 3),
              [&](Team& t, MatrixView<double> c) {
                par::gemm(t, ta, tb, -0.71, a.cview(), b.cview(), beta, c);
              },
              [&](MatrixView<double> c) {
                blas::gemm(ta, tb, -0.71, a.cview(), b.cview(), beta, c);
              });
        }
      }
    }
  }
}

TEST(TeamKernels, GemvBothWaysIncludingStridedVectors) {
  const Matrix<double> a = random_matrix(517, 397, 4);
  for (const Trans trans : {Trans::No, Trans::Yes}) {
    const index_t xn = trans == Trans::No ? a.cols() : a.rows();
    const index_t yn = trans == Trans::No ? a.rows() : a.cols();
    const Matrix<double> x = random_matrix(xn, 1, 5);
    for (const double beta : {0.0, 0.5}) {
      // Contiguous y (a column) and strided y (a row of a 2-row matrix).
      expect_identical(
          random_matrix(yn, 1, 6),
          [&](Team& t, MatrixView<double> y) {
            par::gemv(t, trans, 1.3, a.cview(), x.cview().col(0), beta, y.col(0));
          },
          [&](MatrixView<double> y) {
            blas::gemv(trans, 1.3, a.cview(), x.cview().col(0), beta, y.col(0));
          });
      expect_identical(
          random_matrix(2, yn, 7),
          [&](Team& t, MatrixView<double> y) {
            par::gemv(t, trans, 1.3, a.cview(), x.cview().col(0), beta, y.row(1));
          },
          [&](MatrixView<double> y) {
            blas::gemv(trans, 1.3, a.cview(), x.cview().col(0), beta, y.row(1));
          });
    }
  }
}

TEST(TeamKernels, TrmmBothSidesEveryTriangle) {
  for (const Side side : {Side::Left, Side::Right}) {
    const index_t m = side == Side::Left ? 101 : 83;
    const index_t n = side == Side::Left ? 67 : 109;
    const Matrix<double> a = random_matrix(side == Side::Left ? m : n,
                                           side == Side::Left ? m : n, 8);
    for (const Uplo uplo : {Uplo::Lower, Uplo::Upper})
      for (const Trans trans : {Trans::No, Trans::Yes})
        for (const Diag diag : {Diag::Unit, Diag::NonUnit})
          expect_identical(
              random_matrix(m, n, 9),
              [&](Team& t, MatrixView<double> b) {
                par::trmm(t, side, uplo, trans, diag, 0.9, a.cview(), b);
              },
              [&](MatrixView<double> b) {
                blas::trmm(side, uplo, trans, diag, 0.9, a.cview(), b);
              });
  }
}

TEST(TeamKernels, LarfbLeftBothTransposes) {
  struct Shape {
    index_t m, n, k;
  };
  // The second shape's gemms take the blocked path on the whole C, but a
  // column block alone (m − k = 3) would take the naive one.
  for (const Shape sh : {Shape{301, 257, 29}, Shape{35, 400, 32}}) {
    const index_t m = sh.m;
    const index_t n = sh.n;
    const index_t k = sh.k;
    SCOPED_TRACE(testing::Message() << m << "x" << n << " k=" << k);
    const Matrix<double> v = random_matrix(m, k, 10);
    const Matrix<double> t = random_matrix(k, k, 11);
    for (const Trans trans : {Trans::No, Trans::Yes}) {
      // C and the workspace travel together: the output is [C | Wᵀ-rows].
      Matrix<double> init(m + n, std::max(n, k));
      const Matrix<double> c0 = random_matrix(m, n, 12);
      for (index_t j = 0; j < n; ++j)
        for (index_t i = 0; i < m; ++i) init(i, j) = c0(i, j);
      auto split = [&](MatrixView<double> cw) {
        return std::pair{cw.block(0, 0, m, n), cw.block(m, 0, n, k)};
      };
      expect_identical(
          init,
          [&](Team& team, MatrixView<double> cw) {
            auto [c, w] = split(cw);
            par::larfb_left(team, trans, v.cview(), t.cview(), c, w);
          },
          [&](MatrixView<double> cw) {
            auto [c, w] = split(cw);
            lapack::larfb(Side::Left, trans, Direction::Forward, StoreV::Columnwise,
                          v.cview(), t.cview(), c, w);
          });
    }
  }
}

TEST(TeamKernels, SymvBothTriangles) {
  const index_t n = 389;
  const Matrix<double> a = random_matrix(n, n, 13);  // the unused triangle must not matter
  const Matrix<double> x = random_matrix(n, 1, 14);
  for (const Uplo uplo : {Uplo::Lower, Uplo::Upper})
    for (const double beta : {0.0, 1.0, 0.25})
      expect_identical(
          random_matrix(n, 1, 15),
          [&](Team& t, MatrixView<double> y) {
            par::symv(t, uplo, -1.1, a.cview(), x.cview().col(0), beta, y.col(0));
          },
          [&](MatrixView<double> y) {
            blas::symv(uplo, -1.1, a.cview(), x.cview().col(0), beta, y.col(0));
          });
}

TEST(TeamKernels, Syr2kBothTriangles) {
  const index_t n = 389;
  const index_t k = 37;
  const Matrix<double> a = random_matrix(n, k, 16);
  const Matrix<double> b = random_matrix(n, k, 17);
  for (const Uplo uplo : {Uplo::Lower, Uplo::Upper})
    for (const double beta : {0.0, 1.0})
      expect_identical(
          random_matrix(n, n, 18),
          [&](Team& t, MatrixView<double> c) {
            par::syr2k(t, uplo, Trans::No, -1.0, a.cview(), b.cview(), beta, c);
          },
          [&](MatrixView<double> c) {
            blas::syr2k(uplo, Trans::No, -1.0, a.cview(), b.cview(), beta, c);
          });
}

TEST(TeamKernels, NonfiniteCountIsExactUnderEverySplit) {
  Matrix<double> a = random_matrix(611, 503, 19);
  index_t planted = 0;
  for (index_t j = 0; j < a.cols(); j += 7) {
    a((j * 13) % a.rows(), j) = (j % 2 == 0) ? std::numeric_limits<double>::quiet_NaN()
                                             : -std::numeric_limits<double>::infinity();
    ++planted;
  }
  for (int size = 1; size <= kMaxTeam; ++size) {
    Team team(size);
    EXPECT_EQ(par::count_nonfinite(team, a.cview()), planted) << "team size " << size;
    EXPECT_EQ(team.forks(), size > 1 ? 1u : 0u);
  }
}

TEST(TeamKernels, DeviceLaunchesMatchTheSerialKernel) {
  // The same check end to end through a stream: the kernel task unwraps on
  // the worker and forks the device's team.
  const Matrix<double> a = random_matrix(300, 211, 20);
  const Matrix<double> b = random_matrix(211, 257, 21);
  Matrix<double> want = random_matrix(300, 257, 22);
  Matrix<double> got = want;
  blas::gemm(Trans::No, Trans::No, 1.0, a.cview(), b.cview(), 1.0, want.view());

  Device dev(DeviceConfig{.team_size = kMaxTeam});
  DeviceMatrix<double> da(dev, 300, 211), db(dev, 211, 257), dc(dev, 300, 257);
  copy_h2d(dev.stream(), a.cview(), da.view());
  copy_h2d(dev.stream(), b.cview(), db.view());
  copy_h2d(dev.stream(), got.cview(), dc.view());
  gemm_async(dev.stream(), Trans::No, Trans::No, 1.0, da.view(), db.view(), 1.0, dc.view());
  copy_d2h(dev.stream(), dc.view(), got.view());
  EXPECT_TRUE(bits_equal(got, want));
  EXPECT_EQ(dev.team().forks(), 1u);
}

TEST(TeamKernels, SmallKernelsStaySerial) {
  // An n = 128 panel's gemv is under the size gate: no fork, no helpers.
  Device dev(DeviceConfig{.team_size = kMaxTeam});
  DeviceMatrix<double> a(dev, 128, 96), x(dev, 96, 1), y(dev, 128, 1);
  gemv_async(dev.stream(), Trans::No, 1.0, a.view(), x.view().col(0), 0.0, y.view().col(0));
  dev.stream().synchronize();
  EXPECT_EQ(dev.team().forks(), 0u);
  EXPECT_EQ(dev.team().helpers_started(), 0);
}

TEST(TeamRuntime, RunsEveryChunkExactlyOnce) {
  Team team(kMaxTeam);
  for (int rep = 0; rep < 50; ++rep) {
    std::vector<std::atomic<int>> hits(37);
    team.run(static_cast<index_t>(hits.size()),
             [&](index_t c) { hits[static_cast<std::size_t>(c)].fetch_add(1); });
    for (const auto& h : hits) ASSERT_EQ(h.load(), 1);
  }
  EXPECT_EQ(team.forks(), 50u);
  EXPECT_EQ(team.helpers_started(), kMaxTeam - 1);
}

TEST(TeamRuntime, NestedAndConcurrentRunsExecuteInline) {
  Team team(kMaxTeam);
  std::atomic<int> inner{0};
  team.run(8, [&](index_t) { team.run(4, [&](index_t) { inner.fetch_add(1); }); });
  EXPECT_EQ(inner.load(), 32);
  EXPECT_EQ(team.forks(), 1u) << "a run from inside a chunk does not fork again";

  // Two dispatchers: whichever finds the team busy runs its chunks itself.
  std::atomic<int> total{0};
  auto dispatch = [&] {
    for (int rep = 0; rep < 200; ++rep) team.run(6, [&](index_t) { total.fetch_add(1); });
  };
  std::thread other(dispatch);
  dispatch();
  other.join();
  EXPECT_EQ(total.load(), 2 * 200 * 6);
}

TEST(TeamRuntime, ChunkExceptionIsRethrownAfterTheJoin) {
  Team team(kMaxTeam);
  std::atomic<int> ran{0};
  EXPECT_THROW(team.run(16,
                        [&](index_t c) {
                          ran.fetch_add(1);
                          if (c == 11) throw std::runtime_error("chunk failed");
                        }),
               std::runtime_error);
  EXPECT_EQ(ran.load(), 16) << "the other chunks still ran";
  team.run(4, [&](index_t) { ran.fetch_add(1); });  // the team stays usable
  EXPECT_EQ(ran.load(), 20);
}

TEST(TeamSizing, DevicePoolDividesTheCores) {
  EXPECT_EQ(Team::size_for(4, 1), 4);
  EXPECT_EQ(Team::size_for(4, 2), 2);
  EXPECT_EQ(Team::size_for(4, 3), 1);
  EXPECT_EQ(Team::size_for(4, 8), 1);
  EXPECT_EQ(Team::size_for(0, 1), 1) << "unknown core count: a serial device";

  // A pool of 3 asks for no more threads than the box has (one worker per
  // member at least).
  const int cores = std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  DevicePool pool(PoolConfig{.devices = 3, .device = {}});
  int threads = 0;
  for (int d = 0; d < pool.size(); ++d) threads += pool.device(d).team().size();
  EXPECT_LE(threads, std::max(cores, pool.size()));
  for (int d = 0; d < pool.size(); ++d)
    EXPECT_EQ(pool.device(d).team().size(), Team::size_for(cores, 3));
}

TEST(TeamLifecycle, KillAndDestroyWithParkedHelpersDoNotHang) {
  auto dev = std::make_unique<Device>(DeviceConfig{.team_size = kMaxTeam});
  {
    DeviceMatrix<double> a(*dev, 256, 256), b(*dev, 256, 256), c(*dev, 256, 256);
    Stream& s = dev->stream();
    gemm_async(s, Trans::No, Trans::No, 1.0, a.view(), b.view(), 0.0, c.view());
    s.synchronize();
    ASSERT_EQ(dev->team().helpers_started(), kMaxTeam - 1);
    std::this_thread::sleep_for(20ms);  // the drained device's helpers park

    // Killed: queued work is discarded, event markers still complete.
    s.kill();
    gemm_async(s, Trans::No, Trans::No, 1.0, a.view(), b.view(), 0.0, c.view());
    const Event e = s.record();
    EXPECT_TRUE(e.wait_for(10s));
    s.synchronize();
  }
  dev.reset();  // joins the stream worker, then the parked helpers
}

}  // namespace
}  // namespace fth::hybrid
