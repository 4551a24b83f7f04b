// Device memory accounting, transfers, and the bandwidth cost model.
#include <gtest/gtest.h>

#include <cstdint>
#include <new>

#include "common/timer.hpp"
#include "la/generate.hpp"
#include "la/norms.hpp"
#include "hybrid/device.hpp"

namespace fth::hybrid {
namespace {

TEST(Device, TracksAllocations) {
  Device dev;
  EXPECT_EQ(dev.bytes_in_use(), 0u);
  {
    DeviceMatrix<double> a(dev, 10, 10);
    EXPECT_EQ(dev.bytes_in_use(), 100 * sizeof(double));
    {
      DeviceMatrix<double> b(dev, 5, 5);
      EXPECT_EQ(dev.bytes_in_use(), 125 * sizeof(double));
      EXPECT_EQ(dev.peak_bytes(), 125 * sizeof(double));
    }
    EXPECT_EQ(dev.bytes_in_use(), 100 * sizeof(double));
  }
  EXPECT_EQ(dev.bytes_in_use(), 0u);
  EXPECT_EQ(dev.peak_bytes(), 125 * sizeof(double));
}

TEST(Device, MemoryLimitEnforced) {
  Device dev({.memory_limit = 1000});
  EXPECT_THROW(DeviceMatrix<double>(dev, 100, 100), std::bad_alloc);
  // Failed allocation must not leak accounting.
  EXPECT_EQ(dev.bytes_in_use(), 0u);
  DeviceMatrix<double> small(dev, 5, 5);  // 200 bytes: fits
  EXPECT_EQ(dev.bytes_in_use(), 200u);
}

TEST(Device, AllocationsStartOnACacheLine) {
  Device dev;
  for (const std::size_t bytes : {8u, 24u, 4096u, 1022u * 32u * 8u, 1023u * 1023u * 8u}) {
    void* p = dev.raw_allocate(bytes);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % 64, 0u) << bytes << " bytes";
    dev.raw_deallocate(p, bytes);
  }
}

TEST(Device, DeviceMatrixZeroInitialized) {
  Device dev;
  DeviceMatrix<double> a(dev, 7, 3);
  EXPECT_EQ(norm_max(MatrixView<const double>(host_view(a.view(), dev.stream()))), 0.0);
}

TEST(Device, DeviceMatrixMoveSemantics) {
  Device dev;
  DeviceMatrix<double> a(dev, 4, 4);
  host_view(a.view(), dev.stream())(1, 1) = 5.0;
  DeviceMatrix<double> b(std::move(a));
  EXPECT_EQ(host_view(b.view(), dev.stream())(1, 1), 5.0);
  EXPECT_EQ(dev.bytes_in_use(), 16 * sizeof(double));
  DeviceMatrix<double> c(dev, 2, 2);
  c = std::move(b);
  EXPECT_EQ(host_view(c.view(), dev.stream())(1, 1), 5.0);
  EXPECT_EQ(dev.bytes_in_use(), 16 * sizeof(double));
}

TEST(Transfers, RoundTripPreservesData) {
  Device dev;
  Matrix<double> host = random_matrix(23, 17, 1);
  DeviceMatrix<double> d(dev, 23, 17);
  copy_h2d(dev.stream(), host.cview(), d.view());
  Matrix<double> back(23, 17);
  copy_d2h(dev.stream(), d.view(), back.view());
  EXPECT_EQ(max_abs_diff(host.cview(), back.cview()), 0.0);
}

TEST(Transfers, SubBlockTransfers) {
  Device dev;
  Matrix<double> host = random_matrix(20, 20, 2);
  DeviceMatrix<double> d(dev, 20, 20);
  copy_h2d(dev.stream(), MatrixView<const double>(host.block(3, 4, 5, 6)),
           d.block(10, 10, 5, 6));
  Matrix<double> back(5, 6);
  copy_d2h(dev.stream(), d.block(10, 10, 5, 6), back.view());
  EXPECT_EQ(max_abs_diff(MatrixView<const double>(host.block(3, 4, 5, 6)), back.cview()),
            0.0);
}

TEST(Transfers, DimensionMismatchSurfacesOnSynchronize) {
  Device dev;
  Matrix<double> host(4, 4);
  DeviceMatrix<double> d(dev, 5, 5);
  copy_h2d_async(dev.stream(), host.cview(), d.view());
  EXPECT_THROW(dev.stream().synchronize(), precondition_error);
}

TEST(Transfers, StatsAccumulate) {
  Device dev;
  dev.reset_transfer_stats();
  Matrix<double> host = random_matrix(8, 8, 3);
  DeviceMatrix<double> d(dev, 8, 8);
  copy_h2d(dev.stream(), host.cview(), d.view());
  copy_h2d(dev.stream(), host.cview(), d.view());
  copy_d2h(dev.stream(), d.view(), host.view());
  EXPECT_EQ(dev.h2d_bytes(), 2 * 64 * sizeof(double));
  EXPECT_EQ(dev.d2h_bytes(), 64 * sizeof(double));
  EXPECT_EQ(dev.h2d_count(), 2u);
  EXPECT_EQ(dev.d2h_count(), 1u);
  dev.reset_transfer_stats();
  EXPECT_EQ(dev.h2d_bytes(), 0u);
}

TEST(Transfers, CostModelChargesTime) {
  // 1 MB at 0.01 GB/s ⇒ ≥ 100 ms simulated transfer time.
  Device dev({.h2d_gbps = 0.01});
  Matrix<double> host = random_matrix(362, 362, 4);  // ~1.05 MB
  DeviceMatrix<double> d(dev, 362, 362);
  WallTimer t;
  copy_h2d(dev.stream(), host.cview(), d.view());
  EXPECT_GT(t.seconds(), 0.08);
  // D2H bandwidth unset ⇒ no charge.
  WallTimer t2;
  copy_d2h(dev.stream(), d.view(), host.view());
  EXPECT_LT(t2.seconds(), 0.08);
}

TEST(Device, ConfigIsStored) {
  DeviceConfig cfg;
  cfg.name = "TestGPU";
  cfg.h2d_gbps = 12.0;
  Device dev(cfg);
  EXPECT_EQ(dev.config().name, "TestGPU");
  EXPECT_EQ(dev.config().h2d_gbps, 12.0);
}

}  // namespace
}  // namespace fth::hybrid
