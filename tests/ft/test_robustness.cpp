// Robustness of the FT drivers at API boundaries: degenerate shapes,
// hostile options, resource pressure, and failure-path behaviour.
#include <gtest/gtest.h>

#include <new>

#include "fault/injector.hpp"
#include "ft/ft_gebrd.hpp"
#include "ft/ft_gehrd.hpp"
#include "ft/ft_sytrd.hpp"
#include "la/generate.hpp"
#include "la/norms.hpp"
#include "lapack/verify.hpp"
#include "test_utils.hpp"

namespace fth::ft {
namespace {

using test::vec;

TEST(Robustness, BlockLargerThanMatrix) {
  hybrid::Device dev;
  const index_t n = 20;
  Matrix<double> a0 = random_matrix(n, n, 1);
  Matrix<double> a(a0.cview());
  std::vector<double> tau(static_cast<std::size_t>(n - 1));
  FtReport rep;
  ft_gehrd(dev, a.view(), vec(tau), {.nb = 64}, nullptr, &rep);  // nb ≫ n
  auto v = lapack::verify_reduction(a0.cview(), a.cview(),
                                    VectorView<const double>(tau.data(), n - 1));
  EXPECT_TRUE(v.hessenberg);
  EXPECT_LT(v.residual, 1e-14);
}

TEST(Robustness, BlockSizeOne) {
  // nb = 1 degenerates every panel to a single reflector; the extended
  // updates and detection must still hold together.
  hybrid::Device dev;
  const index_t n = 24;
  Matrix<double> a0 = random_matrix(n, n, 2);
  Matrix<double> a(a0.cview());
  std::vector<double> tau(static_cast<std::size_t>(n - 1));
  FtReport rep;
  fault::FaultSpec spec;
  spec.area = fault::Area::LowerTrailing;
  spec.boundary = 5;
  fault::Injector inj(spec);
  ft_gehrd(dev, a.view(), vec(tau), {.nb = 1}, &inj, &rep);
  EXPECT_GE(rep.detections, 1);
  auto v = lapack::verify_reduction(a0.cview(), a.cview(),
                                    VectorView<const double>(tau.data(), n - 1));
  EXPECT_LT(v.residual, 1e-14);
}

TEST(Robustness, InvalidOptionsRejected) {
  hybrid::Device dev;
  Matrix<double> a(8, 8);
  std::vector<double> tau(7);
  EXPECT_THROW(ft_gehrd(dev, a.view(), vec(tau), {.nb = 0}), precondition_error);
  std::vector<double> d(8), e(7);
  FtSytrdOptions bad;
  bad.detect_every = 0;
  EXPECT_THROW(ft_sytrd(dev, a.view(), vec(d), vec(e), vec(tau), bad), precondition_error);
  std::vector<double> tauq(8);
  EXPECT_THROW(ft_gebrd(dev, a.view(), vec(d), vec(e), vec(tauq), vec(tau), bad),
               precondition_error);
}

TEST(Robustness, DeviceMemoryLimitSurfacesAsBadAlloc) {
  hybrid::Device dev({.memory_limit = 1 << 14});  // far too small for n = 64
  Matrix<double> a = random_matrix(64, 64, 3);
  std::vector<double> tau(63);
  EXPECT_THROW(ft_gehrd(dev, a.view(), vec(tau), {.nb = 16}), std::bad_alloc);
  // The failed run must not leak device memory.
  EXPECT_EQ(dev.bytes_in_use(), 0u);
}

TEST(Robustness, MaxRetriesZeroFailsFastOnFault) {
  hybrid::Device dev;
  const index_t n = 96;
  Matrix<double> a = random_matrix(n, n, 4);
  std::vector<double> tau(static_cast<std::size_t>(n - 1));
  fault::FaultSpec spec;
  spec.area = fault::Area::LowerTrailing;
  spec.boundary = 1;
  fault::Injector inj(spec);
  FtOptions opt;
  opt.nb = 32;
  opt.max_retries = 0;
  EXPECT_THROW(ft_gehrd(dev, a.view(), vec(tau), opt, &inj), recovery_error);
}

TEST(Robustness, ExplicitThresholdHonored) {
  // An explicit threshold is the detection tolerance in force, as given,
  // for every code (sytrd and gebrd read the same FtSytrdOptions).
  hybrid::Device dev;
  const index_t n = 64;
  fault::FaultSpec spec;
  spec.area = fault::Area::LowerTrailing;
  spec.boundary = 1;
  spec.relative = false;
  spec.magnitude = 1.0;  // below the lax threshold
  const double lax = 1e6;  // absurdly lax: nothing can trip it
  struct Code {
    const char* name;
    FtReport (*run)(hybrid::Device&, index_t, double, fault::Injector&);
  };
  const Code codes[] = {
      {"gehrd",
       [](hybrid::Device& d, index_t m, double thr, fault::Injector& inj) {
         Matrix<double> a = random_matrix(m, m, 5);
         std::vector<double> tau(static_cast<std::size_t>(m - 1));
         FtReport rep;
         ft_gehrd(d, a.view(), vec(tau), {.nb = 16, .threshold = thr, .final_sweep = false},
                  &inj, &rep);
         return rep;
       }},
      {"sytrd",
       [](hybrid::Device& d, index_t m, double thr, fault::Injector& inj) {
         Matrix<double> a = random_symmetric_matrix(m, 5);
         const auto um = static_cast<std::size_t>(m);
         std::vector<double> dg(um), e(um - 1), tau(um - 1);
         FtReport rep;
         ft_sytrd(d, a.view(), vec(dg), vec(e), vec(tau),
                  {.nb = 16, .threshold = thr, .final_sweep = false}, &inj, &rep);
         return rep;
       }},
      {"gebrd",
       [](hybrid::Device& d, index_t m, double thr, fault::Injector& inj) {
         Matrix<double> a = random_matrix(m, m, 5);
         const auto um = static_cast<std::size_t>(m);
         std::vector<double> dg(um), e(um - 1), tauq(um), taup(um);
         FtReport rep;
         ft_gebrd(d, a.view(), vec(dg), vec(e), vec(tauq), vec(taup),
                  {.nb = 16, .threshold = thr, .final_sweep = false}, &inj, &rep);
         return rep;
       }},
  };
  for (const Code& code : codes) {
    fault::Injector inj(spec);
    const FtReport rep = code.run(dev, n, lax, inj);
    EXPECT_EQ(rep.detections, 0) << code.name;
    EXPECT_EQ(rep.threshold, lax) << code.name;
  }
}

TEST(Robustness, SameDeviceReusedAcrossManyRuns) {
  // Device state (memory accounting, stream) must be clean across runs.
  hybrid::Device dev;
  for (int rep = 0; rep < 8; ++rep) {
    const index_t n = 48 + 8 * rep;
    Matrix<double> a = random_matrix(n, n, 10 + static_cast<std::uint64_t>(rep));
    std::vector<double> tau(static_cast<std::size_t>(n - 1));
    ft_gehrd(dev, a.view(), vec(tau), {.nb = 16});
  }
  EXPECT_EQ(dev.bytes_in_use(), 0u);
  EXPECT_GT(dev.peak_bytes(), 0u);
}

TEST(Robustness, ZeroMatrixFactorizes) {
  hybrid::Device dev;
  const index_t n = 32;
  Matrix<double> a(n, n);  // all zeros
  std::vector<double> tau(static_cast<std::size_t>(n - 1));
  FtReport rep;
  EXPECT_NO_THROW(ft_gehrd(dev, a.view(), vec(tau), {.nb = 8}, nullptr, &rep));
  EXPECT_EQ(rep.detections, 0);
  EXPECT_EQ(norm_max(a.cview()), 0.0);
}

TEST(Robustness, IdentityMatrixFactorizes) {
  hybrid::Device dev;
  const index_t n = 32;
  Matrix<double> a(n, n);
  set_identity(a.view());
  std::vector<double> tau(static_cast<std::size_t>(n - 1));
  ft_gehrd(dev, a.view(), vec(tau), {.nb = 8});
  for (double t : tau) EXPECT_EQ(t, 0.0);  // already Hessenberg: trivial reflectors
  for (index_t i = 0; i < n; ++i) EXPECT_EQ(a(i, i), 1.0);
}

}  // namespace
}  // namespace fth::ft
