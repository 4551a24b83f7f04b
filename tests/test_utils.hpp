// Shared helpers for the test suite.
#pragma once

#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "la/matrix.hpp"
#include "obs/trace.hpp"

namespace fth::test {

/// Wrap a std::vector as a VectorView.
inline VectorView<double> vec(std::vector<double>& v) {
  return VectorView<double>(v.data(), static_cast<index_t>(v.size()));
}
inline VectorView<const double> cvec(const std::vector<double>& v) {
  return VectorView<const double>(v.data(), static_cast<index_t>(v.size()));
}

/// Reference (naive triple-loop) GEMM for validation.
inline Matrix<double> ref_gemm(Trans ta, Trans tb, double alpha, MatrixView<const double> a,
                               MatrixView<const double> b, double beta,
                               MatrixView<const double> c) {
  Matrix<double> out(c);
  const index_t m = c.rows();
  const index_t n = c.cols();
  const index_t k = (ta == Trans::No) ? a.cols() : a.rows();
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i < m; ++i) {
      double acc = 0.0;
      for (index_t l = 0; l < k; ++l) {
        const double av = ta == Trans::No ? a(i, l) : a(l, i);
        const double bv = tb == Trans::No ? b(l, j) : b(j, l);
        acc += av * bv;
      }
      out(i, j) = alpha * acc + beta * c(i, j);
    }
  }
  return out;
}

/// Dense representation of an elementary reflector I − tau·v·vᵀ.
inline Matrix<double> reflector_matrix(VectorView<const double> v, double tau) {
  const index_t n = v.size();
  Matrix<double> h(n, n);
  set_identity(h.view());
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < n; ++i) h(i, j) -= tau * v[i] * v[j];
  return h;
}

/// EXPECT all elements of two matrices to agree within tol.
inline void expect_matrix_near(MatrixView<const double> a, MatrixView<const double> b,
                               double tol, const char* what = "") {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  for (index_t j = 0; j < a.cols(); ++j)
    for (index_t i = 0; i < a.rows(); ++i)
      ASSERT_NEAR(a(i, j), b(i, j), tol) << what << " at (" << i << "," << j << ")";
}

/// Stops the flight ring that `FTH_FLIGHT` armed for the whole process (CI
/// runs the suite that way) for the lifetime of the guard, then re-arms it
/// with the environment's capacity — so a test can assert on the state with
/// every sink off, and the tests after it still record.
class PauseEnvFlight {
 public:
  PauseEnvFlight() { obs::flight_stop(); }
  ~PauseEnvFlight() {
    const char* env = std::getenv("FTH_FLIGHT");
    const long n = env != nullptr ? std::strtol(env, nullptr, 10) : 0;
    if (n > 0) obs::flight_start(static_cast<std::size_t>(n));
  }
  PauseEnvFlight(const PauseEnvFlight&) = delete;
  PauseEnvFlight& operator=(const PauseEnvFlight&) = delete;
};

}  // namespace fth::test
