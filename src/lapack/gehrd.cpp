#include "lapack/gehrd.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "la/blas1.hpp"
#include "la/blas2.hpp"
#include "la/blas3.hpp"
#include "lapack/lahr2_impl.hpp"
#include "lapack/reflectors.hpp"

namespace fth::lapack {

void gehd2(MatrixView<double> a, VectorView<double> tau) {
  const index_t n = a.rows();
  FTH_CHECK(a.cols() == n, "gehd2: matrix must be square");
  FTH_CHECK(tau.size() >= std::max<index_t>(n - 1, 0), "gehd2: tau too short");
  if (n <= 2 && n >= 1) {
    for (index_t i = 0; i + 1 < n; ++i) tau[i] = 0.0;
    // A 1×1 or 2×2 matrix is already Hessenberg; 2×2 still gets tau=0
    // because its single reflector has an empty tail.
    if (n == 2) tau[0] = 0.0;
    return;
  }

  detail::gehd2_from(a, tau, 0);
}

void lahr2(MatrixView<double> a, index_t k, index_t nb, MatrixView<double> t,
           MatrixView<double> y, VectorView<double> tau) {
  const index_t n = a.rows();
  // The big per-column product reads the trailing matrix directly from the
  // host matrix on this path.
  detail::lahr2_panel(a, k, nb, t, y, tau,
                      [&](index_t j, VectorView<const double> vj, VectorView<double> y_col) {
                        const index_t cj = k + j;
                        blas::gemv(Trans::No, 1.0,
                                   MatrixView<const double>(
                                       a.block(k + 1, cj + 1, n - k - 1, n - cj - 1)),
                                   vj, 0.0, y_col);
                      });

  // -- Top block of Y: Y(0:k+1, :) = A(0:k+1, k+1:n)·V·T. -----------------
  const index_t up = k + 1;
  copy(MatrixView<const double>(a.block(0, k + 1, up, nb)), y.block(0, 0, up, nb));
  blas::trmm(Side::Right, Uplo::Lower, Trans::No, Diag::Unit, 1.0,
             MatrixView<const double>(a.block(k + 1, k, nb, nb)), y.block(0, 0, up, nb));
  if (n > k + 1 + nb) {
    blas::gemm(Trans::No, Trans::No, 1.0,
               MatrixView<const double>(a.block(0, k + 1 + nb, up, n - k - 1 - nb)),
               MatrixView<const double>(a.block(k + 1 + nb, k, n - k - 1 - nb, nb)), 1.0,
               y.block(0, 0, up, nb));
  }
  blas::trmm(Side::Right, Uplo::Upper, Trans::No, Diag::NonUnit, 1.0,
             MatrixView<const double>(t.block(0, 0, nb, nb)), y.block(0, 0, up, nb));
}

void gehrd(MatrixView<double> a, VectorView<double> tau, const GehrdOptions& opt) {
  const index_t n = a.rows();
  FTH_CHECK(a.cols() == n, "gehrd: matrix must be square");
  FTH_CHECK(tau.size() >= std::max<index_t>(n - 1, 0), "gehrd: tau too short");
  FTH_CHECK(opt.nb >= 1, "gehrd: block size must be positive");

  const index_t nb = opt.nb;
  const index_t nx = std::max(opt.nx, nb);

  Matrix<double> t(nb, nb);
  Matrix<double> y(n, nb);
  Matrix<double> work(n, nb);

  index_t i = 0;
  // Blocked phase: stop once the remaining problem is small.
  while (n - i > nx + 1) {
    const index_t ib = std::min(nb, n - i - 1);
    lahr2(a, i, ib, t.view(), y.view(), tau.sub(i, ib));

    // Right update of the trailing columns: A(0:n, i+ib:n) −= Y·V2ᵀ.
    // V2 = A(i+ib:n, i:i+ib); its top-right element is the implicit unit of
    // the last panel column, temporarily set to 1 (the LAPACK "EI" trick).
    const double ei = a(i + ib, i + ib - 1);
    a(i + ib, i + ib - 1) = 1.0;
    blas::gemm(Trans::No, Trans::Yes, -1.0,
               MatrixView<const double>(y.block(0, 0, n, ib)),
               MatrixView<const double>(a.block(i + ib, i, n - i - ib, ib)), 1.0,
               a.block(0, i + ib, n, n - i - ib));
    a(i + ib, i + ib - 1) = ei;

    // Right update of the panel's own upper rows:
    // A(0:i+1, i+1:i+ib) −= Y(0:i+1, 0:ib−1)·V1ᵀ (V1 unit lower triangular).
    detail::fix_panel_top_rows(a, y.view(), i, ib);

    // Left update: A(i+1:n, i+ib:n) := Hᵀ·A(i+1:n, i+ib:n).
    larfb(Side::Left, Trans::Yes, Direction::Forward, StoreV::Columnwise,
          MatrixView<const double>(a.block(i + 1, i, n - i - 1, ib)),
          MatrixView<const double>(t.block(0, 0, ib, ib)),
          a.block(i + 1, i + ib, n - i - 1, n - i - ib), work.view());

    i += ib;
  }

  // Unblocked phase on the remaining trailing matrix.
  detail::gehd2_from(a, tau, i);
}

Matrix<double> extract_hessenberg(MatrixView<const double> a_factored) {
  const index_t n = a_factored.rows();
  Matrix<double> h(n, n);
  for (index_t j = 0; j < n; ++j) {
    const index_t last = std::min(j + 1, n - 1);
    for (index_t i = 0; i <= last; ++i) h(i, j) = a_factored(i, j);
  }
  return h;
}

}  // namespace fth::lapack
