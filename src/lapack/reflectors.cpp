#include "lapack/reflectors.hpp"

#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "la/blas1.hpp"
#include "la/blas2.hpp"
#include "la/blas3.hpp"

namespace fth::lapack {

void larfg(double& alpha, VectorView<double> x, double& tau) {
  const index_t n = x.size() + 1;
  if (n <= 1) {
    tau = 0.0;
    return;
  }
  double xnorm = blas::nrm2<double>(x);
  if (xnorm == 0.0) {
    tau = 0.0;  // H = I
    return;
  }

  double beta = -std::copysign(std::hypot(alpha, xnorm), alpha);
  const double safmin = std::numeric_limits<double>::min() /
                        std::numeric_limits<double>::epsilon();
  int scale_count = 0;
  double alpha_s = alpha;
  if (std::abs(beta) < safmin) {
    // xnorm and beta may be inaccurate; scale x and recompute (dlarfg).
    const double rsafmn = 1.0 / safmin;
    do {
      ++scale_count;
      blas::scal(rsafmn, x);
      beta *= rsafmn;
      alpha_s *= rsafmn;
    } while (std::abs(beta) < safmin && scale_count < 20);
    xnorm = blas::nrm2<double>(x);
    beta = -std::copysign(std::hypot(alpha_s, xnorm), alpha_s);
  }
  tau = (beta - alpha_s) / beta;
  blas::scal(1.0 / (alpha_s - beta), x);
  for (int k = 0; k < scale_count; ++k) beta *= safmin;
  alpha = beta;
}

void larf(Side side, VectorView<const double> v, double tau, MatrixView<double> c,
          VectorView<double> work) {
  if (tau == 0.0) return;
  if (side == Side::Left) {
    FTH_CHECK(v.size() == c.rows(), "larf left: v length must equal C rows");
    FTH_CHECK(work.size() >= c.cols(), "larf left: work too small");
    auto w = work.sub(0, c.cols());
    // w := Cᵀ v;  C := C − tau·v·wᵀ
    blas::gemv(Trans::Yes, 1.0, MatrixView<const double>(c), v, 0.0, w);
    blas::ger(-tau, v, VectorView<const double>(w), c);
  } else {
    FTH_CHECK(v.size() == c.cols(), "larf right: v length must equal C cols");
    FTH_CHECK(work.size() >= c.rows(), "larf right: work too small");
    auto w = work.sub(0, c.rows());
    // w := C v;  C := C − tau·w·vᵀ
    blas::gemv(Trans::No, 1.0, MatrixView<const double>(c), v, 0.0, w);
    blas::ger(-tau, VectorView<const double>(w), v, c);
  }
}

void larft(Direction dir, StoreV storev, MatrixView<const double> v,
           VectorView<const double> tau, MatrixView<double> t) {
  FTH_CHECK(dir == Direction::Forward && storev == StoreV::Columnwise,
            "larft: only Forward/Columnwise storage is implemented");
  const index_t m = v.rows();
  const index_t k = v.cols();
  FTH_CHECK(tau.size() == k, "larft: tau length mismatch");
  FTH_CHECK(t.rows() >= k && t.cols() >= k, "larft: T too small");

  for (index_t i = 0; i < k; ++i) {
    if (tau[i] == 0.0) {
      for (index_t j = 0; j < i; ++j) t(j, i) = 0.0;
    } else {
      // T(0:i, i) := −tau(i) · V(i:m, 0:i)ᵀ · V(i:m, i), using the implicit
      // unit V(i,i)=1: the stored row V(i, 0:i) contributes directly.
      for (index_t j = 0; j < i; ++j) t(j, i) = -tau[i] * v(i, j);
      if (m > i + 1) {
        blas::gemv(Trans::Yes, -tau[i], v.block(i + 1, 0, m - i - 1, i),
                   v.block(i + 1, i, m - i - 1, 1).col(0), 1.0, t.block(0, i, i, 1).col(0));
      }
      // T(0:i, i) := T(0:i, 0:i) · T(0:i, i)
      if (i > 0) {
        blas::trmv(Uplo::Upper, Trans::No, Diag::NonUnit,
                   MatrixView<const double>(t.block(0, 0, i, i)), t.block(0, i, i, 1).col(0));
      }
    }
    t(i, i) = tau[i];
  }
}

void larfb(Side side, Trans trans, Direction dir, StoreV storev, MatrixView<const double> v,
           MatrixView<const double> t, MatrixView<double> c, MatrixView<double> work) {
  FTH_CHECK(dir == Direction::Forward && storev == StoreV::Columnwise,
            "larfb: only Forward/Columnwise storage is implemented");
  const index_t k = v.cols();
  if (k == 0 || c.empty()) return;
  FTH_CHECK(t.rows() >= k && t.cols() >= k, "larfb: T too small");

  // Applying H = I − V·T·Vᵀ:   (side L, trans N):  C −= V·(Cᵀ·V·Tᵀ)ᵀ
  //                            (side L, trans T):  C −= V·(Cᵀ·V·T)ᵀ
  //                            (side R, trans N):  C −= (C·V·T)·Vᵀ
  //                            (side R, trans T):  C −= (C·V·Tᵀ)·Vᵀ
  const Trans t_op = (side == Side::Left) == (trans == Trans::No) ? Trans::Yes : Trans::No;

  if (side == Side::Left) {
    const index_t m = c.rows();
    const index_t n = c.cols();
    FTH_CHECK(v.rows() == m, "larfb left: V rows must equal C rows");
    FTH_CHECK(work.rows() >= n && work.cols() >= k, "larfb left: work too small");
    detail::larfb_left_columns(trans, v, t, c, work.block(0, 0, n, k),
                               blas::detail::gemm_is_small(n, k, m - k),
                               blas::detail::gemm_is_small(m - k, n, k));
  } else {
    const index_t m = c.rows();
    const index_t n = c.cols();
    FTH_CHECK(v.rows() == n, "larfb right: V rows must equal C cols");
    FTH_CHECK(work.rows() >= m && work.cols() >= k, "larfb right: work too small");
    auto w = work.block(0, 0, m, k);

    // W := C1 (first k columns of C)
    copy(MatrixView<const double>(c.block(0, 0, m, k)), MatrixView<double>(w));
    // W := W·V1
    blas::trmm(Side::Right, Uplo::Lower, Trans::No, Diag::Unit, 1.0,
               v.block(0, 0, k, k), w);
    // W += C2·V2
    if (n > k) {
      blas::gemm(Trans::No, Trans::No, 1.0,
                 MatrixView<const double>(c.block(0, k, m, n - k)), v.block(k, 0, n - k, k),
                 1.0, w);
    }
    // W := W·op(T)
    blas::trmm(Side::Right, Uplo::Upper, t_op, Diag::NonUnit, 1.0, t.block(0, 0, k, k), w);
    // C2 −= W·V2ᵀ
    if (n > k) {
      blas::gemm(Trans::No, Trans::Yes, -1.0, MatrixView<const double>(w),
                 v.block(k, 0, n - k, k), 1.0, c.block(0, k, m, n - k));
    }
    // W := W·V1ᵀ
    blas::trmm(Side::Right, Uplo::Lower, Trans::Yes, Diag::Unit, 1.0,
               v.block(0, 0, k, k), w);
    // C1 −= W
    for (index_t j = 0; j < k; ++j)
      for (index_t i = 0; i < m; ++i) c(i, j) -= w(i, j);
  }
}

namespace detail {

void larfb_left_columns(Trans trans, MatrixView<const double> v, MatrixView<const double> t,
                        MatrixView<double> c, MatrixView<double> w, bool small_w,
                        bool small_c) {
  const index_t m = c.rows();
  const index_t n = c.cols();
  const index_t k = v.cols();
  const Trans t_op = (trans == Trans::No) ? Trans::Yes : Trans::No;
  const auto v1 = v.block(0, 0, k, k);

  // W := C1ᵀ  (C1 = first k rows of C)
  for (index_t j = 0; j < k; ++j)
    for (index_t i = 0; i < n; ++i) w(i, j) = c(j, i);
  // W := W·V1 (V1 = top k×k unit lower triangle of V)
  blas::trmm(Side::Right, Uplo::Lower, Trans::No, Diag::Unit, 1.0, v1, w);
  // W += C2ᵀ·V2
  if (m > k) {
    blas::detail::gemm_body(Trans::Yes, Trans::No, 1.0,
                            MatrixView<const double>(c.block(k, 0, m - k, n)),
                            v.block(k, 0, m - k, k), 1.0, w, small_w);
    flops::add(flops::gemm(n, k, m - k));
  }
  // W := W·op(T)
  blas::trmm(Side::Right, Uplo::Upper, t_op, Diag::NonUnit, 1.0, t.block(0, 0, k, k), w);
  // C2 −= V2·Wᵀ
  if (m > k) {
    blas::detail::gemm_body(Trans::No, Trans::Yes, -1.0, v.block(k, 0, m - k, k),
                            MatrixView<const double>(w), 1.0, c.block(k, 0, m - k, n),
                            small_c);
    flops::add(flops::gemm(m - k, n, k));
  }
  // W := W·V1ᵀ
  blas::trmm(Side::Right, Uplo::Lower, Trans::Yes, Diag::Unit, 1.0, v1, w);
  // C1 −= Wᵀ
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < k; ++i) c(i, j) -= w(j, i);
}

}  // namespace detail

}  // namespace fth::lapack
