// Level-2 BLAS: matrix-vector kernels (gemv, ger, trmv, trsv).
#pragma once

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/flops.hpp"
#include "la/matrix.hpp"

namespace fth::blas {

/// gemv: y ← alpha·op(A)·x + beta·y.
template <class T>
void gemv(Trans trans, T alpha, MatrixView<const T> a, VectorView<const T> x, T beta,
          VectorView<T> y) {
  const index_t m = a.rows();
  const index_t n = a.cols();
  if (trans == Trans::No) {
    FTH_CHECK(x.size() == n && y.size() == m, "gemv dimension mismatch");
  } else {
    FTH_CHECK(x.size() == m && y.size() == n, "gemv dimension mismatch");
  }

  if (beta == T{0}) {
    for (index_t i = 0; i < y.size(); ++i) y[i] = T{0};
  } else if (beta != T{1}) {
    for (index_t i = 0; i < y.size(); ++i) y[i] *= beta;
  }
  if (alpha == T{0} || m == 0 || n == 0) return;

  const T* ad = a.data();
  const index_t ld = a.ld();
  if (trans == Trans::No) {
    // Column-sweep: y += alpha * x[j] * A(:,j). Unit-stride on A and y.
    if (y.inc() == 1) {
      T* yd = y.data();
      for (index_t j = 0; j < n; ++j) {
        const T axj = alpha * x[j];
        if (axj == T{0}) continue;
        const T* col = ad + j * ld;
        for (index_t i = 0; i < m; ++i) yd[i] += axj * col[i];
      }
    } else {
      for (index_t j = 0; j < n; ++j) {
        const T axj = alpha * x[j];
        if (axj == T{0}) continue;
        const T* col = ad + j * ld;
        for (index_t i = 0; i < m; ++i) y[i] += axj * col[i];
      }
    }
  } else {
    // y[j] += alpha * A(:,j)ᵀ x. Unit-stride dot along each column.
    if (x.inc() == 1) {
      const T* xd = x.data();
      for (index_t j = 0; j < n; ++j) {
        const T* col = ad + j * ld;
        T acc{};
        for (index_t i = 0; i < m; ++i) acc += col[i] * xd[i];
        y[j] += alpha * acc;
      }
    } else {
      for (index_t j = 0; j < n; ++j) {
        const T* col = ad + j * ld;
        T acc{};
        for (index_t i = 0; i < m; ++i) acc += col[i] * x[i];
        y[j] += alpha * acc;
      }
    }
  }
  flops::add(flops::gemv(m, n));
}

/// ger: A ← alpha·x·yᵀ + A.
template <class T>
void ger(T alpha, VectorView<const T> x, VectorView<const T> y, MatrixView<T> a) {
  FTH_CHECK(x.size() == a.rows() && y.size() == a.cols(), "ger dimension mismatch");
  if (alpha == T{0}) return;
  T* ad = a.data();
  const index_t ld = a.ld();
  const index_t m = a.rows();
  for (index_t j = 0; j < a.cols(); ++j) {
    const T ayj = alpha * y[j];
    if (ayj == T{0}) continue;
    T* col = ad + j * ld;
    if (x.inc() == 1) {
      const T* xd = x.data();
      for (index_t i = 0; i < m; ++i) col[i] += xd[i] * ayj;
    } else {
      for (index_t i = 0; i < m; ++i) col[i] += x[i] * ayj;
    }
  }
  flops::add(flops::gemv(a.rows(), a.cols()));
}

/// symv: y ← alpha·A·x + beta·y with A symmetric, only the `uplo` triangle
/// referenced (the other triangle is implied by symmetry and never read).
///
/// Every product-accumulate is an explicit std::fma, so each element's
/// rounding is fixed by the source rather than by how the compiler
/// vectorizes a loop: detail::symv_rows, which a device team uses to compute
/// y in row blocks with a different loop structure, is bit-identical.
template <class T>
void symv(Uplo uplo, T alpha, MatrixView<const T> a, VectorView<const T> x, T beta,
          VectorView<T> y) {
  const index_t n = a.rows();
  FTH_CHECK(a.cols() == n, "symv requires a square matrix");
  FTH_CHECK(x.size() == n && y.size() == n, "symv dimension mismatch");

  if (beta == T{0}) {
    for (index_t i = 0; i < n; ++i) y[i] = T{0};
  } else if (beta != T{1}) {
    for (index_t i = 0; i < n; ++i) y[i] *= beta;
  }
  if (alpha == T{0} || n == 0) return;

  // Column sweep touching each stored element once: the stored (i, j)
  // contributes to y[i] (as A(i,j)·x[j]) and to y[j] (as A(j,i)·x[i]).
  // detail::symv_rows(…, 0, n) gives the same bits but reads each column
  // twice: as the serial symv it lowered perfbench family-n384 (sytrd and
  // gebrd) base_gflops from 2.65 to 2.26 GF/s on a 4-vCPU Xeon.
  if (uplo == Uplo::Lower) {
    for (index_t j = 0; j < n; ++j) {
      const T axj = alpha * x[j];
      T acc{};
      y[j] = std::fma(axj, a(j, j), y[j]);
      for (index_t i = j + 1; i < n; ++i) {
        const T aij = a(i, j);
        y[i] = std::fma(axj, aij, y[i]);
        acc = std::fma(aij, x[i], acc);
      }
      y[j] = std::fma(alpha, acc, y[j]);
    }
  } else {
    for (index_t j = 0; j < n; ++j) {
      const T axj = alpha * x[j];
      T acc{};
      for (index_t i = 0; i < j; ++i) {
        const T aij = a(i, j);
        y[i] = std::fma(axj, aij, y[i]);
        acc = std::fma(aij, x[i], acc);
      }
      y[j] += std::fma(axj, a(j, j), alpha * acc);
    }
  }
  flops::add(2ull * static_cast<std::uint64_t>(n) * static_cast<std::uint64_t>(n));
}

namespace detail {

/// Rows [r0, r1) of symv's result, bit-identical to blas::symv's: row i
/// receives the same fused terms in the same order — the stored entries
/// left of (Lower) or right of (Upper) the diagonal in column order, and
/// its own diagonal and column dot product at step j = i. Each block reads
/// its row strip and its column strip of the stored triangle. Counts no
/// FLOPs.
template <class T>
void symv_rows(Uplo uplo, T alpha, MatrixView<const T> a, VectorView<const T> x, T beta,
               VectorView<T> y, index_t r0, index_t r1) {
  const index_t n = a.rows();
  if (beta == T{0}) {
    for (index_t i = r0; i < r1; ++i) y[i] = T{0};
  } else if (beta != T{1}) {
    for (index_t i = r0; i < r1; ++i) y[i] *= beta;
  }
  if (alpha == T{0} || n == 0) return;
  if (uplo == Uplo::Lower) {
    for (index_t j = 0; j < r1; ++j) {
      const T axj = alpha * x[j];
      if (j >= r0) y[j] = std::fma(axj, a(j, j), y[j]);
      for (index_t i = std::max(j + 1, r0); i < r1; ++i) y[i] = std::fma(axj, a(i, j), y[i]);
      if (j >= r0) {
        T acc{};
        for (index_t i = j + 1; i < n; ++i) acc = std::fma(a(i, j), x[i], acc);
        y[j] = std::fma(alpha, acc, y[j]);
      }
    }
  } else {
    for (index_t j = r0; j < n; ++j) {
      const T axj = alpha * x[j];
      if (j < r1) {
        T acc{};
        for (index_t i = 0; i < j; ++i) acc = std::fma(a(i, j), x[i], acc);
        y[j] += std::fma(axj, a(j, j), alpha * acc);
      }
      for (index_t i = r0; i < std::min(j, r1); ++i) y[i] = std::fma(axj, a(i, j), y[i]);
    }
  }
}

}  // namespace detail

/// syr2: A ← alpha·(x·yᵀ + y·xᵀ) + A, updating only the `uplo` triangle.
template <class T>
void syr2(Uplo uplo, T alpha, VectorView<const T> x, VectorView<const T> y,
          MatrixView<T> a) {
  const index_t n = a.rows();
  FTH_CHECK(a.cols() == n, "syr2 requires a square matrix");
  FTH_CHECK(x.size() == n && y.size() == n, "syr2 dimension mismatch");
  if (alpha == T{0}) return;
  for (index_t j = 0; j < n; ++j) {
    const T axj = alpha * x[j];
    const T ayj = alpha * y[j];
    const index_t ilo = uplo == Uplo::Lower ? j : 0;
    const index_t ihi = uplo == Uplo::Lower ? n : j + 1;
    for (index_t i = ilo; i < ihi; ++i) a(i, j) += x[i] * ayj + y[i] * axj;
  }
  flops::add(2ull * static_cast<std::uint64_t>(n) * static_cast<std::uint64_t>(n));
}

/// trmv: x ← op(A)·x with A triangular.
template <class T>
void trmv(Uplo uplo, Trans trans, Diag diag, MatrixView<const T> a, VectorView<T> x) {
  const index_t n = a.rows();
  FTH_CHECK(a.cols() == n, "trmv requires a square matrix");
  FTH_CHECK(x.size() == n, "trmv dimension mismatch");
  const bool unit = diag == Diag::Unit;
  const bool lower = uplo == Uplo::Lower;

  if (trans == Trans::No) {
    if (lower) {
      // x_i depends on x_0..x_i: sweep bottom-up.
      for (index_t i = n - 1; i >= 0; --i) {
        T acc = unit ? x[i] : a(i, i) * x[i];
        for (index_t j = 0; j < i; ++j) acc += a(i, j) * x[j];
        x[i] = acc;
      }
    } else {
      for (index_t i = 0; i < n; ++i) {
        T acc = unit ? x[i] : a(i, i) * x[i];
        for (index_t j = i + 1; j < n; ++j) acc += a(i, j) * x[j];
        x[i] = acc;
      }
    }
  } else {
    if (lower) {
      // (Aᵀx)_i = Σ_{k>=i} A(k,i) x_k: sweep top-down.
      for (index_t i = 0; i < n; ++i) {
        T acc = unit ? x[i] : a(i, i) * x[i];
        for (index_t k = i + 1; k < n; ++k) acc += a(k, i) * x[k];
        x[i] = acc;
      }
    } else {
      for (index_t i = n - 1; i >= 0; --i) {
        T acc = unit ? x[i] : a(i, i) * x[i];
        for (index_t k = 0; k < i; ++k) acc += a(k, i) * x[k];
        x[i] = acc;
      }
    }
  }
  flops::add(static_cast<std::uint64_t>(n) * static_cast<std::uint64_t>(n));
}

/// trsv: solve op(A)·x = b in place (x ← op(A)⁻¹·x) with A triangular.
template <class T>
void trsv(Uplo uplo, Trans trans, Diag diag, MatrixView<const T> a, VectorView<T> x) {
  const index_t n = a.rows();
  FTH_CHECK(a.cols() == n, "trsv requires a square matrix");
  FTH_CHECK(x.size() == n, "trsv dimension mismatch");
  const bool unit = diag == Diag::Unit;
  const bool lower = (uplo == Uplo::Lower) == (trans == Trans::No);

  if (trans == Trans::No) {
    if (lower) {
      for (index_t i = 0; i < n; ++i) {
        T acc = x[i];
        for (index_t j = 0; j < i; ++j) acc -= a(i, j) * x[j];
        x[i] = unit ? acc : acc / a(i, i);
      }
    } else {
      for (index_t i = n - 1; i >= 0; --i) {
        T acc = x[i];
        for (index_t j = i + 1; j < n; ++j) acc -= a(i, j) * x[j];
        x[i] = unit ? acc : acc / a(i, i);
      }
    }
  } else {
    // Solve Aᵀx = b: forward/backward substitution on columns of A.
    if (uplo == Uplo::Upper) {
      for (index_t i = 0; i < n; ++i) {
        T acc = x[i];
        for (index_t k = 0; k < i; ++k) acc -= a(k, i) * x[k];
        x[i] = unit ? acc : acc / a(i, i);
      }
    } else {
      for (index_t i = n - 1; i >= 0; --i) {
        T acc = x[i];
        for (index_t k = i + 1; k < n; ++k) acc -= a(k, i) * x[k];
        x[i] = unit ? acc : acc / a(i, i);
      }
    }
  }
  flops::add(static_cast<std::uint64_t>(n) * static_cast<std::uint64_t>(n));
}

}  // namespace fth::blas
