// Level-3 BLAS: matrix-matrix kernels (gemm, trmm, trsm, syrk).
//
// gemm is the workhorse of both the baseline and the fault-tolerant
// Hessenberg reduction; it is implemented with the classic Goto-style
// three-level cache blocking (pack A panel, pack B panel, register-tiled
// micro-kernel) into per-thread pack buffers. Everything else is a
// straightforward reference kernel. All kernels here are serial; the
// simulated device spreads them over its thread team in hybrid/dev_blas.cpp.
#pragma once

#include <vector>

#include "common/error.hpp"
#include "common/flops.hpp"
#include "la/matrix.hpp"

namespace fth::blas {

namespace detail {

// Cache-blocking parameters (doubles; conservative, fit typical L1/L2).
inline constexpr index_t kMC = 128;
inline constexpr index_t kKC = 256;
inline constexpr index_t kNC = 1024;
inline constexpr index_t kMR = 4;
inline constexpr index_t kNR = 8;

/// Element accessor honouring an optional transpose of op(X) (i, j).
template <class T>
inline T op_at(const MatrixView<const T>& x, Trans t, index_t i, index_t j) {
  return t == Trans::No ? x(i, j) : x(j, i);
}

/// Pack op(A)(i0:i0+mb, k0:k0+kb) into row-panels of height kMR.
template <class T>
void pack_a(const MatrixView<const T>& a, Trans ta, index_t i0, index_t k0, index_t mb,
            index_t kb, T* buf) {
  for (index_t ip = 0; ip < mb; ip += kMR) {
    const index_t mr = std::min(kMR, mb - ip);
    for (index_t k = 0; k < kb; ++k) {
      for (index_t i = 0; i < mr; ++i) *buf++ = op_at(a, ta, i0 + ip + i, k0 + k);
      for (index_t i = mr; i < kMR; ++i) *buf++ = T{0};
    }
  }
}

/// Pack op(B)(k0:k0+kb, j0:j0+nb) into column-panels of width kNR.
template <class T>
void pack_b(const MatrixView<const T>& b, Trans tb, index_t k0, index_t j0, index_t kb,
            index_t nb, T* buf) {
  for (index_t jp = 0; jp < nb; jp += kNR) {
    const index_t nr = std::min(kNR, nb - jp);
    for (index_t k = 0; k < kb; ++k) {
      for (index_t j = 0; j < nr; ++j) *buf++ = op_at(b, tb, k0 + k, j0 + jp + j);
      for (index_t j = nr; j < kNR; ++j) *buf++ = T{0};
    }
  }
}

/// kMR×kNR register-tiled micro-kernel: C(0:mr,0:nr) += alpha · Ap·Bp.
template <class T>
void micro_kernel(index_t kb, T alpha, const T* ap, const T* bp, MatrixView<T>& c, index_t i0,
                  index_t j0, index_t mr, index_t nr) {
  T acc[kMR][kNR] = {};
  for (index_t k = 0; k < kb; ++k) {
    const T* arow = ap + k * kMR;
    const T* brow = bp + k * kNR;
    for (index_t i = 0; i < kMR; ++i) {
      const T ai = arow[i];
      for (index_t j = 0; j < kNR; ++j) acc[i][j] += ai * brow[j];
    }
  }
  T* cd = c.data();
  const index_t ldc = c.ld();
  for (index_t j = 0; j < nr; ++j)
    for (index_t i = 0; i < mr; ++i) cd[(i0 + i) + (j0 + j) * ldc] += alpha * acc[i][j];
}

/// Pack buffers of the blocked path, one pair per thread (so one per device
/// team member), grown to the largest block the thread has packed and then
/// reused. Never cleared: pack_a/pack_b write every element the
/// micro-kernel reads, padding included.
template <class T>
struct PackBuffers {
  std::vector<T> a;
  std::vector<T> b;

  static PackBuffers& local() {
    thread_local PackBuffers buffers;
    return buffers;
  }
  static T* reserve(std::vector<T>& v, index_t n) {
    if (v.size() < static_cast<std::size_t>(n)) v.resize(static_cast<std::size_t>(n));
    return v.data();
  }
};

inline index_t round_up(index_t x, index_t step) { return (x + step - 1) / step * step; }

/// m·n·k below which gemm uses gemm_naive (no packing).
inline constexpr double kGemmNaiveWork = 32.0 * 32.0 * 32.0;

/// Whether gemm computes an m×n×k product with gemm_naive.
inline bool gemm_is_small(index_t m, index_t n, index_t k) {
  return static_cast<double>(m) * static_cast<double>(n) * static_cast<double>(k) <
         kGemmNaiveWork;
}

/// Naive triple loop for small problems (avoids packing overhead).
template <class T>
void gemm_naive(Trans ta, Trans tb, T alpha, MatrixView<const T> a, MatrixView<const T> b,
                MatrixView<T> c) {
  const index_t m = c.rows();
  const index_t n = c.cols();
  const index_t k = (ta == Trans::No) ? a.cols() : a.rows();
  for (index_t j = 0; j < n; ++j) {
    for (index_t l = 0; l < k; ++l) {
      const T blj = alpha * op_at(b, tb, l, j);
      if (blj == T{0}) continue;
      if (ta == Trans::No) {
        const T* acol = a.data() + l * a.ld();
        T* ccol = c.data() + j * c.ld();
        for (index_t i = 0; i < m; ++i) ccol[i] += acol[i] * blj;
      } else {
        T* ccol = c.data() + j * c.ld();
        for (index_t i = 0; i < m; ++i) ccol[i] += a(l, i) * blj;
      }
    }
  }
}

/// gemm's arithmetic without the shape check and the FLOP count, with the
/// naive-or-blocked choice passed in. A tile of a larger product that
/// passes the whole product's choice computes every element of C by the
/// same operations in the same order as the whole call: the blocked path's
/// result for C(i, j) depends only on row i of op(A), column j of op(B) and
/// the kKC split of k, not on where the tile starts.
template <class T>
void gemm_body(Trans ta, Trans tb, T alpha, MatrixView<const T> a, MatrixView<const T> b,
               T beta, MatrixView<T> c, bool small) {
  const index_t m = c.rows();
  const index_t n = c.cols();
  const index_t k = (ta == Trans::No) ? a.cols() : a.rows();

  // beta-scale C first so the accumulation path is uniform.
  if (beta == T{0}) {
    fill(c, T{0});
  } else if (beta != T{1}) {
    for (index_t j = 0; j < n; ++j) {
      T* col = c.data() + j * c.ld();
      for (index_t i = 0; i < m; ++i) col[i] *= beta;
    }
  }
  if (alpha == T{0} || m == 0 || n == 0 || k == 0) return;
  if (small) {
    gemm_naive(ta, tb, alpha, a, b, c);
    return;
  }

  auto& pack = PackBuffers<T>::local();
  const index_t kb_max = std::min(kKC, k);
  T* apack = PackBuffers<T>::reserve(pack.a, round_up(std::min(kMC, m), kMR) * kb_max);
  T* bpack = PackBuffers<T>::reserve(pack.b, kb_max * round_up(std::min(kNC, n), kNR));

  for (index_t jc = 0; jc < n; jc += kNC) {
    const index_t nb = std::min(kNC, n - jc);
    for (index_t kc = 0; kc < k; kc += kKC) {
      const index_t kb = std::min(kKC, k - kc);
      pack_b(b, tb, kc, jc, kb, nb, bpack);
      for (index_t ic = 0; ic < m; ic += kMC) {
        const index_t mb = std::min(kMC, m - ic);
        pack_a(a, ta, ic, kc, mb, kb, apack);
        for (index_t jr = 0; jr < nb; jr += kNR) {
          const index_t nr = std::min(kNR, nb - jr);
          const T* bp = bpack + (jr / kNR) * kb * kNR;
          for (index_t ir = 0; ir < mb; ir += kMR) {
            const index_t mr = std::min(kMR, mb - ir);
            const T* ap = apack + (ir / kMR) * kb * kMR;
            micro_kernel(kb, alpha, ap, bp, c, ic + ir, jc + jr, mr, nr);
          }
        }
      }
    }
  }
}

}  // namespace detail

/// gemm: C ← alpha·op(A)·op(B) + beta·C.
template <class T>
void gemm(Trans ta, Trans tb, T alpha, MatrixView<const T> a, MatrixView<const T> b, T beta,
          MatrixView<T> c) {
  const index_t m = c.rows();
  const index_t n = c.cols();
  const index_t k = (ta == Trans::No) ? a.cols() : a.rows();
  {
    const index_t am = (ta == Trans::No) ? a.rows() : a.cols();
    const index_t bk = (tb == Trans::No) ? b.rows() : b.cols();
    const index_t bn = (tb == Trans::No) ? b.cols() : b.rows();
    FTH_CHECK(am == m && bk == k && bn == n, "gemm dimension mismatch");
  }
  detail::gemm_body(ta, tb, alpha, a, b, beta, c, detail::gemm_is_small(m, n, k));
  flops::add(flops::gemm(m, n, k));
}

/// trmm: B ← alpha·op(A)·B (Side::Left) or alpha·B·op(A) (Side::Right),
/// with A triangular.
template <class T>
void trmm(Side side, Uplo uplo, Trans trans, Diag diag, T alpha, MatrixView<const T> a,
          MatrixView<T> b) {
  const index_t m = b.rows();
  const index_t n = b.cols();
  const index_t na = (side == Side::Left) ? m : n;
  FTH_CHECK(a.rows() == na && a.cols() == na, "trmm dimension mismatch");
  const bool unit = diag == Diag::Unit;
  const bool lower = uplo == Uplo::Lower;

  if (side == Side::Left) {
    // B(:,j) ← alpha·op(A)·B(:,j), column by column via trmv semantics.
    for (index_t j = 0; j < n; ++j) {
      if (trans == Trans::No) {
        if (lower) {
          for (index_t i = m - 1; i >= 0; --i) {
            T acc = unit ? b(i, j) : a(i, i) * b(i, j);
            for (index_t l = 0; l < i; ++l) acc += a(i, l) * b(l, j);
            b(i, j) = alpha * acc;
          }
        } else {
          for (index_t i = 0; i < m; ++i) {
            T acc = unit ? b(i, j) : a(i, i) * b(i, j);
            for (index_t l = i + 1; l < m; ++l) acc += a(i, l) * b(l, j);
            b(i, j) = alpha * acc;
          }
        }
      } else {
        if (lower) {
          for (index_t i = 0; i < m; ++i) {
            T acc = unit ? b(i, j) : a(i, i) * b(i, j);
            for (index_t l = i + 1; l < m; ++l) acc += a(l, i) * b(l, j);
            b(i, j) = alpha * acc;
          }
        } else {
          for (index_t i = m - 1; i >= 0; --i) {
            T acc = unit ? b(i, j) : a(i, i) * b(i, j);
            for (index_t l = 0; l < i; ++l) acc += a(l, i) * b(l, j);
            b(i, j) = alpha * acc;
          }
        }
      }
    }
  } else {
    // Right side: B ← alpha·B·op(A). Process column blocks of the result.
    // new B(:,j) = alpha Σ_l B(:,l) · op(A)(l,j).
    const bool effective_lower = (trans == Trans::No) ? lower : !lower;
    if (effective_lower) {
      // op(A) lower triangular: result column j uses source columns l >= j,
      // sweep left-to-right so sources are unmodified when read.
      for (index_t j = 0; j < n; ++j) {
        for (index_t i = 0; i < m; ++i) {
          const T d = unit ? T{1} : detail::op_at(a, trans, j, j);
          T acc = b(i, j) * d;
          for (index_t l = j + 1; l < n; ++l) acc += b(i, l) * detail::op_at(a, trans, l, j);
          b(i, j) = alpha * acc;
        }
      }
    } else {
      // op(A) upper triangular: column j uses source columns l <= j,
      // sweep right-to-left.
      for (index_t j = n - 1; j >= 0; --j) {
        for (index_t i = 0; i < m; ++i) {
          const T d = unit ? T{1} : detail::op_at(a, trans, j, j);
          T acc = b(i, j) * d;
          for (index_t l = 0; l < j; ++l) acc += b(i, l) * detail::op_at(a, trans, l, j);
          b(i, j) = alpha * acc;
        }
      }
    }
  }
  flops::add(static_cast<std::uint64_t>(m) * n * na);
}

/// trsm: solve op(A)·X = alpha·B (Side::Left) or X·op(A) = alpha·B
/// (Side::Right) with A triangular; X overwrites B.
template <class T>
void trsm(Side side, Uplo uplo, Trans trans, Diag diag, T alpha, MatrixView<const T> a,
          MatrixView<T> b) {
  const index_t m = b.rows();
  const index_t n = b.cols();
  const index_t na = (side == Side::Left) ? m : n;
  FTH_CHECK(a.rows() == na && a.cols() == na, "trsm dimension mismatch");
  const bool unit = diag == Diag::Unit;

  if (alpha != T{1}) {
    for (index_t j = 0; j < n; ++j)
      for (index_t i = 0; i < m; ++i) b(i, j) *= alpha;
  }

  if (side == Side::Left) {
    const bool forward = (uplo == Uplo::Lower) == (trans == Trans::No);
    for (index_t j = 0; j < n; ++j) {
      if (forward) {
        for (index_t i = 0; i < m; ++i) {
          T acc = b(i, j);
          for (index_t l = 0; l < i; ++l) acc -= detail::op_at(a, trans, i, l) * b(l, j);
          b(i, j) = unit ? acc : acc / detail::op_at(a, trans, i, i);
        }
      } else {
        for (index_t i = m - 1; i >= 0; --i) {
          T acc = b(i, j);
          for (index_t l = i + 1; l < m; ++l) acc -= detail::op_at(a, trans, i, l) * b(l, j);
          b(i, j) = unit ? acc : acc / detail::op_at(a, trans, i, i);
        }
      }
    }
  } else {
    // X·op(A) = B  ⇒ column j of X solved once columns feeding it are done.
    const bool effective_upper = (uplo == Uplo::Upper) == (trans == Trans::No);
    if (effective_upper) {
      for (index_t j = 0; j < n; ++j) {
        for (index_t l = 0; l < j; ++l) {
          const T alj = detail::op_at(a, trans, l, j);
          if (alj == T{0}) continue;
          for (index_t i = 0; i < m; ++i) b(i, j) -= b(i, l) * alj;
        }
        if (!unit) {
          const T d = detail::op_at(a, trans, j, j);
          for (index_t i = 0; i < m; ++i) b(i, j) /= d;
        }
      }
    } else {
      for (index_t j = n - 1; j >= 0; --j) {
        for (index_t l = j + 1; l < n; ++l) {
          const T alj = detail::op_at(a, trans, l, j);
          if (alj == T{0}) continue;
          for (index_t i = 0; i < m; ++i) b(i, j) -= b(i, l) * alj;
        }
        if (!unit) {
          const T d = detail::op_at(a, trans, j, j);
          for (index_t i = 0; i < m; ++i) b(i, j) /= d;
        }
      }
    }
  }
  flops::add(static_cast<std::uint64_t>(m) * n * na);
}

namespace detail {

/// Column-block width of syr2k's blocked path.
inline constexpr index_t kSyr2kBlock = 64;

/// Whether syr2k takes its blocked path: the shape the tridiagonal
/// reduction uses (No-trans), blocked into diagonal triangles (naive) +
/// off-diagonal rectangles (two gemms each, reusing the cache-blocked
/// kernel).
inline bool syr2k_is_blocked(Trans trans, index_t n) { return trans == Trans::No && n >= 32; }

/// Columns [j0, j0 + kSyr2kBlock) of syr2k's blocked path. The blocks
/// write disjoint columns of C, so they may run in any order.
template <class T>
void syr2k_column_block(Uplo uplo, T alpha, MatrixView<const T> a, MatrixView<const T> b,
                        T beta, MatrixView<T> c, index_t j0) {
  const index_t n = c.rows();
  const index_t k = a.cols();
  const index_t jb = std::min(kSyr2kBlock, n - j0);
  // Diagonal block: the referenced triangle only.
  for (index_t j = j0; j < j0 + jb; ++j) {
    const index_t ilo = (uplo == Uplo::Lower) ? j : j0;
    const index_t ihi = (uplo == Uplo::Lower) ? j0 + jb : j + 1;
    for (index_t i = ilo; i < ihi; ++i) {
      T acc{};
      for (index_t l = 0; l < k; ++l) acc += a(i, l) * b(j, l) + b(i, l) * a(j, l);
      c(i, j) = alpha * acc + (beta == T{0} ? T{0} : beta * c(i, j));
    }
  }
  // Off-diagonal rectangle: full gemm pair.
  const index_t ri = (uplo == Uplo::Lower) ? j0 + jb : 0;
  const index_t rm = (uplo == Uplo::Lower) ? n - j0 - jb : j0;
  if (rm > 0) {
    auto cblk = c.block(ri, j0, rm, jb);
    gemm(Trans::No, Trans::Yes, alpha, a.block(ri, 0, rm, k), b.block(j0, 0, jb, k), beta,
         cblk);
    gemm(Trans::No, Trans::Yes, alpha, b.block(ri, 0, rm, k), a.block(j0, 0, jb, k), T{1},
         cblk);
  }
}

}  // namespace detail

/// syr2k: C ← alpha·(A·Bᵀ + B·Aᵀ) + beta·C (Trans::No; Trans::Yes swaps the
/// transposes), updating only the `uplo` triangle of C. The trailing update
/// of the blocked tridiagonal reduction (A −= V·Wᵀ + W·Vᵀ).
template <class T>
void syr2k(Uplo uplo, Trans trans, T alpha, MatrixView<const T> a, MatrixView<const T> b,
           T beta, MatrixView<T> c) {
  const index_t n = c.rows();
  FTH_CHECK(c.cols() == n, "syr2k requires square C");
  const index_t k = (trans == Trans::No) ? a.cols() : a.rows();
  const index_t an = (trans == Trans::No) ? a.rows() : a.cols();
  const index_t bn = (trans == Trans::No) ? b.rows() : b.cols();
  const index_t bk = (trans == Trans::No) ? b.cols() : b.rows();
  FTH_CHECK(an == n && bn == n && bk == k, "syr2k dimension mismatch");

  if (detail::syr2k_is_blocked(trans, n)) {
    for (index_t j0 = 0; j0 < n; j0 += detail::kSyr2kBlock)
      detail::syr2k_column_block(uplo, alpha, a, b, beta, c, j0);
    return;  // gemm accounted its own FLOPs; the triangles are O(n·cb·k) extra
  }

  for (index_t j = 0; j < n; ++j) {
    const index_t ilo = (uplo == Uplo::Lower) ? j : 0;
    const index_t ihi = (uplo == Uplo::Lower) ? n : j + 1;
    for (index_t i = ilo; i < ihi; ++i) {
      T acc{};
      for (index_t l = 0; l < k; ++l) {
        acc += detail::op_at(a, trans, i, l) * detail::op_at(b, trans, j, l) +
               detail::op_at(b, trans, i, l) * detail::op_at(a, trans, j, l);
      }
      c(i, j) = alpha * acc + (beta == T{0} ? T{0} : beta * c(i, j));
    }
  }
  flops::add(2ull * static_cast<std::uint64_t>(n) * n * k);
}

/// syrk: C ← alpha·A·Aᵀ + beta·C (Trans::No) or alpha·Aᵀ·A + beta·C,
/// updating only the `uplo` triangle of C.
template <class T>
void syrk(Uplo uplo, Trans trans, T alpha, MatrixView<const T> a, T beta, MatrixView<T> c) {
  const index_t n = c.rows();
  FTH_CHECK(c.cols() == n, "syrk requires square C");
  const index_t k = (trans == Trans::No) ? a.cols() : a.rows();
  const index_t an = (trans == Trans::No) ? a.rows() : a.cols();
  FTH_CHECK(an == n, "syrk dimension mismatch");

  for (index_t j = 0; j < n; ++j) {
    const index_t ilo = (uplo == Uplo::Lower) ? j : 0;
    const index_t ihi = (uplo == Uplo::Lower) ? n : j + 1;
    for (index_t i = ilo; i < ihi; ++i) {
      T acc{};
      for (index_t l = 0; l < k; ++l)
        acc += detail::op_at(a, trans, i, l) * detail::op_at(a, trans, j, l);
      c(i, j) = alpha * acc + (beta == T{0} ? T{0} : beta * c(i, j));
    }
  }
  flops::add(static_cast<std::uint64_t>(n) * n * k);
}

}  // namespace fth::blas
