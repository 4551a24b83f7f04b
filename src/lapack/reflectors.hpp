// Householder reflector kernels (LAPACK larfg / larf / larft / larfb).
//
// Conventions (all 0-based):
//  * An elementary reflector is H = I − tau·v·vᵀ with v(0) = 1.
//  * Block reflectors use the compact WY representation H = I − V·T·Vᵀ
//    where V is unit-lower-trapezoidal (Direction::Forward,
//    StoreV::Columnwise — the only storage scheme the Hessenberg and QR
//    paths need; other combinations are rejected by precondition check).
//    Only the strictly-lower part of V is read; the unit diagonal is
//    implicit and entries on/above the diagonal are ignored, so V may
//    alias the factorized panel of A exactly as in LAPACK.
#pragma once

#include "la/matrix.hpp"

namespace fth::lapack {

/// Generate an elementary reflector H = I − tau·[1;v]·[1;v]ᵀ such that
/// H·[alpha; x] = [beta; 0]. On exit `alpha` holds beta and `x` holds v.
/// Handles subnormal scaling like LAPACK dlarfg.
void larfg(double& alpha, VectorView<double> x, double& tau);

/// Apply the elementary reflector H = I − tau·v·vᵀ to C from `side`.
/// `v` is the full reflector vector (caller stores the leading 1).
/// `work` must have length C.cols() (Side::Left) or C.rows() (Side::Right).
void larf(Side side, VectorView<const double> v, double tau, MatrixView<double> c,
          VectorView<double> work);

/// Form the k×k upper-triangular factor T of the block reflector
/// H = I − V·T·Vᵀ from the reflectors in V (m×k) and their scalars tau.
void larft(Direction dir, StoreV storev, MatrixView<const double> v,
           VectorView<const double> tau, MatrixView<double> t);

/// Apply the block reflector H (Trans::No) or Hᵀ (Trans::Yes) to C from
/// `side`. `work` must be at least C.cols()×k (Side::Left) or C.rows()×k
/// (Side::Right).
void larfb(Side side, Trans trans, Direction dir, StoreV storev, MatrixView<const double> v,
           MatrixView<const double> t, MatrixView<double> c, MatrixView<double> work);

namespace detail {

/// larfb's Side::Left update on the columns `c` (m×nc, a column block of C
/// or all of it) with `w` (nc×k) as workspace: each column of C maps to
/// the same row of W and back, so column blocks are independent. The two
/// gemms take the naive-or-blocked choice passed in (the whole C's
/// blas::detail::gemm_is_small(n, k, m−k) and (m−k, n, k)), so splitting C
/// changes no element's arithmetic. Counts the gemms' FLOPs; no checks.
void larfb_left_columns(Trans trans, MatrixView<const double> v, MatrixView<const double> t,
                        MatrixView<double> c, MatrixView<double> w, bool small_w,
                        bool small_c);

}  // namespace detail

}  // namespace fth::lapack
