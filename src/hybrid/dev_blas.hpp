// Device BLAS: asynchronous kernel launches on a stream.
//
// Counterparts of the cuBLAS calls the MAGMA Hessenberg path issues. Each
// call enqueues the kernel and returns immediately; all operand views are
// device-tagged (DMatrixView/DVectorView) and must reference device memory
// that stays alive until the stream drains. The kernels unwrap their
// operands with .in_task() on the worker thread, so a stale view (backing
// DeviceMatrix freed before the stream drained) is reported by fth::check.
//
// On the worker, each kernel runs on the stream's device team (hybrid::par
// below): only the unwrapped host views reach the team's helper threads,
// so the checker, the effects layer and the analyzer see the same task.
#pragma once

#include "la/matrix.hpp"
#include "hybrid/stream.hpp"
#include "hybrid/team.hpp"

namespace fth::hybrid {

void gemm_async(Stream& s, Trans ta, Trans tb, double alpha, DMatrixView<const double> a,
                DMatrixView<const double> b, double beta, DMatrixView<double> c);

void gemv_async(Stream& s, Trans trans, double alpha, DMatrixView<const double> a,
                DVectorView<const double> x, double beta, DVectorView<double> y);

void trmm_async(Stream& s, Side side, Uplo uplo, Trans trans, Diag diag, double alpha,
                DMatrixView<const double> a, DMatrixView<double> b);

void scal_async(Stream& s, double alpha, DVectorView<double> x);

void axpy_async(Stream& s, double alpha, DVectorView<const double> x, DVectorView<double> y);

/// Apply the block reflector H = I − V·T·Vᵀ (or Hᵀ) from the left to C on
/// the device. `work` is device scratch of at least C.cols()×V.cols().
void larfb_left_async(Stream& s, Trans trans, DMatrixView<const double> v,
                      DMatrixView<const double> t, DMatrixView<double> c,
                      DMatrixView<double> work);

void symv_async(Stream& s, Uplo uplo, double alpha, DMatrixView<const double> a,
                DVectorView<const double> x, double beta, DVectorView<double> y);

void syr2k_async(Stream& s, Uplo uplo, Trans trans, double alpha, DMatrixView<const double> a,
                 DMatrixView<const double> b, double beta, DMatrixView<double> c);

/// Fill a device view with a constant.
void fill_async(Stream& s, DMatrixView<double> a, double value);

/// Team kernels: the bodies of the launches above, run synchronously on
/// the calling thread (a stream task) and its `team`. A call whose work is
/// below a size gate runs serially on the caller; a larger one is split
/// into chunks of disjoint output — 2-D C tiles (gemm), row or column
/// blocks (gemv, trmm, symv), C column blocks (larfb, syr2k) — computed by
/// the same operations in the same order as the serial kernel, so every
/// result is bit-identical to the la/lapack kernel of the same name for
/// every team size. FLOP counts are the serial kernel's too.
namespace par {

void gemm(Team& team, Trans ta, Trans tb, double alpha, MatrixView<const double> a,
          MatrixView<const double> b, double beta, MatrixView<double> c);

void gemv(Team& team, Trans trans, double alpha, MatrixView<const double> a,
          VectorView<const double> x, double beta, VectorView<double> y);

void trmm(Team& team, Side side, Uplo uplo, Trans trans, Diag diag, double alpha,
          MatrixView<const double> a, MatrixView<double> b);

/// lapack::larfb(Side::Left, trans, Forward, Columnwise, v, t, c, work).
void larfb_left(Team& team, Trans trans, MatrixView<const double> v,
                MatrixView<const double> t, MatrixView<double> c, MatrixView<double> work);

void symv(Team& team, Uplo uplo, double alpha, MatrixView<const double> a,
          VectorView<const double> x, double beta, VectorView<double> y);

void syr2k(Team& team, Uplo uplo, Trans trans, double alpha, MatrixView<const double> a,
           MatrixView<const double> b, double beta, MatrixView<double> c);

/// Number of non-finite entries of `a` (the ABFT tripwire scan); an integer
/// count, so exact under any split.
[[nodiscard]] index_t count_nonfinite(Team& team, MatrixView<const double> a);

}  // namespace par

}  // namespace fth::hybrid
