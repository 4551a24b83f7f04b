#include "hybrid/dev_blas.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "hybrid/device.hpp"
#include "la/blas1.hpp"
#include "la/blas2.hpp"
#include "la/blas3.hpp"
#include "lapack/reflectors.hpp"
#include "obs/trace.hpp"

namespace fth::hybrid {

namespace {

// Size gate: a kernel with less work than this (FLOPs, or elements for a
// scan) runs serially on the worker — a fork costs a few microseconds, and
// n = 128 panels or the small sytrd/gebrd kernels would not repay it.
constexpr double kGateWork = 1 << 18;
// So a gemm that forks always takes blas::gemm's blocked path, whose result
// for C(i, j) does not depend on where a tile of C starts.
static_assert(kGateWork >= 2.0 * blas::detail::kGemmNaiveWork);
// Each chunk gets at least this much work, and a kernel is cut into at most
// kChunksPerMember chunks per team member (dynamic claiming evens out
// members the host or another process slowed down).
constexpr double kMinChunkWork = 1 << 16;
constexpr index_t kChunksPerMember = 4;
// Row/column blocks start on multiples of this: a cache line of doubles,
// and a multiple of gemm's kMR×kNR micro-tile so tiles of C reproduce the
// serial micro-tile grid exactly.
constexpr index_t kAlign = 8;

index_t ceil_div(index_t a, index_t b) { return (a + b - 1) / b; }

/// How many chunks to cut `work` into on `team` (1 = run serially).
index_t chunks_for(const Team& team, double work) {
  if (team.size() == 1 || work < kGateWork) return 1;
  const auto by_work = static_cast<index_t>(work / kMinChunkWork);
  return std::max<index_t>(1, std::min<index_t>(by_work, kChunksPerMember * team.size()));
}

/// [0, n) cut into about `parts` blocks whose starts are multiples of `align`.
struct Blocks {
  Blocks(index_t n, index_t parts, index_t align)
      : n(n), step(std::max<index_t>(align, ceil_div(ceil_div(n, parts), align) * align)),
        count(ceil_div(n, step)) {}
  [[nodiscard]] index_t begin(index_t c) const { return c * step; }
  [[nodiscard]] index_t size(index_t c) const { return std::min(step, n - c * step); }
  index_t n;
  index_t step;
  index_t count;
};

/// The kernel team of the stream's device; a one-member team (run inline)
/// for a free-standing stream.
Team& team_of(const Stream& s) {
  static Team serial(1);
  return s.device() != nullptr ? s.device()->team() : serial;
}

}  // namespace

namespace par {

void gemm(Team& team, Trans ta, Trans tb, double alpha, MatrixView<const double> a,
          MatrixView<const double> b, double beta, MatrixView<double> c) {
  const index_t m = c.rows();
  const index_t n = c.cols();
  const index_t k = (ta == Trans::No) ? a.cols() : a.rows();
  const index_t parts = chunks_for(team, 2.0 * static_cast<double>(m) *
                                             static_cast<double>(n) * static_cast<double>(k));
  if (parts == 1) {
    blas::gemm(ta, tb, alpha, a, b, beta, c);
    return;
  }
  FTH_CHECK(((ta == Trans::No) ? a.rows() : a.cols()) == m &&
                ((tb == Trans::No) ? b.rows() : b.cols()) == k &&
                ((tb == Trans::No) ? b.cols() : b.rows()) == n,
            "gemm dimension mismatch");
  // A grid of about `parts` tiles, cutting the longer side of the tiles.
  index_t gr = 1;
  index_t gc = 1;
  while (gr * gc < parts) {
    const bool rows_splittable = gr * kAlign < m;
    const bool cols_splittable = gc * kAlign < n;
    if (rows_splittable && (!cols_splittable || m * gc >= n * gr)) {
      ++gr;
    } else if (cols_splittable) {
      ++gc;
    } else {
      break;
    }
  }
  const Blocks rows(m, gr, kAlign);
  const Blocks cols(n, gc, kAlign);
  team.run(rows.count * cols.count, [&](index_t t) {
    const index_t i0 = rows.begin(t % rows.count);
    const index_t mt = rows.size(t % rows.count);
    const index_t j0 = cols.begin(t / rows.count);
    const index_t nt = cols.size(t / rows.count);
    blas::detail::gemm_body(ta, tb, alpha,
                            ta == Trans::No ? a.block(i0, 0, mt, k) : a.block(0, i0, k, mt),
                            tb == Trans::No ? b.block(0, j0, k, nt) : b.block(j0, 0, nt, k),
                            beta, c.block(i0, j0, mt, nt), /*small=*/false);
    flops::add(flops::gemm(mt, nt, k));
  });
}

void gemv(Team& team, Trans trans, double alpha, MatrixView<const double> a,
          VectorView<const double> x, double beta, VectorView<double> y) {
  const index_t m = a.rows();
  const index_t n = a.cols();
  const double work = 2.0 * static_cast<double>(m) * static_cast<double>(n);
  const index_t parts = alpha == 0.0 ? 1 : chunks_for(team, work);
  if (parts == 1) {
    blas::gemv(trans, alpha, a, x, beta, y);
    return;
  }
  FTH_CHECK(trans == Trans::No ? (x.size() == n && y.size() == m)
                               : (x.size() == m && y.size() == n),
            "gemv dimension mismatch");
  // No-trans: y rows from row blocks of A; Trans: y entries from column
  // blocks (each a dot product over a whole column).
  const Blocks blocks(y.size(), parts, kAlign);
  team.run(blocks.count, [&](index_t c) {
    const index_t lo = blocks.begin(c);
    const index_t len = blocks.size(c);
    const auto ab = trans == Trans::No ? a.block(lo, 0, len, n) : a.block(0, lo, m, len);
    blas::gemv(trans, alpha, ab, x, beta, y.sub(lo, len));
  });
}

void trmm(Team& team, Side side, Uplo uplo, Trans trans, Diag diag, double alpha,
          MatrixView<const double> a, MatrixView<double> b) {
  const index_t m = b.rows();
  const index_t n = b.cols();
  const index_t na = (side == Side::Left) ? m : n;
  const index_t parts = chunks_for(team, static_cast<double>(m) * static_cast<double>(n) *
                                             static_cast<double>(na));
  if (parts == 1) {
    blas::trmm(side, uplo, trans, diag, alpha, a, b);
    return;
  }
  // op(A) mixes the rows of B (Left) or its columns (Right), never the
  // other way: Left splits B's columns, Right its rows.
  const Blocks blocks(side == Side::Left ? n : m, parts, kAlign);
  team.run(blocks.count, [&](index_t c) {
    const index_t lo = blocks.begin(c);
    const index_t len = blocks.size(c);
    blas::trmm(side, uplo, trans, diag, alpha, a,
               side == Side::Left ? b.block(0, lo, m, len) : b.block(lo, 0, len, n));
  });
}

void larfb_left(Team& team, Trans trans, MatrixView<const double> v, MatrixView<const double> t,
                MatrixView<double> c, MatrixView<double> work) {
  const index_t m = c.rows();
  const index_t n = c.cols();
  const index_t k = v.cols();
  const index_t parts = chunks_for(team, 4.0 * static_cast<double>(m) *
                                             static_cast<double>(n) * static_cast<double>(k));
  if (parts == 1 || k == 0 || c.empty()) {
    lapack::larfb(Side::Left, trans, Direction::Forward, StoreV::Columnwise, v, t, c, work);
    return;
  }
  FTH_CHECK(t.rows() >= k && t.cols() >= k, "larfb: T too small");
  FTH_CHECK(v.rows() == m, "larfb left: V rows must equal C rows");
  FTH_CHECK(work.rows() >= n && work.cols() >= k, "larfb left: work too small");

  // lapack::larfb's left update on each column block C(:, J), with W's
  // rows J as its workspace. The gemms take the whole C's naive-or-blocked
  // choice: their (m − k) dimension can be small.
  const bool small_w = blas::detail::gemm_is_small(n, k, m - k);
  const bool small_c = blas::detail::gemm_is_small(m - k, n, k);
  const Blocks blocks(n, parts, kAlign);
  team.run(blocks.count, [&](index_t blk) {
    const index_t j0 = blocks.begin(blk);
    const index_t nb = blocks.size(blk);
    lapack::detail::larfb_left_columns(trans, v, t, c.block(0, j0, m, nb),
                                       work.block(j0, 0, nb, k), small_w, small_c);
  });
}

void symv(Team& team, Uplo uplo, double alpha, MatrixView<const double> a,
          VectorView<const double> x, double beta, VectorView<double> y) {
  const index_t n = a.rows();
  const index_t parts = chunks_for(team, 2.0 * static_cast<double>(n) * static_cast<double>(n));
  if (parts == 1) {
    blas::symv(uplo, alpha, a, x, beta, y);
    return;
  }
  FTH_CHECK(a.cols() == n, "symv requires a square matrix");
  FTH_CHECK(x.size() == n && y.size() == n, "symv dimension mismatch");
  const Blocks blocks(n, parts, kAlign);
  team.run(blocks.count, [&](index_t c) {
    const index_t r0 = blocks.begin(c);
    blas::detail::symv_rows(uplo, alpha, a, x, beta, y, r0, r0 + blocks.size(c));
  });
  if (alpha != 0.0) flops::add(2ull * static_cast<std::uint64_t>(n * n));
}

void syr2k(Team& team, Uplo uplo, Trans trans, double alpha, MatrixView<const double> a,
           MatrixView<const double> b, double beta, MatrixView<double> c) {
  const index_t n = c.rows();
  const index_t k = (trans == Trans::No) ? a.cols() : a.rows();
  if (!blas::detail::syr2k_is_blocked(trans, n) ||
      chunks_for(team, 2.0 * static_cast<double>(n) * static_cast<double>(n) *
                           static_cast<double>(k)) == 1) {
    blas::syr2k(uplo, trans, alpha, a, b, beta, c);
    return;
  }
  FTH_CHECK(c.cols() == n && a.rows() == n && b.rows() == n && b.cols() == k,
            "syr2k dimension mismatch");
  // The serial kernel's own column blocks, heaviest (longest off-diagonal
  // rectangle) first.
  const index_t blocks = ceil_div(n, blas::detail::kSyr2kBlock);
  team.run(blocks, [&](index_t blk) {
    const index_t b0 = uplo == Uplo::Lower ? blk : blocks - 1 - blk;
    const index_t j0 = b0 * blas::detail::kSyr2kBlock;
    blas::detail::syr2k_column_block(uplo, alpha, a, b, beta, c, j0);
  });
}

index_t count_nonfinite(Team& team, MatrixView<const double> a) {
  const index_t m = a.rows();
  const index_t n = a.cols();
  const Blocks blocks(n, chunks_for(team, static_cast<double>(m) * static_cast<double>(n)), 1);
  std::atomic<index_t> total{0};
  team.run(blocks.count, [&](index_t c) {
    index_t nf = 0;
    for (index_t j = blocks.begin(c); j < blocks.begin(c) + blocks.size(c); ++j) {
      const double* col = a.data() + j * a.ld();
      for (index_t i = 0; i < m; ++i)
        if (!std::isfinite(col[i])) ++nf;
    }
    total.fetch_add(nf, std::memory_order_relaxed);
  });
  return total.load(std::memory_order_relaxed);
}

}  // namespace par

void gemm_async(Stream& s, Trans ta, Trans tb, double alpha, DMatrixView<const double> a,
                DMatrixView<const double> b, double beta, DMatrixView<double> c) {
  s.enqueue("dev.gemm", FTH_TASK_EFFECTS(FTH_READS(a, b) FTH_WRITES(c)),
            [=, team = &team_of(s)] {
    obs::TraceSpan span("dev_blas", "gemm");
    par::gemm(*team, ta, tb, alpha, a.in_task(), b.in_task(), beta, c.in_task());
  });
}

void gemv_async(Stream& s, Trans trans, double alpha, DMatrixView<const double> a,
                DVectorView<const double> x, double beta, DVectorView<double> y) {
  s.enqueue("dev.gemv", FTH_TASK_EFFECTS(FTH_READS(a, x) FTH_WRITES(y)),
            [=, team = &team_of(s)] {
    obs::TraceSpan span("dev_blas", "gemv");
    par::gemv(*team, trans, alpha, a.in_task(), x.in_task(), beta, y.in_task());
  });
}

void trmm_async(Stream& s, Side side, Uplo uplo, Trans trans, Diag diag, double alpha,
                DMatrixView<const double> a, DMatrixView<double> b) {
  s.enqueue("dev.trmm", FTH_TASK_EFFECTS(FTH_READS(a) FTH_WRITES(b)),
            [=, team = &team_of(s)] {
    obs::TraceSpan span("dev_blas", "trmm");
    par::trmm(*team, side, uplo, trans, diag, alpha, a.in_task(), b.in_task());
  });
}

void scal_async(Stream& s, double alpha, DVectorView<double> x) {
  s.enqueue("dev.scal", FTH_TASK_EFFECTS(FTH_WRITES(x)), [=] {
    obs::TraceSpan span("dev_blas", "scal");
    blas::scal(alpha, x.in_task());
  });
}

void axpy_async(Stream& s, double alpha, DVectorView<const double> x, DVectorView<double> y) {
  s.enqueue("dev.axpy", FTH_TASK_EFFECTS(FTH_READS(x) FTH_WRITES(y)), [=] {
    obs::TraceSpan span("dev_blas", "axpy");
    blas::axpy(alpha, x.in_task(), y.in_task());
  });
}

void larfb_left_async(Stream& s, Trans trans, DMatrixView<const double> v,
                      DMatrixView<const double> t, DMatrixView<double> c,
                      DMatrixView<double> work) {
  s.enqueue("dev.larfb", FTH_TASK_EFFECTS(FTH_READS(v, t) FTH_WRITES(c, work)),
            [=, team = &team_of(s)] {
    obs::TraceSpan span("dev_blas", "larfb");
    par::larfb_left(*team, trans, v.in_task(), t.in_task(), c.in_task(), work.in_task());
  });
}

void symv_async(Stream& s, Uplo uplo, double alpha, DMatrixView<const double> a,
                DVectorView<const double> x, double beta, DVectorView<double> y) {
  s.enqueue("dev.symv", FTH_TASK_EFFECTS(FTH_READS(a, x) FTH_WRITES(y)),
            [=, team = &team_of(s)] {
    obs::TraceSpan span("dev_blas", "symv");
    par::symv(*team, uplo, alpha, a.in_task(), x.in_task(), beta, y.in_task());
  });
}

void syr2k_async(Stream& s, Uplo uplo, Trans trans, double alpha, DMatrixView<const double> a,
                 DMatrixView<const double> b, double beta, DMatrixView<double> c) {
  s.enqueue("dev.syr2k", FTH_TASK_EFFECTS(FTH_READS(a, b) FTH_WRITES(c)),
            [=, team = &team_of(s)] {
    obs::TraceSpan span("dev_blas", "syr2k");
    par::syr2k(*team, uplo, trans, alpha, a.in_task(), b.in_task(), beta, c.in_task());
  });
}

void fill_async(Stream& s, DMatrixView<double> a, double value) {
  s.enqueue("dev.fill", FTH_TASK_EFFECTS(FTH_WRITES(a)), [=] {
    obs::TraceSpan span("dev_blas", "fill");
    fill(a.in_task(), value);
  });
}

}  // namespace fth::hybrid
