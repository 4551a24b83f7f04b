// ABFT checksum encoding and verification (Sections IV-B, IV-D, IV-F).
//
// The protected object is the *logical* matrix of the factorization: the
// already-finished columns contribute only their upper-Hessenberg entries
// (the Householder vectors stored below them belong to Q and are protected
// separately), while the trailing columns contribute every row. The
// extended matrix carries one checksum column (row sums) at column n, one
// checksum row (column sums) at row n, and the grand total at (n, n).
#pragma once

#include <vector>

#include "la/matrix.hpp"

namespace fth::ft {

/// Build the (n+1)×(n+1) fully-encoded extension of `a` (host-side; the
/// driver performs the same encoding with device kernels).
Matrix<double> encode_extended(MatrixView<const double> a);

/// Fresh logical row/column sums of the protected matrix, split across the
/// two memory spaces exactly as the driver stores it:
///  * `host_a` — n×n host matrix whose finished columns (< i) are valid;
///    only rows 0..c+1 of a finished column c are summed,
///  * `ext` — the (n+1)×(n+1) extended matrix whose trailing columns
///    (≥ i) hold live data.
struct FreshSums {
  std::vector<double> row;  ///< length n
  std::vector<double> col;  ///< length n
};
FreshSums fresh_logical_sums(MatrixView<const double> host_a, MatrixView<const double> ext,
                             index_t i);

/// Indices (and fresh−maintained deltas) where the recomputed sums diverge
/// from the maintained checksums by more than `tol`.
struct Discrepancy {
  std::vector<index_t> rows;
  std::vector<double> row_delta;  ///< fresh − maintained, per entry of `rows`
  std::vector<index_t> cols;
  std::vector<double> col_delta;
  [[nodiscard]] bool clean() const { return rows.empty() && cols.empty(); }
};
Discrepancy compare_checksums(const FreshSums& fresh, MatrixView<const double> ext,
                              double tol);

/// |Sre − Sce|: the per-iteration detection statistic (Algorithm 3 line 13).
double detection_gap(MatrixView<const double> ext);

/// Default detection threshold: factor · eps · n · ‖A‖_F. The paper asks
/// for a value 2–3 orders of magnitude above machine epsilon relative to
/// the data scale; the n factor absorbs the growth of the grand sums.
double default_threshold(double fro_norm, index_t n, double factor = 500.0);

/// The threshold in force for a grand-total detector (ft_gehrd, and
/// pool_gehrd's per-shard code row): `threshold` as given when positive,
/// else default_threshold(‖A‖_F, n, factor).
double resolve_threshold(MatrixView<const double> a, double threshold, double factor);

/// The threshold in force for a per-row detector (ft_sytrd, ft_gebrd):
/// `threshold` as given when positive, else default_threshold with its n
/// factor divided back out, times a ×50 margin.
double resolve_row_threshold(MatrixView<const double> a, double threshold, double factor);

}  // namespace fth::ft
