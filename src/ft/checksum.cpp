#include "ft/checksum.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/types.hpp"
#include "la/norms.hpp"

namespace fth::ft {

Matrix<double> encode_extended(MatrixView<const double> a) {
  const index_t n = a.rows();
  FTH_CHECK(a.cols() == n, "encode_extended: matrix must be square");
  Matrix<double> ext(n + 1, n + 1);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < n; ++i) ext(i, j) = a(i, j);
  // Checksum column: row sums.
  for (index_t i = 0; i < n; ++i) {
    double s = 0.0;
    for (index_t j = 0; j < n; ++j) s += a(i, j);
    ext(i, n) = s;
  }
  // Checksum row: column sums; corner: grand total.
  double total = 0.0;
  for (index_t j = 0; j < n; ++j) {
    double s = 0.0;
    for (index_t i = 0; i < n; ++i) s += a(i, j);
    ext(n, j) = s;
    total += s;
  }
  ext(n, n) = total;
  return ext;
}

FreshSums fresh_logical_sums(MatrixView<const double> host_a, MatrixView<const double> ext,
                             index_t i) {
  const index_t n = host_a.rows();
  FTH_CHECK(host_a.cols() == n, "fresh_logical_sums: host matrix must be square");
  FTH_CHECK(ext.rows() == n + 1 && ext.cols() == n + 1,
            "fresh_logical_sums: extended matrix must be (n+1)x(n+1)");
  FTH_CHECK(i >= 0 && i <= n, "fresh_logical_sums: panel start out of range");

  FreshSums out;
  out.row.assign(static_cast<std::size_t>(n), 0.0);
  out.col.assign(static_cast<std::size_t>(n), 0.0);

  // Finished columns: upper-Hessenberg entries only, from the host matrix.
  for (index_t c = 0; c < i; ++c) {
    const index_t last = std::min(c + 1, n - 1);
    double cs = 0.0;
    for (index_t r = 0; r <= last; ++r) {
      const double v = host_a(r, c);
      out.row[static_cast<std::size_t>(r)] += v;
      cs += v;
    }
    out.col[static_cast<std::size_t>(c)] = cs;
  }
  // Trailing columns: full height, from the extended (device) matrix.
  for (index_t c = i; c < n; ++c) {
    double cs = 0.0;
    for (index_t r = 0; r < n; ++r) {
      const double v = ext(r, c);
      out.row[static_cast<std::size_t>(r)] += v;
      cs += v;
    }
    out.col[static_cast<std::size_t>(c)] = cs;
  }
  return out;
}

Discrepancy compare_checksums(const FreshSums& fresh, MatrixView<const double> ext,
                              double tol) {
  const index_t n = ext.rows() - 1;
  FTH_CHECK(static_cast<index_t>(fresh.row.size()) == n &&
                static_cast<index_t>(fresh.col.size()) == n,
            "compare_checksums: sum length mismatch");
  Discrepancy d;
  // Negated comparisons so a NaN delta (fresh or maintained sum poisoned by
  // a non-finite element) is *flagged* rather than silently passing: for
  // NaN, `abs(delta) > tol` is false but `!(abs(delta) <= tol)` is true.
  for (index_t r = 0; r < n; ++r) {
    const double delta = fresh.row[static_cast<std::size_t>(r)] - ext(r, n);
    if (!(std::abs(delta) <= tol)) {
      d.rows.push_back(r);
      d.row_delta.push_back(delta);
    }
  }
  for (index_t c = 0; c < n; ++c) {
    const double delta = fresh.col[static_cast<std::size_t>(c)] - ext(n, c);
    if (!(std::abs(delta) <= tol)) {
      d.cols.push_back(c);
      d.col_delta.push_back(delta);
    }
  }
  return d;
}

double detection_gap(MatrixView<const double> ext) {
  const index_t n = ext.rows() - 1;
  double sre = 0.0;
  for (index_t r = 0; r < n; ++r) sre += ext(r, n);
  double sce = 0.0;
  for (index_t c = 0; c < n; ++c) sce += ext(n, c);
  return std::abs(sre - sce);
}

double default_threshold(double fro_norm, index_t n, double factor) {
  const double eps = std::numeric_limits<double>::epsilon();
  return factor * eps * static_cast<double>(std::max<index_t>(n, 1)) *
         std::max(fro_norm, 1.0);
}

double resolve_threshold(MatrixView<const double> a, double threshold, double factor) {
  return threshold > 0 ? threshold : default_threshold(norm_fro(a), a.rows(), factor);
}

double resolve_row_threshold(MatrixView<const double> a, double threshold, double factor) {
  if (threshold > 0) return threshold;
  return default_threshold(norm_fro(a), a.rows(), factor) /
         static_cast<double>(std::max<index_t>(a.rows(), 1)) * 50.0;
}

}  // namespace fth::ft
