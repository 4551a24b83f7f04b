#include "checks.hpp"

#include <cmath>
#include <cstdio>

#include "la/blas3.hpp"
#include "la/norms.hpp"
#include "lapack/gebrd.hpp"
#include "lapack/gehrd.hpp"
#include "lapack/orghr.hpp"
#include "lapack/sytrd.hpp"
#include "lapack/verify.hpp"

namespace perfbench {

using fth::Trans;
using fth::VectorView;

namespace {

VectorView<const double> cvec(const std::vector<double>& v) {
  return VectorView<const double>(v.data(), static_cast<index_t>(v.size()));
}

std::string fail(const char* what, double value, double limit) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "%s: %.3e exceeds %.3e", what, value, limit);
  return buf;
}

bool all_finite(const std::vector<double>& v) {
  for (const double x : v)
    if (!std::isfinite(x)) return false;
  return true;
}

/// Householder scalars of a real reflector are 0 or in [1, 2].
bool valid_taus(const std::vector<double>& v) {
  for (const double t : v)
    if (!(t == 0.0 || (t >= 1.0 - 1e-12 && t <= 2.0 + 1e-12))) return false;
  return true;
}

/// Largest difference of magnitudes |x_k| − |y_k| of two scalar sequences.
double max_abs_gap(const std::vector<double>& x, const std::vector<double>& y) {
  double g = 0.0;
  for (std::size_t k = 0; k < x.size(); ++k) g = std::max(g, std::abs(std::abs(x[k]) - std::abs(y[k])));
  return g;
}

}  // namespace

std::string check_output(const Input& in, const Output& out) {
  const index_t n = in.a.rows();
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < n; ++i)
      if (!std::isfinite(out.a(i, j))) return "non-finite matrix entry";
  if (!all_finite(out.d) || !all_finite(out.e) || !all_finite(out.tau) || !all_finite(out.taup))
    return "non-finite d/e/tau";
  if (!valid_taus(out.tau) || !valid_taus(out.taup)) return "reflector scalar outside {0} ∪ [1, 2]";

  // Frobenius norm (and trace) of the reduced form against the input's.
  double fro2 = 0.0, trace = 0.0;
  switch (in.code) {
    case Code::Gehrd:
      for (index_t j = 0; j < n; ++j)
        for (index_t i = 0; i <= std::min(j + 1, n - 1); ++i) fro2 += out.a(i, j) * out.a(i, j);
      for (index_t i = 0; i < n; ++i) trace += out.a(i, i);
      break;
    case Code::Sytrd:
    case Code::Gebrd:
      for (index_t i = 0; i < n; ++i) {
        if (out.a(i, i) != out.d[static_cast<std::size_t>(i)]) return "diagonal disagrees with d";
        fro2 += out.d[static_cast<std::size_t>(i)] * out.d[static_cast<std::size_t>(i)];
        trace += out.d[static_cast<std::size_t>(i)];
      }
      for (index_t i = 0; i + 1 < n; ++i) {
        const double band = in.code == Code::Sytrd ? out.a(i + 1, i) : out.a(i, i + 1);
        if (band != out.e[static_cast<std::size_t>(i)]) return "off-diagonal disagrees with e";
        const double e = out.e[static_cast<std::size_t>(i)];
        fro2 += (in.code == Code::Sytrd ? 2.0 : 1.0) * e * e;
      }
      break;
  }
  const double tol = kInvariantTol * in.fro;
  if (const double g = std::abs(std::sqrt(fro2) - in.fro); !(g <= tol))
    return fail("Frobenius norm not preserved", g, tol);
  if (in.code != Code::Gebrd) {
    const double ttol = tol * std::sqrt(static_cast<double>(n));
    if (const double g = std::abs(trace - in.trace); !(g <= ttol))
      return fail("trace not preserved", g, ttol);
  }
  return {};
}

double agreement_gap(const Input& in, const Output& ref, const Output& out) {
  return std::max(fth::max_abs_diff(ref.a.cview(), out.a.cview()) / in.fro,
                  max_abs_gap(ref.tau, out.tau) + max_abs_gap(ref.taup, out.taup));
}

std::string check_agreement(double gap) {
  if (!(gap <= kAgreementTol))
    return fail("output differs from the reference run (relative)", gap, kAgreementTol);
  return {};
}

Residuals residuals(const Input& in, const Output& out) {
  namespace lp = fth::lapack;
  const index_t n = in.a.rows();
  Residuals r;
  switch (in.code) {
    case Code::Gehrd: {
      const Matrix<double> q = lp::orghr(out.a.cview(), cvec(out.tau));
      const Matrix<double> h = lp::extract_hessenberg(out.a.cview());
      r.backward = lp::hessenberg_residual(in.a.cview(), q.cview(), h.cview());
      r.orthogonality = lp::orthogonality_residual(q.cview());
      break;
    }
    case Code::Sytrd: {
      const Matrix<double> q = lp::orghr(out.a.cview(), cvec(out.tau));
      const Matrix<double> t = lp::tridiagonal_from(cvec(out.d), cvec(out.e));
      r.backward = lp::hessenberg_residual(in.a.cview(), q.cview(), t.cview());
      r.orthogonality = lp::orthogonality_residual(q.cview());
      break;
    }
    case Code::Gebrd: {
      const Matrix<double> q = lp::orgbr_q(out.a.cview(), cvec(out.tau));
      const Matrix<double> p = lp::orgbr_p(out.a.cview(), cvec(out.taup));
      const Matrix<double> b = lp::bidiagonal_from(cvec(out.d), cvec(out.e));
      Matrix<double> qb(n, n), rec(n, n);
      fth::blas::gemm(Trans::No, Trans::No, 1.0, q.cview(), b.cview(), 0.0, qb.view());
      fth::blas::gemm(Trans::No, Trans::Yes, 1.0, qb.cview(), p.cview(), 0.0, rec.view());
      Matrix<double> diff(in.a.cview());
      for (index_t j = 0; j < n; ++j)
        for (index_t i = 0; i < n; ++i) diff(i, j) -= rec(i, j);
      r.backward = fth::norm_one(diff.cview()) /
                   (static_cast<double>(n) * fth::norm_one(in.a.cview()));
      r.orthogonality = std::max(lp::orthogonality_residual(q.cview()),
                                 lp::orthogonality_residual(p.cview()));
      break;
    }
  }
  return r;
}

std::string check_residuals(const Residuals& r) {
  if (!(r.backward <= kResidualTol)) return fail("backward error", r.backward, kResidualTol);
  if (!(r.orthogonality <= kResidualTol))
    return fail("orthogonality residual", r.orthogonality, kResidualTol);
  return {};
}

}  // namespace perfbench
