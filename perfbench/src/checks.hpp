// Output checks. Every reduction the benchmark runs is checked outside the
// timed region; a reduction that fails a check (or throws) counts as failed.
//
//   check_output    — per reduction, O(n²): finite output, reflector scalars
//                     in [0, 2], the band stored in the matrix agrees with
//                     d/e, ‖reduced form‖_F = ‖A‖_F, and (similarity
//                     transforms) trace preserved.
//   check_agreement — per reduction, O(n²): FT output against the hybrid
//                     output of the same matrix, faulted FT against clean FT.
//   check_residuals — once per workload per run, O(n³): backward error
//                     ‖A − Q·R·Pᵀ‖₁/(n‖A‖₁) and ‖QQᵀ − I‖₁/n through the
//                     explicitly formed orthogonal factors.
// The tolerances are the constants below (documented in METRICS.md).
#pragma once

#include <string>

#include "reductions.hpp"

namespace perfbench {

/// Relative tolerance (× ‖A‖_F, trace × √n‖A‖_F) of the O(n²) invariants.
inline constexpr double kInvariantTol = 1e-10;
/// Largest element difference, relative to ‖A‖_F, between two outputs of the
/// same matrix. Not bit-equality: FT runs on an extended matrix and
/// reassociates, and a corrected fault leaves rounding error of the fault's
/// size behind, which the reduction can amplify (a recovered gebrd was seen
/// at 2.6e-10). The repository's FT tests hold recovered outputs to 1e-8.
inline constexpr double kAgreementTol = 1e-8;
/// Bound on both once-per-run residuals.
inline constexpr double kResidualTol = 1e-14;

/// Empty when the output passes; otherwise the first failed check.
std::string check_output(const Input& in, const Output& out);
/// Largest element difference between two outputs of the same input,
/// relative to ‖A‖_F (reflector scalars, being dimensionless, unscaled).
double agreement_gap(const Input& in, const Output& ref, const Output& out);
std::string check_agreement(double gap);

struct Residuals {
  double backward = 0.0;     ///< ‖A − Q·R·Pᵀ‖₁/(n‖A‖₁), R the reduced form
  double orthogonality = 0.0;  ///< max over the formed factors of ‖QQᵀ − I‖₁/n
};
Residuals residuals(const Input& in, const Output& out);
std::string check_residuals(const Residuals& r);

}  // namespace perfbench
