// Fault-tolerant hybrid bidiagonal reduction.
//
// The third member of the two-sided family the paper's conclusion targets.
// The general (non-symmetric) trailing update A −= V·Yᵀ + X·Uᵀ is covered
// by BOTH checksum vectors of the Hessenberg scheme — a maintained
// checksum column (row sums) and checksum row (column sums) — carried
// through the two trailing GEMMs by the same column-sum algebra, with the
// finished panel row/column segments re-encoded from the final bidiagonal
// data each iteration (their pre-images are checkpointed).
//
// Detection compares both maintained vectors against freshly recomputed
// logical sums once per iteration (two GEMVs over the trailing block);
// because a general-matrix error is asymmetric, the mismatched row and
// column identify it directly and the location/correction logic of
// ft::locate is reused verbatim.
//
// Both Householder families are write-once host data and get Section IV-E
// style protection: the left (Q) vectors through a QProtector with the
// QR-geometry offset, the right (P) vectors through a QProtector running
// on a transposed mirror of the finished rows.
#pragma once

#include "fault/injector.hpp"
#include "ft/ft_gehrd.hpp"  // FtReport / FtEvent / LocatedError
#include "ft/ft_sytrd.hpp"  // FtSytrdOptions
#include "hybrid/hybrid_gehrd.hpp"

namespace fth::ft {

/// Same knobs as ft_sytrd; `detect_every` amortizes the two-GEMV check.
using FtGebrdOptions = FtSytrdOptions;

/// Reduce the square matrix `a` to upper bidiagonal form with
/// transient-error resilience. Output contract of lapack::gebrd.
void ft_gebrd(hybrid::Device& dev, MatrixView<double> a, VectorView<double> d,
              VectorView<double> e, VectorView<double> tauq, VectorView<double> taup,
              const FtGebrdOptions& opt = {}, fault::Injector* injector = nullptr,
              FtReport* report = nullptr, hybrid::HybridGehrdStats* stats = nullptr);

/// Number of panel iterations ft_gebrd executes for size n, block nb (the
/// same blocking as ft_gehrd).
inline constexpr auto& ft_gebrd_boundaries = ft_total_boundaries;

}  // namespace fth::ft
