// Fault-tolerant hybrid symmetric tridiagonal reduction.
//
// The paper closes by noting its methodology "is generic enough to be
// applicable to the entire spectrum of two-sided factorizations" and names
// the MAGMA hybrid two-sided family as future work; this module carries
// the construction over to sytrd. The symmetric case changes the encoding
// in one interesting way: a stored-triangle error is a *symmetric* logical
// corruption, so any comparison of two linearly-maintained checksums
// cancels it — the Sre-vs-Sce trick of Algorithm 3 is blind here. Instead:
//
//  * two checksum columns are maintained through the rank-2k updates,
//    chk_e = A·e (ones) and chk_w = A·ω (linear weights ω_r = r+1) —
//    the classic two-code ABFT pair;
//  * detection compares chk_e against *freshly recomputed* logical row
//    sums (one SYMV with the ones vector per check — ~1/(2·nb) of the
//    iteration's flops; the `detect_every` knob amortizes it further);
//  * location needs no row/column pairing at all: for a flagged row p the
//    weighted/plain delta ratio yields the column directly
//    (q = Δw(p)/Δe(p) − 1), which also disambiguates diagonal errors from
//    corrupted checksum elements (flagged in chk_e but not chk_w);
//  * recovery reuses the Algorithm 3 machinery unchanged: exact reverse
//    computation of the retained rank-2k products and checksum updates,
//    diskless panel checkpoint, re-execution, and the same QProtector for
//    the Householder storage.
#pragma once

#include "fault/injector.hpp"
#include "ft/ft_gehrd.hpp"  // FtReport / FtEvent / LocatedError
#include "hybrid/hybrid_gehrd.hpp"

namespace fth::ft {

/// Options of ft_sytrd and ft_gebrd (FtGebrdOptions).
struct FtSytrdOptions {
  index_t nb = 32;
  double threshold = 0.0;        ///< per-row detection tolerance; 0 → scaled default
  double threshold_factor = 500.0;
  bool protect_q = true;  ///< protect the Householder storage (gebrd: both families)
  bool final_sweep = true;
  int max_retries = 3;
  /// Run the (SYMV-priced) detection every k iterations. k > 1 lowers the
  /// overhead but recovery is only guaranteed for errors struck since the
  /// previous check — a documented trade-off knob for the ablation bench.
  index_t detect_every = 1;
  /// Optional in-flight fault plane (see FtOptions::fault_plane).
  fault::FaultPlane* fault_plane = nullptr;
};

/// Reduce the symmetric matrix `a` (lower triangle authoritative) to
/// tridiagonal form with transient-error resilience. Output contract of
/// lapack::sytrd; `report`/`stats` as in ft_gehrd.
void ft_sytrd(hybrid::Device& dev, MatrixView<double> a, VectorView<double> d,
              VectorView<double> e, VectorView<double> tau, const FtSytrdOptions& opt = {},
              fault::Injector* injector = nullptr, FtReport* report = nullptr,
              hybrid::HybridGehrdStats* stats = nullptr);

/// Number of panel iterations ft_sytrd executes for size n, block nb (the
/// same blocking as ft_gehrd).
inline constexpr auto& ft_sytrd_boundaries = ft_total_boundaries;

}  // namespace fth::ft
