#include "ft/ft_gehrd.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>
#include <vector>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "fault/fault_plane.hpp"
#include "ft/checksum.hpp"
#include "ft/q_protect.hpp"
#include "ft/recovery.hpp"
#include "ft/reverse.hpp"
#include "hybrid/dev_blas.hpp"
#include "la/blas1.hpp"
#include "la/blas2.hpp"
#include "la/blas3.hpp"
#include "la/norms.hpp"
#include "obs/dag.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "lapack/lahr2_impl.hpp"
#include "lapack/orghr.hpp"
#include "lapack/reflectors.hpp"

namespace fth::ft {

index_t ft_total_boundaries(index_t n, index_t nb) {
  index_t count = 0;
  index_t i = 0;
  while (i < n - 1) {
    i += std::min(nb, n - 1 - i);
    ++count;
  }
  return count;
}

namespace {

using hybrid::copy_d2h;
using hybrid::copy_d2h_async;
using hybrid::copy_h2d;
using hybrid::copy_h2d_async;

/// Thrown by the panel tripwire when a device-assisted y column comes back
/// non-finite: the reflector chain would smear NaN/Inf across the whole
/// trailing matrix, so the panel is abandoned before any update is applied.
struct panel_poisoned_error {};

/// RAII bracket telling the fault plane a recovery re-execution is active
/// (DuringRecovery faults only count triggers inside the bracket).
class RecoveryScope {
 public:
  explicit RecoveryScope(fault::FaultPlane* p) : p_(p) {
    if (p_ != nullptr) p_->set_in_recovery(true);
  }
  ~RecoveryScope() {
    if (p_ != nullptr) p_->set_in_recovery(false);
  }
  RecoveryScope(const RecoveryScope&) = delete;
  RecoveryScope& operator=(const RecoveryScope&) = delete;

 private:
  fault::FaultPlane* p_;
};

/// Detection result: the grand-total gap plus a count of non-finite
/// entries anywhere in the extended matrix. The scan is needed because an
/// unpropagated NaN in the data leaves both grand totals NaN — detected —
/// but a NaN pair can also cancel into a *finite* bogus gap, and an Inf
/// strike that has not reached a checksum yet changes neither total.
struct DetectResult {
  double gap = 0.0;
  index_t nonfinite = 0;
  [[nodiscard]] bool clean(double threshold) const {
    return gap <= threshold && nonfinite == 0;  // NaN gap fails the comparison
  }
};

/// All state of one fault-tolerant reduction (Algorithm 3).
class FtDriver {
 public:
  FtDriver(hybrid::Device& dev, MatrixView<double> a, VectorView<double> tau,
           const FtOptions& opt, fault::Injector* inj, FtReport& rep,
           hybrid::HybridGehrdStats& st)
      : dev_(dev),
        s_(dev.stream()),
        a_(a),
        tau_(tau),
        opt_(opt),
        inj_(inj),
        rep_(rep),
        st_(st),
        n_(a.rows()),
        d_e_(dev, n_ + 1, n_ + 1, "ft.d_e"),
        d_vce_(dev, n_, std::max<index_t>(opt.nb, 1), "ft.d_vce"),
        d_t_(dev, std::max<index_t>(opt.nb, 1), std::max<index_t>(opt.nb, 1), "ft.d_t"),
        d_yce_(dev, n_ + 1, std::max<index_t>(opt.nb, 1), "ft.d_yce"),
        d_w_(dev, std::max<index_t>(opt.nb, 1), n_ + 1, "ft.d_w"),
        d_ones_(dev, n_ + 1, 1, "ft.d_ones"),
        t_host_(std::max<index_t>(opt.nb, 1), std::max<index_t>(opt.nb, 1)),
        y_host_(n_, std::max<index_t>(opt.nb, 1)),
        ckpt_(n_, std::max<index_t>(opt.nb, 1)),
        ckpt_chkrow_(1, std::max<index_t>(opt.nb, 1)),
        new_chkrow_(1, std::max<index_t>(opt.nb, 1)),
        ext_scratch_(n_ + 1, n_ + 1),
        qp_(n_) {
    const double fro = norm_fro(MatrixView<const double>(a_));
    scale_max_ = norm_max(MatrixView<const double>(a_));
    threshold_ = opt.threshold > 0 ? opt.threshold
                                   : default_threshold(fro, n_, opt.threshold_factor);
    loc_tol_ = opt.locate_tol > 0 ? opt.locate_tol : threshold_;
    rep_.threshold = threshold_;
    total_boundaries_ = ft_total_boundaries(n_, opt.nb);
    plane_ = opt.fault_plane;
    if (plane_ != nullptr) plane_->bind(dev);
  }

  ~FtDriver() {
    if (plane_ != nullptr) {
      // Drain the stream so no hook invocation is in flight when the hooks
      // come down (the plane may be destroyed right after the driver).
      try {
        s_.synchronize();
      } catch (...) {  // NOLINT(bugprone-empty-catch): unwinding already
      }
      plane_->unbind();
    }
  }

  void run() {
    encode();
    index_t i = 0;
    index_t boundary = 0;
    while (i < n_ - 1) {
      const index_t ib = std::min(opt_.nb, n_ - 1 - i);
      const bool completed = run_iteration(i, ib);
      ensure_clean(boundary + 1, i, ib, completed);
      if (opt_.protect_q) qp_.commit(pending_q_);
      ++boundary;
      ++st_.panels;
      i += ib;
      if (inj_ != nullptr) inject_at_boundary(boundary, i);
    }
    final_phase();
    // Clean means NOTHING fired: a run that survived only because a
    // checkpoint was re-derived, a non-finite element reconstructed, or a
    // poisoned panel abandoned was still a recovery.
    rep_.outcome.status = (rep_.detections > 0 || rep_.final_sweep_corrections > 0 ||
                           rep_.q_corrections > 0 || rep_.ckpt_rederivations > 0 ||
                           rep_.reconstructions > 0 || rep_.panel_aborts > 0)
                              ? RecoveryStatus::Recovered
                              : RecoveryStatus::Clean;
  }

 private:
  // -- Algorithm 3 line 2: encode the matrix on the device. ----------------
  void encode() {
    WallTimer t;
    obs::TraceSpan span("ft", "encode", "n", static_cast<double>(n_));
    copy_h2d_async(s_, MatrixView<const double>(a_), d_e_.block(0, 0, n_, n_));
    hybrid::fill_async(s_, d_ones_.view(), 1.0);
    auto ones_n = d_ones_.view().col(0).sub(0, n_);
    // Checksum column: row sums.
    hybrid::gemv_async(s_, Trans::No, 1.0, d_e_.block(0, 0, n_, n_), ones_n, 0.0,
                       d_e_.block(0, n_, n_, 1).col(0));
    // Checksum row: column sums; corner: grand total.
    auto e = d_e_.view();
    hybrid::gemv_async(s_, Trans::Yes, 1.0, d_e_.block(0, 0, n_, n_), ones_n, 0.0,
                       e.row(n_).sub(0, n_));
    s_.enqueue("ft.encode_corner", FTH_TASK_EFFECTS(FTH_WRITES(e)), [e, n = n_] {
      auto eh = e.in_task();
      eh(n, n) = blas::sum(VectorView<const double>(eh.row(n).sub(0, n)));
    });
    // Intentional full barrier, once per run: mark_encoded() below opens
    // the fault gate, and the codes must exist on the device before any
    // strike is allowed — a narrower transfer-only edge would let faults
    // fire under the encode kernels. fth-perf: expect coarse-synchronize
    s_.synchronize();
    rep_.encode_seconds += t.seconds();
    // Faults are gated until the codes exist: an earlier strike would be
    // encoded consistently and become a different (but protected) input.
    if (plane_ != nullptr) plane_->mark_encoded();
  }

  // -- One full panel iteration (Algorithm 3 lines 4–11). ------------------
  // Returns false if the panel tripwire aborted the iteration before any
  // update was applied (the caller then rolls back the panel and redoes it).
  bool run_iteration(index_t i, index_t ib) {
    const index_t vrows = n_ - i - 1;
    const index_t width = n_ + 1 - i - ib;  // trailing data columns + checksum column
    auto e = d_e_.view();

    // Re-aim the fault plane at this iteration's live regions. Finished
    // device columns and the checksum-row segment over the panel are dead
    // storage (their truth lives on the host / is re-encoded below);
    // corrupting them would be a silent no-op that breaks campaign
    // accounting. The checkpoint surface is registered only after its
    // integrity sums are taken, so a strike cannot pre-date the reference.
    if (plane_ != nullptr) {
      plane_->register_surface(fault::Surface::TrailingMatrix,
                               d_e_.block(0, i + ib, n_, n_ - i - ib));
      plane_->register_surface(fault::Surface::ChecksumCol, d_e_.block(0, n_, n_, 1));
      plane_->register_surface(fault::Surface::ChecksumRow,
                               d_e_.block(n_, i + ib, 1, n_ - i - ib));
      plane_->clear_surface(fault::Surface::Checkpoint);
      plane_->clear_transfer_targets();
      // The two fault-eligible transfer destinations inside the protected
      // domain: the checksum-row re-encode (h2d, end of iteration) and the
      // checkpointed checksum-row pre-image (d2h, checkpoint save).
      plane_->add_transfer_target(fault::Surface::ChecksumRow, d_e_.block(n_, i, 1, ib));
      plane_->add_transfer_target(fault::Surface::Checkpoint,
                                  ckpt_chkrow_.block(0, 0, 1, ib));
    }

    // Line 4: panel to host + diskless checkpoint of its pre-image. The
    // checkpoint includes the checksum-row segment over the panel columns:
    // those entries are re-encoded at the end of the iteration (see below)
    // and must be restorable on rollback.
    WallTimer panel_timer;
    {
      obs::TraceSpan ckpt_span("ft", "checkpoint_save", "col", static_cast<double>(i));
      copy_d2h_async(s_, d_e_.block(0, i, n_, ib),
                     a_.block(0, i, n_, ib));
      copy_d2h(s_, d_e_.block(n_, i, 1, ib),
               ckpt_chkrow_.block(0, 0, 1, ib));
      fth::copy(MatrixView<const double>(a_.block(0, i, n_, ib)), ckpt_.block(0, 0, n_, ib));
      // The d2h that filled ckpt_chkrow_ is itself fault-eligible, and the
      // dual-sum verify below can only vouch for what was stored — not for
      // the transfer. Cross-check bitwise against the device's maintained
      // segment via a raw task readback (which is not a copy_* transfer and
      // therefore not fault-eligible) and re-derive on mismatch. Comparing
      // against recomputed column sums would be wrong here: an undetected
      // boundary fault sitting in the panel makes the data legitimately
      // disagree with the maintained code, and that disagreement is exactly
      // what locates the fault after rollback.
      verify_chkrow_checkpoint(i, ib);
      save_checkpoint_sums(ib);
      if (plane_ != nullptr)
        plane_->register_surface(fault::Surface::Checkpoint, ckpt_.block(0, 0, n_, ib));
    }

    // Line 5: host panel factorization; big Y products on the device.
    bool poisoned = false;
    {
      obs::TraceSpan panel_span("hybrid", "panel", "col", static_cast<double>(i));
      try {
        lapack::detail::lahr2_panel(
            a_, i, ib, t_host_.view(), y_host_.view(), tau_.sub(i, ib),
            [&](index_t j, VectorView<const double> vj, VectorView<double> y_col) {
              const index_t cj = i + j;
              auto d_vcol = d_vce_.block(j, j, vj.size(), 1);
              copy_h2d_async(s_, MatrixView<const double>(vj.data(), vj.size(), 1, vj.size()),
                             d_vcol);
              hybrid::gemv_async(s_, Trans::No, 1.0,
                                 d_e_.block(i + 1, cj + 1, vrows, n_ - cj - 1),
                                 d_vcol.col(0), 0.0,
                                 d_yce_.block(i + 1, j, vrows, 1).col(0));
              copy_d2h(s_, d_yce_.block(i + 1, j, vrows, 1),
                       MatrixView<double>(y_col.data(), vrows, 1, vrows));
              // Tripwire: a non-finite y means a NaN/Inf strike reached the
              // trailing matrix mid-panel. Applying the reflector chain
              // would smear it everywhere; abandon the panel instead, while
              // no update has touched the extended matrix yet.
              for (index_t r = 0; r < vrows; ++r)
                if (!std::isfinite(y_col[r])) throw panel_poisoned_error{};
            });
      } catch (const panel_poisoned_error&) {
        poisoned = true;
      }
    }
    st_.panel_seconds += panel_timer.seconds();
    if (poisoned) {
      s_.synchronize();
      ++rep_.panel_aborts;
      obs::counter_metric("ft.panel_aborts").add();
      obs::instant("ft", "panel_abort");
      obs::journal_log(obs::JournalSeverity::Warn, "ft", "panel_abort", -1, 0.0, i);
      return false;
    }

    WallTimer update_timer;
    {
      obs::TraceSpan update_span("hybrid", "update", "col", static_cast<double>(i));
      // Ship clean V / T / corrected lower Y.
      Matrix<double> v = lapack::materialize_v(MatrixView<const double>(a_), i, ib);
      copy_h2d_async(s_, v.cview(), d_vce_.block(0, 0, vrows, ib));
      copy_h2d_async(s_, t_host_.block(0, 0, ib, ib), d_t_.block(0, 0, ib, ib));
      copy_h2d_async(s_, y_host_.block(i + 1, 0, vrows, ib), d_yce_.block(i + 1, 0, vrows, ib));

      // Line 7: column checksums of V (device GEMV with the ones vector).
      auto ones_v = d_ones_.view().col(0).sub(0, vrows);
      auto dv = d_vce_.view();
      s_.enqueue("ft.v_chk", FTH_TASK_EFFECTS(FTH_READS(ones_v) FTH_WRITES(dv)),
                 [this, dv, ones_v, vrows, ib] {
        WallTimer t;
        auto dvh = dv.in_task();
        const auto v = MatrixView<const double>(dvh.block(0, 0, vrows, ib));
        const auto x = VectorView<const double>(ones_v.in_task());
        hybrid::par::gemv(dev_.team(), Trans::Yes, 1.0, v, x, 0.0, dvh.row(vrows).sub(0, ib));
        chk_update_seconds_ += t.seconds();
      });

      // Top rows of Yce: Y(0:i+1,:) = A(0:i+1, i+1:n)·V·T.
      hybrid::gemm_async(s_, Trans::No, Trans::No, 1.0, d_e_.block(0, i + 1, i + 1, vrows),
                         d_vce_.block(0, 0, vrows, ib), 0.0, d_yce_.block(0, 0, i + 1, ib));
      hybrid::trmm_async(s_, Side::Right, Uplo::Upper, Trans::No, Diag::NonUnit, 1.0,
                         d_t_.block(0, 0, ib, ib), d_yce_.block(0, 0, i + 1, ib));

      // Line 6: checksum row of Y, Ychk = Ac_chk(i+1:n)·V·T (device).
      auto dy = d_yce_.view();
      auto dt = d_t_.view();
      s_.enqueue("ft.y_chk", FTH_TASK_EFFECTS(FTH_READS(e, dv, dt) FTH_WRITES(dy)),
                 [this, e, dv, dy, dt, i, ib, vrows] {
        WallTimer t;
        auto eh = e.in_task();
        auto chk_seg = VectorView<const double>(eh.row(n_).sub(i + 1, vrows));
        auto ychk = dy.in_task().row(n_).sub(0, ib);
        const auto v = MatrixView<const double>(dv.in_task().block(0, 0, vrows, ib));
        hybrid::par::gemv(dev_.team(), Trans::Yes, 1.0, v, chk_seg, 0.0, ychk);
        blas::trmv(Uplo::Upper, Trans::Yes, Diag::NonUnit,
                   MatrixView<const double>(dt.in_task().block(0, 0, ib, ib)), ychk);
        chk_update_seconds_ += t.seconds();
      });

      // Fetch the finished top rows of Y for the host-side panel fix.
      copy_d2h_async(s_, d_yce_.block(0, 0, i + 1, ib),
                     y_host_.block(0, 0, i + 1, ib));
      const hybrid::Event y_upper_ready = s_.record();

      // Line 8+10: extended right update, M and G plus both checksums in one
      // GEMM over the trailing columns and the checksum column.
      hybrid::gemm_async(s_, Trans::No, Trans::Yes, -1.0, d_yce_.block(0, 0, n_ + 1, ib),
                         d_vce_.block(ib - 1, 0, vrows - ib + 2, ib), 1.0,
                         d_e_.block(0, i + ib, n_ + 1, width));

      // BetweenUpdates faults strike here: after the extended right update,
      // before the left one (enqueued, so ordering on the stream is exact).
      if (plane_ != nullptr) plane_->on_between_updates(s_);

      // Line 11: extended left update; W is retained for reverse computation.
      // Enqueued BEFORE the host panel fix below — it reads only
      // device-resident operands (Vce, T, the extended trailing columns),
      // so the host work overlaps both big updates instead of just the
      // right one (the paper's line 9/line 10 overlap, widened).
      hybrid::gemm_async(s_, Trans::Yes, Trans::No, 1.0, d_vce_.block(0, 0, vrows, ib),
                         d_e_.block(i + 1, i + ib, vrows, width), 0.0,
                         d_w_.block(0, 0, ib, width));
      hybrid::trmm_async(s_, Side::Left, Uplo::Upper, Trans::Yes, Diag::NonUnit, 1.0,
                         d_t_.block(0, 0, ib, ib), d_w_.block(0, 0, ib, width));
      hybrid::gemm_async(s_, Trans::No, Trans::No, -1.0, d_vce_.block(0, 0, vrows + 1, ib),
                         d_w_.block(0, 0, ib, width), 1.0,
                         d_e_.block(i + 1, i + ib, vrows + 1, width));

      // Host work overlapped with the device GEMMs (Q checksum generation
      // of Section IV-E, then the panel-column fix).
      if (opt_.protect_q) {
        WallTimer qt;
        obs::TraceSpan q_span("ft", "q_checksum");
        pending_q_ = qp_.compute_panel(MatrixView<const double>(a_), i, ib);
        rep_.q_seconds += qt.seconds();
      }
      // The wait also retires the V/T/Y uploads, so the stack-local V
      // staging buffer may die at the end of this scope with no transfer
      // still reading it.
      y_upper_ready.wait();
      blas::trmm(Side::Right, Uplo::Lower, Trans::Yes, Diag::Unit, 1.0,
                 MatrixView<const double>(a_.block(i + 1, i, ib - 1, ib - 1)),
                 y_host_.block(0, 0, i + 1, ib - 1));
      for (index_t j = 0; j + 1 < ib; ++j) {
        blas::axpy(-1.0, VectorView<const double>(y_host_.block(0, j, i + 1, 1).col(0)),
                   a_.block(0, i + 1 + j, i + 1, 1).col(0));
      }

      // The panel columns transition from "trailing data" (checksummed over
      // the full height) to "finished H columns" (checksummed over rows
      // 0..c+1 only — the Householder entries below move under Q's
      // protection). Re-encode the checksum-row segment for the finished
      // columns from the final host data; the pre-image was checkpointed
      // above so rollback can restore it.
      for (index_t j = 0; j < ib; ++j) {
        const index_t c = i + j;
        double cs = 0.0;
        const index_t last = std::min(c + 1, n_ - 1);
        for (index_t r = 0; r <= last; ++r) cs += a_(r, c);
        new_chkrow_(0, j) = cs;
      }
      copy_h2d_async(s_, MatrixView<const double>(new_chkrow_.block(0, 0, 1, ib)),
                     d_e_.block(n_, i, 1, ib));
      // No loop-bottom synchronize: the re-encode h2d stays in flight and
      // is retired by detect()'s synchronous fetch before the host rewrites
      // new_chkrow_ next iteration (fth_analyze --perf flagged the old
      // barrier as coarse-synchronize, and the loop-carried pass proves the
      // detect edge covers it).
    }
    st_.update_seconds += update_timer.seconds();
    return true;
  }

  // -- Lines 12–16: detect, and if needed roll back / locate / correct / redo.
  // The escalation ladder on a dirty boundary: bounded retries of
  // (rollback → checkpoint verify/re-derive → locate → correct → redo);
  // every exit that cannot restore a consistent state goes through
  // abort_recovery, which fills rep_.outcome before throwing.
  void ensure_clean(index_t boundary, index_t i, index_t ib, bool completed) {
    int attempts = 0;
    for (;;) {
      DetectResult det;
      if (completed) {
        det = detect(i + ib);
        if (det.clean(threshold_)) {
          rep_.max_fault_free_gap = std::max(rep_.max_fault_free_gap, det.gap);
          return;
        }
      } else {
        // The panel tripwire already proved the iteration unusable; there
        // is nothing meaningful to measure, so synthesize the detection.
        det.gap = std::numeric_limits<double>::quiet_NaN();
        det.nonfinite = 1;
      }
      ++rep_.detections;
      obs::instant("ft", "detection");
      obs::counter_metric("ft.detections").add();
      obs::journal_log(obs::JournalSeverity::Warn, "ft", "detect", -1, det.gap, boundary);
      if (det.nonfinite > 0) obs::counter_metric("ft.nonfinite_detections").add();
      if (++attempts > opt_.max_retries) {
        std::ostringstream os;
        os << "gap " << det.gap << " > threshold " << threshold_ << " with "
           << det.nonfinite << " non-finite entries after exhausting retries";
        abort_recovery(rep_.outcome, "ft_gehrd", AbortReason::RetriesExhausted, boundary,
                       attempts - 1, det.gap, threshold_, os.str());
      }

      WallTimer rt;
      FtEvent ev;
      ev.boundary = boundary;
      ev.gap = det.gap;
      ev.panel_poisoned = !completed;

      {
        // The DAG mark makes recovery episodes visible on the host chain,
        // so fth_why can separate rollback-induced stalls from steady-state
        // pipeline waits.
        obs::dag::mark("ft.rollback");
        obs::TraceSpan rb_span("ft", "rollback", "col", static_cast<double>(i));
        rollback(i, ib, completed);
      }
      ++rep_.rollbacks;
      obs::counter_metric("ft.rollbacks").add();
      obs::journal_log(obs::JournalSeverity::Info, "ft", "rollback", -1,
                       static_cast<double>(attempts), boundary);

      try {
        // Pass 1 may reconstruct non-finite elements from the orthogonal
        // code; when huge intermediates were involved the rollback leaves
        // finite round-off residue behind, so a second pass mops that up.
        for (int pass = 0; pass < 2; ++pass) {
          LocateResult res;
          {
            obs::TraceSpan loc_span("ft", "locate");
            res = locate_errors(i);
          }
          int chk_repairs = 0;
          {
            obs::TraceSpan fix_span("ft", "correct");
            chk_repairs = apply_corrections(res, i);
          }
          ev.errors.insert(ev.errors.end(), res.data_errors.begin(), res.data_errors.end());
          ev.data_corrections += static_cast<int>(res.data_errors.size());
          ev.checksum_corrections = ev.checksum_corrections + chk_repairs +
                                    static_cast<int>(res.chk_col_errors.size() +
                                                     res.chk_row_errors.size());
          ev.reconstructions += static_cast<int>(res.reconstructions.size());
          if (res.reconstructions.empty()) break;  // nothing re-derived → no residue
        }
      } catch (const recovery_error& e) {
        // Location (or reconstruction) gave up: the pattern exceeds the
        // code's correction capability. Record the abandoned iteration,
        // then abort with the structured cause.
        const AbortReason why = det.nonfinite > 0 ? AbortReason::NonfiniteDamage
                                                  : AbortReason::AmbiguousPattern;
        rep_.events.push_back(std::move(ev));
        abort_recovery(rep_.outcome, "ft_gehrd", why, boundary, attempts, det.gap,
                       threshold_, e.what());
      }
      ev.checkpoint_only = ev.data_corrections == 0 && ev.checksum_corrections == 0 &&
                           ev.reconstructions == 0;
      rep_.data_corrections += ev.data_corrections;
      rep_.checksum_corrections += ev.checksum_corrections;
      obs::counter_metric("ft.data_corrections").add(static_cast<std::uint64_t>(ev.data_corrections));
      obs::counter_metric("ft.checksum_corrections")
          .add(static_cast<std::uint64_t>(ev.checksum_corrections));
      if (ev.checkpoint_only) obs::counter_metric("ft.checkpoint_only_recoveries").add();
      rep_.events.push_back(std::move(ev));

      {
        obs::dag::mark("ft.reexec");
        obs::TraceSpan redo_span("ft", "reexec", "col", static_cast<double>(i));
        obs::counter_metric("ft.reexecutions").add();
        obs::journal_log(obs::JournalSeverity::Info, "ft", "reexec", -1,
                         static_cast<double>(attempts), boundary);
        const RecoveryScope in_recovery(plane_);
        completed = run_iteration(i, ib);  // redo from the restored checkpoint
      }
      rep_.recovery_seconds += rt.seconds();
    }
  }

  // Detection: grand-total gap plus a non-finite scan over the live region
  // (trailing columns + both checksum lines; finished device columns are
  // dead storage whose truth lives on the host). `first_col` is the first
  // trailing column at this boundary.
  DetectResult detect(index_t first_col) {
    WallTimer t;
    obs::TraceSpan span("ft", "detect");
    DetectResult det;
    auto e = d_e_.view();
    s_.enqueue("ft.detect", FTH_TASK_EFFECTS(FTH_READS(e)),
               [this, e, n = n_, first_col, &det] {
      auto eh = e.in_task();
      const double sre = blas::sum(VectorView<const double>(eh.col(n).sub(0, n)));
      const double sce = blas::sum(VectorView<const double>(eh.row(n).sub(0, n)));
      det.gap = std::abs(sre - sce);
      index_t nf = hybrid::par::count_nonfinite(
          dev_.team(), MatrixView<const double>(eh.block(0, first_col, n + 1, n + 1 - first_col)));
      for (index_t c = 0; c < first_col; ++c)
        if (!std::isfinite(eh(n, c))) ++nf;
      det.nonfinite = nf;
    });
    s_.synchronize();
    rep_.detect_seconds += t.seconds();
    if (std::isfinite(det.gap)) {
      obs::histogram_metric("ft.detect_gap").observe(det.gap);
      obs::counter("ft.detect_gap", det.gap);
    }
    return det;
  }

  // -- Line 14: reverse computation (exact, the factors are still live). ---
  void rollback(index_t i, index_t ib, bool completed) {
    const index_t vrows = n_ - i - 1;
    const index_t width = n_ + 1 - i - ib;
    auto e = d_e_.view();
    auto dv = d_vce_.view();
    auto dy = d_yce_.view();
    auto dw = d_w_.view();
    if (completed) {
      s_.enqueue("ft.reverse_update", FTH_TASK_EFFECTS(FTH_READS(dv, dy) FTH_WRITES(e, dw)),
                  [e, dv, dy, dw, i, ib, vrows, width] {
        // Undo the left update first (it was applied last), then the right.
        auto eh = e.in_task();
        auto dvh = dv.in_task();
        reverse_left_update(eh.block(i + 1, i + ib, vrows + 1, width),
                            dvh.block(0, 0, vrows + 1, ib),
                            dw.in_task().block(0, 0, ib, width));
        reverse_right_update(eh.block(0, i + ib, eh.rows(), width),
                             dy.in_task().block(0, 0, eh.rows(), ib),
                             dvh.block(ib - 1, 0, vrows - ib + 2, ib));
      });
    }
    // Drain before touching the checkpoint from the host: in-flight faults
    // fire on the worker thread and may target the checkpoint buffers.
    s_.synchronize();
    obs::TraceSpan restore_span("ft", "checkpoint_restore", "col", static_cast<double>(i));
    verify_or_rederive_checkpoint(i, ib, completed);
    // Restore the panel (and its host-side upper rows) from the checkpoint
    // while the stream is idle, then the checksum-row segment the completed
    // iteration re-encoded (the h2d runs last so a transfer fault striking
    // it can no longer reach the already-consumed host buffers; the redo
    // re-encodes the segment anyway).
    fth::copy(MatrixView<const double>(ckpt_.block(0, 0, n_, ib)), a_.block(0, i, n_, ib));
    if (completed) {
      copy_h2d(s_, ckpt_chkrow_.block(0, 0, 1, ib), d_e_.block(n_, i, 1, ib));
    }
  }

  // -- Checkpoint integrity (the checkpoint itself is a fault target). ------
  // Dual sums (plain + position-weighted) compared bitwise at restore time:
  // any corruption of the host buffers between save and restore — including
  // NaN, which is unequal to itself — flips at least one sum. The panel data
  // and the checksum-row pre-image carry SEPARATE sum pairs on purpose: an
  // undetected boundary fault may legitimately sit in the panel data while
  // the maintained code in ckpt_chkrow_ does not include it, and that
  // disagreement is what locates the fault after rollback. A fused pair
  // would force a data-only strike to re-derive the (pristine) code from
  // the faulty data, encoding the fault as correct — a silent-wrong result.
  void panel_checkpoint_sums(double& s1, double& s2, index_t ib) const {
    s1 = 0.0;
    s2 = 0.0;
    for (index_t j = 0; j < ib; ++j) {
      for (index_t r = 0; r < n_; ++r) {
        const double v = ckpt_(r, j);
        s1 += v;
        s2 += v * static_cast<double>((r + 1) + (j + 1) * (n_ + 1));
      }
    }
  }

  void chkrow_checkpoint_sums(double& s1, double& s2, index_t ib) const {
    s1 = 0.0;
    s2 = 0.0;
    for (index_t j = 0; j < ib; ++j) {
      const double c = ckpt_chkrow_(0, j);
      s1 += c;
      s2 += c * static_cast<double>((n_ + 1) + (j + 1) * (n_ + 1));
    }
  }

  static bool bits_equal(double a, double b) {
    return std::memcmp(&a, &b, sizeof(double)) == 0;
  }

  void save_checkpoint_sums(index_t ib) {
    panel_checkpoint_sums(ckpt_sum1_, ckpt_sum2_, ib);
    chkrow_checkpoint_sums(ckpt_csum1_, ckpt_csum2_, ib);
  }

  void verify_chkrow_checkpoint(index_t i, index_t ib) {
    Matrix<double> ref(1, ib);
    auto e = d_e_.view();
    auto rv = ref.view();
    s_.enqueue("ft.chkrow_readback", FTH_TASK_EFFECTS(FTH_READS(e) FTH_WRITES(rv)),
                [e, rv, i, ib, n = n_]() mutable {
      auto eh = e.in_task();
      for (index_t j = 0; j < ib; ++j) rv(0, j) = eh(n, i + j);
    });
    s_.synchronize();
    for (index_t j = 0; j < ib; ++j) {
      if (!bits_equal(ckpt_chkrow_(0, j), ref(0, j))) {
        ckpt_chkrow_(0, j) = ref(0, j);
        ++rep_.ckpt_rederivations;
        obs::counter_metric("ft.ckpt_rederivations").add();
        obs::instant("ft", "ckpt_rederive");
      }
    }
  }

  void verify_or_rederive_checkpoint(index_t i, index_t ib, bool completed) {
    double s1 = 0.0;
    double s2 = 0.0;
    panel_checkpoint_sums(s1, s2, ib);
    if (!bits_equal(s1, ckpt_sum1_) || !bits_equal(s2, ckpt_sum2_)) {
      // The panel image was struck after save. Escalate to re-derivation:
      // both block updates start at column i+ib, so the device panel
      // columns still hold the exact pre-iteration image. The checksum-row
      // pre-image is NOT touched here — its truth is the maintained code,
      // which may legitimately disagree with the panel data (that
      // disagreement locates a fault that was saved into the checkpoint).
      copy_d2h(s_, d_e_.block(0, i, n_, ib), ckpt_.block(0, 0, n_, ib));
      panel_checkpoint_sums(ckpt_sum1_, ckpt_sum2_, ib);
      ++rep_.ckpt_rederivations;
      obs::counter_metric("ft.ckpt_rederivations").add();
      obs::instant("ft", "ckpt_rederive");
    }
    double c1 = 0.0;
    double c2 = 0.0;
    chkrow_checkpoint_sums(c1, c2, ib);
    if (!bits_equal(c1, ckpt_csum1_) || !bits_equal(c2, ckpt_csum2_)) {
      // The checksum-row pre-image was struck. Prefer the device's
      // maintained segment (still pristine when the iteration never reached
      // its re-encode); once the re-encode has run, fall back to the
      // panel's full-height column sums — the panel columns were trailing
      // data when the iteration began, so those sums ARE the code (up to
      // the rounding the threshold absorbs). Residual window: if a boundary
      // fault also sits inside the checkpointed panel, the fallback encodes
      // it into the column code and only the orthogonal row code can still
      // see it — a documented double-fault limitation (DESIGN.md §9).
      if (!completed) {
        auto e = d_e_.view();
        auto cv = ckpt_chkrow_.view();
        s_.enqueue("ft.chkrow_readback", FTH_TASK_EFFECTS(FTH_READS(e) FTH_WRITES(cv)),
                    [e, cv, i, ib, n = n_]() mutable {
          auto eh = e.in_task();
          for (index_t j = 0; j < ib; ++j) cv(0, j) = eh(n, i + j);
        });
        s_.synchronize();
      } else {
        for (index_t j = 0; j < ib; ++j) {
          double cs = 0.0;
          for (index_t r = 0; r < n_; ++r) cs += ckpt_(r, j);
          ckpt_chkrow_(0, j) = cs;
        }
      }
      chkrow_checkpoint_sums(ckpt_csum1_, ckpt_csum2_, ib);
      ++rep_.ckpt_rederivations;
      obs::counter_metric("ft.ckpt_rederivations").add();
      obs::instant("ft", "ckpt_rederive");
    }
  }

  // -- Section IV-F: fresh checksums → locate. ------------------------------
  LocateResult locate_errors(index_t i) {
    copy_d2h(s_, d_e_.view(), ext_scratch_.view());
    const FreshSums fresh =
        fresh_logical_sums(MatrixView<const double>(a_), ext_scratch_.cview(), i);
    const Discrepancy disc = compare_checksums(fresh, ext_scratch_.cview(), loc_tol_);
    return locate(disc, fresh, loc_tol_);
  }

  // Returns the number of checksum entries repaired by the reconstruction
  // path (0 when there was no non-finite damage).
  int apply_corrections(const LocateResult& res, index_t i) {
    auto e = d_e_.view();
    for (const auto& err : res.data_errors) {
      if (err.col >= i) {
        s_.enqueue("ft.correct", FTH_TASK_EFFECTS(FTH_WRITES(e)),
                   [e, err] { e.in_task()(err.row, err.col) -= err.delta; });
      } else {
        a_(err.row, err.col) -= err.delta;
      }
    }
    for (const auto& c : res.chk_col_errors) {
      s_.enqueue("ft.correct", FTH_TASK_EFFECTS(FTH_WRITES(e)),
                 [e, c, n = n_] { e.in_task()(c.index, n) = c.fresh; });
    }
    for (const auto& c : res.chk_row_errors) {
      s_.enqueue("ft.correct", FTH_TASK_EFFECTS(FTH_WRITES(e)),
                 [e, c, n = n_] { e.in_task()(n, c.index) = c.fresh; });
    }
    int chk_repairs = 0;
    if (!res.reconstructions.empty()) chk_repairs = reconstruct(res.reconstructions, i);
    s_.synchronize();
    return chk_repairs;
  }

  // -- Non-finite recovery: element reconstruction from the orthogonal code.
  // Rollback cannot cancel NaN/Inf (x + NaN − NaN stays NaN), but the
  // damage is line-confined by construction when locate() hands out
  // targets: re-derive each element as (maintained code) − (line sum with
  // the damaged elements zeroed), then repair any checksum storage the
  // damage propagated through. Uses ext_scratch_, which locate_errors just
  // filled with the post-rollback extended matrix.
  int reconstruct(const std::vector<ReconstructTarget>& targets, index_t i) {
    auto ext = ext_scratch_.view();
    for (const auto& t : targets) ext(t.row, t.col) = 0.0;
    const FreshSums base =
        fresh_logical_sums(MatrixView<const double>(a_), ext_scratch_.cview(), i);
    auto e = d_e_.view();
    for (const auto& t : targets) {
      const double code = t.use_row_code ? ext(t.row, n_) : ext(n_, t.col);
      const double rest = t.use_row_code ? base.row[static_cast<std::size_t>(t.row)]
                                         : base.col[static_cast<std::size_t>(t.col)];
      if (!std::isfinite(code) || !std::isfinite(rest)) {
        throw recovery_error(
            "non-finite damage: the orthogonal code needed for element "
            "reconstruction is itself lost");
      }
      const double v = code - rest;
      ext(t.row, t.col) = v;
      if (t.col >= i) {
        s_.enqueue("ft.reconstruct", FTH_TASK_EFFECTS(FTH_WRITES(e)),
                    [e, t, v] { e.in_task()(t.row, t.col) = v; });
      } else {
        a_(t.row, t.col) = v;
      }
      ++rep_.reconstructions;
      obs::counter_metric("ft.reconstructions").add();
      obs::instant("ft", "reconstruction");
    }
    // Checksum storage the non-finite values propagated through (e.g. the
    // checksum-row entry of a poisoned column) is re-derived from the
    // now-finite data; the corner is the checksum-row total.
    const FreshSums fixed =
        fresh_logical_sums(MatrixView<const double>(a_), ext_scratch_.cview(), i);
    int chk_repairs = 0;
    for (index_t r = 0; r < n_; ++r) {
      if (std::isfinite(ext(r, n_))) continue;
      const double f = fixed.row[static_cast<std::size_t>(r)];
      if (!std::isfinite(f))
        throw recovery_error("non-finite checksum column with non-finite fresh row sum");
      ext(r, n_) = f;
      s_.enqueue("ft.reconstruct", FTH_TASK_EFFECTS(FTH_WRITES(e)),
                  [e, r, n = n_, f] { e.in_task()(r, n) = f; });
      ++chk_repairs;
    }
    for (index_t c = 0; c < n_; ++c) {
      if (std::isfinite(ext(n_, c))) continue;
      const double f = fixed.col[static_cast<std::size_t>(c)];
      if (!std::isfinite(f))
        throw recovery_error("non-finite checksum row with non-finite fresh column sum");
      ext(n_, c) = f;
      s_.enqueue("ft.reconstruct", FTH_TASK_EFFECTS(FTH_WRITES(e)),
                  [e, c, n = n_, f] { e.in_task()(n, c) = f; });
      ++chk_repairs;
    }
    if (!std::isfinite(ext(n_, n_))) {
      double corner = 0.0;
      for (index_t c = 0; c < n_; ++c) corner += ext(n_, c);
      ext(n_, n_) = corner;
      s_.enqueue("ft.reconstruct", FTH_TASK_EFFECTS(FTH_WRITES(e)),
                  [e, n = n_, corner] { e.in_task()(n, n) = corner; });
      ++chk_repairs;
    }
    return chk_repairs;
  }

  void inject_at_boundary(index_t boundary, index_t i_next) {
    const auto due = inj_->due(boundary, total_boundaries_, i_next, n_, scale_max_);
    auto e = d_e_.view();
    bool device_faults = false;
    for (const auto& f : due) {
      if (f.col >= i_next) {
        s_.enqueue("fault.inject", FTH_TASK_EFFECTS(FTH_WRITES(e)), [e, f] {
          auto eh = e.in_task();
          eh(f.row, f.col) = f.apply(eh(f.row, f.col));
        });
        device_faults = true;
      } else {
        a_(f.row, f.col) = f.apply(a_(f.row, f.col));
      }
      inj_->record(boundary, f);
    }
    // One drain for the whole batch: the per-fault synchronize of the first
    // implementation serialized multi-fault injection for no benefit.
    if (device_faults) s_.synchronize();
  }

  void final_phase() {
    // Final sweep: catches errors that never propagated (finished H, the
    // last trailing column, or checksum elements hit after the last check).
    if (opt_.final_sweep) {
      rep_.final_sweep_ran = true;
      WallTimer t;
      obs::TraceSpan sweep_span("ft", "final_sweep");
      LocateResult res;
      try {
        res = locate_errors(n_ - 1);
      } catch (const recovery_error& e) {
        abort_recovery(rep_.outcome, "ft_gehrd", AbortReason::AmbiguousPattern,
                       total_boundaries_, 0, 0.0, threshold_,
                       std::string("final sweep: ") + e.what());
      }
      const int chk_repairs = apply_corrections(res, n_ - 1);
      rep_.final_sweep_corrections =
          static_cast<int>(res.data_errors.size() + res.chk_col_errors.size() +
                           res.chk_row_errors.size() + res.reconstructions.size()) +
          chk_repairs;
      rep_.data_corrections += static_cast<int>(res.data_errors.size());
      rep_.checksum_corrections +=
          static_cast<int>(res.chk_col_errors.size() + res.chk_row_errors.size()) +
          chk_repairs;
      obs::counter_metric("ft.data_corrections").add(res.data_errors.size());
      obs::counter_metric("ft.checksum_corrections")
          .add(res.chk_col_errors.size() + res.chk_row_errors.size() +
               static_cast<std::size_t>(chk_repairs));
      rep_.detect_seconds += t.seconds();
    }

    // Bring down the last column (never part of any panel).
    copy_d2h(s_, d_e_.block(0, n_ - 1, n_, 1), a_.block(0, n_ - 1, n_, 1));

    // Section IV-E: verify + correct the Householder storage once.
    if (opt_.protect_q) {
      WallTimer qt;
      obs::TraceSpan q_span("ft", "q_verify");
      const double q_tol = 1e3 * eps<double>() * static_cast<double>(n_) *
                           std::max(1.0, scale_max_);
      const auto qres = qp_.verify_and_correct(a_, n_ - 1, q_tol);
      rep_.q_corrections += qres.corrections;
      obs::counter_metric("ft.q_corrections").add(static_cast<std::uint64_t>(qres.corrections));
      rep_.q_seconds += qt.seconds();
    }
    rep_.checksum_update_seconds = chk_update_seconds_;
  }

  hybrid::Device& dev_;
  hybrid::Stream& s_;
  MatrixView<double> a_;
  VectorView<double> tau_;
  const FtOptions& opt_;
  fault::Injector* inj_;
  FtReport& rep_;
  hybrid::HybridGehrdStats& st_;

  index_t n_;
  double threshold_ = 0.0;
  double loc_tol_ = 0.0;
  double scale_max_ = 0.0;
  index_t total_boundaries_ = 0;
  double chk_update_seconds_ = 0.0;  // written by stream tasks, read after sync

  hybrid::DeviceMatrix<double> d_e_;
  hybrid::DeviceMatrix<double> d_vce_;
  hybrid::DeviceMatrix<double> d_t_;
  hybrid::DeviceMatrix<double> d_yce_;
  hybrid::DeviceMatrix<double> d_w_;
  hybrid::DeviceMatrix<double> d_ones_;

  Matrix<double> t_host_;
  Matrix<double> y_host_;
  Matrix<double> ckpt_;
  Matrix<double> ckpt_chkrow_;  ///< pre-iteration checksum-row segment over the panel
  Matrix<double> new_chkrow_;   ///< re-encoded segment for the finished panel
  Matrix<double> ext_scratch_;  ///< host snapshot of the extended matrix (locate/reconstruct)
  QProtector qp_;
  QProtector::PanelChecksums pending_q_;

  fault::FaultPlane* plane_ = nullptr;  ///< optional in-flight fault plane (not owned)
  double ckpt_sum1_ = 0.0;  ///< dual integrity sums of the panel checkpoint, at save
  double ckpt_sum2_ = 0.0;
  double ckpt_csum1_ = 0.0;  ///< dual integrity sums of the checksum-row pre-image
  double ckpt_csum2_ = 0.0;
};

}  // namespace

void ft_gehrd(hybrid::Device& dev, MatrixView<double> a, VectorView<double> tau,
              const FtOptions& opt, fault::Injector* injector, FtReport* report,
              hybrid::HybridGehrdStats* stats) {
  const index_t n = a.rows();
  FTH_CHECK(a.cols() == n, "ft_gehrd: matrix must be square");
  FTH_CHECK(tau.size() >= std::max<index_t>(n - 1, 0), "ft_gehrd: tau too short");
  FTH_CHECK(opt.nb >= 1, "ft_gehrd: block size must be positive");

  FtReport local_rep;
  hybrid::HybridGehrdStats local_st;
  FtReport& rep = report != nullptr ? *report : local_rep;
  hybrid::HybridGehrdStats& st = stats != nullptr ? *stats : local_st;
  rep = {};
  st = {};

  obs::TraceSpan run_span("ft", "gehrd", "n", static_cast<double>(n));
  WallTimer total;
  const hybrid::detail::StatsScope scope(dev);

  if (n > 2) {
    FtDriver driver(dev, a, tau, opt, injector, rep, st);
    driver.run();
  } else {
    for (index_t i = 0; i + 1 < n; ++i) tau[i] = 0.0;
  }

  st.total_seconds = total.seconds();
  scope.finish(st);
}

}  // namespace fth::ft
