#include "ft/ft_gehrd.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <vector>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "fault/fault_plane.hpp"
#include "ft/checksum.hpp"
#include "ft/protocol.hpp"
#include "ft/q_protect.hpp"
#include "ft/reverse.hpp"
#include "hybrid/dev_blas.hpp"
#include "la/blas1.hpp"
#include "la/blas2.hpp"
#include "la/blas3.hpp"
#include "obs/trace.hpp"
#include "lapack/lahr2_impl.hpp"
#include "lapack/orghr.hpp"
#include "lapack/reflectors.hpp"

namespace fth::ft {

namespace {

using hybrid::copy_d2h;
using hybrid::copy_d2h_async;
using hybrid::copy_h2d;
using hybrid::copy_h2d_async;

/// All state of one fault-tolerant reduction (Algorithm 3).
class FtDriver final : public Code {
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
        st_(st),
        n_(a.rows()),
        plane_(opt.fault_plane),
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
        qp_(n_),
        proto_("ft_gehrd", dev, *this, rep, a, opt,
               resolve_threshold(a, opt.threshold, opt.threshold_factor)) {
    loc_tol_ = opt.locate_tol > 0 ? opt.locate_tol : proto_.threshold();
  }

  // The boundary loop. Faults are planted after the boundary's check, so a
  // boundary-k strike is detected at boundary k+1.
  void run() {
    proto_.encode();
    index_t i = 0;
    index_t boundary = 0;
    while (i < n_ - 1) {
      const index_t ib = std::min(opt_.nb, n_ - 1 - i);
      const bool completed = run_iteration(i, ib);
      proto_.ensure_clean(boundary + 1, i, ib, completed);
      if (opt_.protect_q) qp_.commit(pending_q_);
      ++boundary;
      ++st_.panels;
      i += ib;
      if (inj_ != nullptr) inject_at_boundary(boundary, i);
    }
    proto_.final_sweep();
    // Bring down the last column (never part of any panel).
    copy_d2h(s_, d_e_.block(0, n_ - 1, n_, 1), a_.block(0, n_ - 1, n_, 1));
    proto_.verify_q();
    proto_.report().checksum_update_seconds = chk_update_seconds_;
    proto_.conclude();
  }

 private:
  // -- Algorithm 3 line 2: encode the matrix on the device. ----------------
  void encode() override {
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
    // Intentional full barrier, once per run: the protocol opens the fault
    // gate (mark_encoded()) next, and the codes must exist on the device
    // before any strike is allowed — a narrower transfer-only edge would
    // let faults fire under the encode kernels. fth-perf: expect coarse-synchronize
    s_.synchronize();
  }

  // -- One full panel iteration (Algorithm 3 lines 4–11). ------------------
  // Returns false if the panel tripwire aborted the iteration before any
  // update was applied (the caller then rolls back the panel and redoes it).
  bool run_iteration(index_t i, index_t ib) override {
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
      proto_.panel_aborted(i);
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
        proto_.report().q_seconds += qt.seconds();
      }
      // The wait also retires the V/T/Y uploads, so the stack-local V
      // staging buffer may die at the end of this scope with no transfer
      // still reading it.
      y_upper_ready.wait();
      lapack::detail::fix_panel_top_rows(a_, y_host_.view(), i, ib);

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

  // -- Lines 12–16 (the ladder is ft::Protocol's): detect, roll back, locate,
  // correct. Detection is the grand-total gap plus a non-finite scan over the
  // live region (trailing columns + both checksum lines; finished device
  // columns are dead storage whose truth lives on the host). The scan is
  // needed because an unpropagated NaN leaves both grand totals NaN —
  // detected — but a NaN pair can also cancel into a *finite* bogus gap, and
  // an Inf strike that has not reached a checksum yet changes neither total.
  Detection detect(index_t i, index_t ib) override {
    const index_t first_col = i + ib;
    Detection det;
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
    det.dirty = !(det.gap <= proto_.threshold()) || det.nonfinite > 0;  // NaN gap is dirty
    return det;
  }

  [[nodiscard]] std::string describe(const Detection& det) const override {
    std::ostringstream os;
    os << "gap " << det.gap << " > threshold " << proto_.threshold() << " with "
       << det.nonfinite << " non-finite entries";
    return os.str();
  }

  void locate(index_t i) override { located_ = locate_errors(i); }

  bool correct(index_t i, FtEvent& ev) override {
    const LocateResult& res = located_;
    const int chk_repairs = apply_corrections(res, i);
    ev.errors.insert(ev.errors.end(), res.data_errors.begin(), res.data_errors.end());
    ev.data_corrections += static_cast<int>(res.data_errors.size());
    ev.checksum_corrections = ev.checksum_corrections + chk_repairs +
                              static_cast<int>(res.chk_col_errors.size() +
                                               res.chk_row_errors.size());
    ev.reconstructions += static_cast<int>(res.reconstructions.size());
    return !res.reconstructions.empty();  // nothing re-derived → no residue
  }

  // -- Line 14: reverse computation (exact, the factors are still live). ---
  void rollback(index_t i, index_t ib, bool completed) override {
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
  [[nodiscard]] DualSum panel_checkpoint_sums(index_t ib) const {
    DualSum s;
    for (index_t j = 0; j < ib; ++j)
      for (index_t r = 0; r < n_; ++r)
        s.add(ckpt_(r, j), static_cast<double>((r + 1) + (j + 1) * (n_ + 1)));
    return s;
  }

  [[nodiscard]] DualSum chkrow_checkpoint_sums(index_t ib) const {
    DualSum s;
    for (index_t j = 0; j < ib; ++j)
      s.add(ckpt_chkrow_(0, j), static_cast<double>((n_ + 1) + (j + 1) * (n_ + 1)));
    return s;
  }

  void save_checkpoint_sums(index_t ib) {
    ckpt_sum_ = panel_checkpoint_sums(ib);
    ckpt_csum_ = chkrow_checkpoint_sums(ib);
  }

  /// Raw task readback of the device's maintained checksum-row segment over
  /// the panel (not a copy_* transfer, therefore not fault-eligible).
  void read_chkrow(index_t i, index_t ib, MatrixView<double> dst) {
    auto e = d_e_.view();
    s_.enqueue("ft.chkrow_readback", FTH_TASK_EFFECTS(FTH_READS(e) FTH_WRITES(dst)),
                [e, dst, i, ib, n = n_]() mutable {
      auto eh = e.in_task();
      for (index_t j = 0; j < ib; ++j) dst(0, j) = eh(n, i + j);
    });
    s_.synchronize();
  }

  void verify_chkrow_checkpoint(index_t i, index_t ib) {
    Matrix<double> ref(1, ib);
    read_chkrow(i, ib, ref.view());
    for (index_t j = 0; j < ib; ++j) {
      if (!bits_equal(ckpt_chkrow_(0, j), ref(0, j))) {
        ckpt_chkrow_(0, j) = ref(0, j);
        proto_.rederived();
      }
    }
  }

  void verify_or_rederive_checkpoint(index_t i, index_t ib, bool completed) {
    if (!panel_checkpoint_sums(ib).same_bits(ckpt_sum_)) {
      // The panel image was struck after save. Escalate to re-derivation:
      // both block updates start at column i+ib, so the device panel
      // columns still hold the exact pre-iteration image. The checksum-row
      // pre-image is NOT touched here — its truth is the maintained code,
      // which may legitimately disagree with the panel data (that
      // disagreement locates a fault that was saved into the checkpoint).
      copy_d2h(s_, d_e_.block(0, i, n_, ib), ckpt_.block(0, 0, n_, ib));
      ckpt_sum_ = panel_checkpoint_sums(ib);
      proto_.rederived();
    }
    if (!chkrow_checkpoint_sums(ib).same_bits(ckpt_csum_)) {
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
        read_chkrow(i, ib, ckpt_chkrow_.view());
      } else {
        for (index_t j = 0; j < ib; ++j) {
          double cs = 0.0;
          for (index_t r = 0; r < n_; ++r) cs += ckpt_(r, j);
          ckpt_chkrow_(0, j) = cs;
        }
      }
      ckpt_csum_ = chkrow_checkpoint_sums(ib);
      proto_.rederived();
    }
  }

  // -- Section IV-F: fresh checksums → locate. ------------------------------
  LocateResult locate_errors(index_t i) {
    copy_d2h(s_, d_e_.view(), ext_scratch_.view());
    const FreshSums fresh =
        fresh_logical_sums(MatrixView<const double>(a_), ext_scratch_.cview(), i);
    const Discrepancy disc = compare_checksums(fresh, ext_scratch_.cview(), loc_tol_);
    return ft::locate(disc, fresh, loc_tol_);
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
      proto_.reconstructed();
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
    const auto due =
        inj_->due(boundary, proto_.total_boundaries(), i_next, n_, proto_.scale_max());
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

  void final_sweep(FtEvent& ev) override {
    locate(n_ - 1);
    correct(n_ - 1, ev);
  }

  int verify_q(double tol) override { return qp_.verify_and_correct(a_, n_ - 1, tol).corrections; }

  hybrid::Device& dev_;
  hybrid::Stream& s_;
  MatrixView<double> a_;
  VectorView<double> tau_;
  const FtOptions& opt_;
  fault::Injector* inj_;
  hybrid::HybridGehrdStats& st_;

  index_t n_;
  fault::FaultPlane* plane_;  ///< optional in-flight fault plane (not owned)
  double loc_tol_ = 0.0;
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
  LocateResult located_;  ///< what locate() found, for correct()
  DualSum ckpt_sum_;      ///< integrity sums of the panel checkpoint, at save
  DualSum ckpt_csum_;     ///< integrity sums of the checksum-row pre-image
  Protocol proto_;
};

}  // namespace

void ft_gehrd(hybrid::Device& dev, MatrixView<double> a, VectorView<double> tau,
              const FtOptions& opt, fault::Injector* injector, FtReport* report,
              hybrid::HybridGehrdStats* stats) {
  const index_t n = a.rows();
  FTH_CHECK(a.cols() == n, "ft_gehrd: matrix must be square");
  FTH_CHECK(tau.size() >= std::max<index_t>(n - 1, 0), "ft_gehrd: tau too short");
  FTH_CHECK(opt.nb >= 1, "ft_gehrd: block size must be positive");
  run_entry(dev, "gehrd", n, report, stats, [&](FtReport& rep, hybrid::HybridGehrdStats& st) {
    if (n > 2) {
      FtDriver(dev, a, tau, opt, injector, rep, st).run();
    } else {
      for (index_t i = 0; i + 1 < n; ++i) tau[i] = 0.0;
    }
  });
}

}  // namespace fth::ft
