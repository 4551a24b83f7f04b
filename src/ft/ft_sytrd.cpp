#include "ft/ft_sytrd.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <vector>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "fault/fault_plane.hpp"
#include "ft/checksum.hpp"
#include "ft/protocol.hpp"
#include "ft/q_protect.hpp"
#include "hybrid/dev_blas.hpp"
#include "la/blas1.hpp"
#include "la/blas2.hpp"
#include "obs/trace.hpp"
#include "lapack/orghr.hpp"
#include "lapack/sytrd_impl.hpp"

namespace fth::ft {

namespace {

using hybrid::copy_d2h;
using hybrid::copy_d2h_async;
using hybrid::copy_h2d_async;

class FtSytrdDriver final : public Code {
 public:
  FtSytrdDriver(hybrid::Device& dev, MatrixView<double> a, VectorView<double> d,
                VectorView<double> e, VectorView<double> tau, const FtSytrdOptions& opt,
                fault::Injector* inj, FtReport& rep, hybrid::HybridGehrdStats& st)
      : s_(dev.stream()),
        a_(a),
        d_(d),
        e_(e),
        tau_(tau),
        opt_(opt),
        inj_(inj),
        st_(st),
        n_(a.rows()),
        threshold_(resolve_row_threshold(a, opt.threshold, opt.threshold_factor)),
        plane_(opt.fault_plane),
        d_a_(dev, n_, n_, "sytrd.ft.d_a"),
        d_v_(dev, n_, std::max<index_t>(opt.nb, 1), "sytrd.ft.d_v"),
        d_w_(dev, n_, std::max<index_t>(opt.nb, 1), "sytrd.ft.d_w"),
        d_chke_(dev, n_, 1, "sytrd.ft.d_chke"),
        d_chkw_(dev, n_, 1, "sytrd.ft.d_chkw"),
        d_ones_(dev, n_, 1, "sytrd.ft.d_ones"),
        d_wvec_(dev, n_, 1, "sytrd.ft.d_wvec"),
        d_sums_(dev, std::max<index_t>(opt.nb, 1), 4, "sytrd.ft.d_sums"),
        d_pc_(dev, n_, 2, "sytrd.ft.d_pc"),
        d_fresh_(dev, n_, 1, "sytrd.ft.d_fresh"),
        w_host_(n_, std::max<index_t>(opt.nb, 1)),
        v_host_(n_, std::max<index_t>(opt.nb, 1)),
        ckpt_(n_, std::max<index_t>(opt.nb, 1)),
        seg_(std::max<index_t>(opt.nb, 1), 2),
        qp_(n_),
        chk_(proto_, s_, d_chke_, d_chkw_),
        proto_("ft_sytrd", dev, *this, rep, a, opt, threshold_) {}

  // The boundary loop. Faults strike at the boundary, i.e. before the
  // end-of-iteration check — so a hit anywhere (including the next panel's
  // interior) is detected and repaired before the next factorization step
  // consumes it, exactly the "correct before it propagates" discipline of
  // the paper.
  void run() {
    proto_.encode();
    index_t i = 0;
    index_t boundary = 0;
    while (i < n_ - 1) {
      const index_t ib = std::min(opt_.nb, n_ - 1 - i);
      const bool completed = run_iteration(i, ib);
      ++boundary;
      if (inj_ != nullptr) inject_at_boundary(boundary, i + ib);
      const bool check_now = opt_.detect_every <= 1 ||
                             boundary % opt_.detect_every == 0 || i + ib >= n_ - 1;
      // A poisoned panel forces a check regardless of the amortization
      // knob: the next iteration would otherwise consume the damage.
      if (check_now || !completed) proto_.ensure_clean(boundary, i, ib, completed);
      if (opt_.protect_q) qp_.commit(pending_q_);
      ++st_.panels;
      i += ib;
    }
    // Fetch the last diagonal element (never part of a panel).
    copy_d2h(s_, d_a_.block(n_ - 1, n_ - 1, 1, 1), a_.block(n_ - 1, n_ - 1, 1, 1));
    proto_.final_sweep();
    proto_.verify_q();
    // Single source of truth: extract d and e from the (possibly repaired)
    // host matrix.
    for (index_t r = 0; r < n_; ++r) d_[r] = a_(r, r);
    for (index_t r = 0; r + 1 < n_; ++r) e_[r] = a_(r + 1, r);
    proto_.conclude();
  }

 private:
  void encode() override {
    copy_h2d_async(s_, MatrixView<const double>(a_), d_a_.view());
    hybrid::fill_async(s_, d_ones_.view(), 1.0);
    s_.enqueue("ft.iota", FTH_TASK_EFFECTS(FTH_WRITES(d_wvec_.view())),
                [wv = d_wvec_.view()] {
      auto wvh = wv.in_task();
      for (index_t r = 0; r < wvh.rows(); ++r) wvh(r, 0) = static_cast<double>(r + 1);
    });
    // chk_e = A_sym·e, chk_w = A_sym·ω (device SYMVs over the lower triangle).
    hybrid::symv_async(s_, Uplo::Lower, 1.0, d_a_.view(), d_ones_.view().col(0), 0.0,
                       d_chke_.view().col(0));
    hybrid::symv_async(s_, Uplo::Lower, 1.0, d_a_.view(), d_wvec_.view().col(0), 0.0,
                       d_chkw_.view().col(0));
    // Intentional full barrier, once per run: the protocol opens the fault
    // gate (mark_encoded()) next, and both codes must exist on the device
    // before any strike is allowed. fth-perf: expect coarse-synchronize
    s_.synchronize();
  }

  // Returns false if the panel tripwire abandoned the iteration before any
  // update touched the trailing matrix (caller rolls back and redoes).
  bool run_iteration(index_t i, index_t ib) override {
    const index_t vrows = n_ - i - 1;
    const index_t tn = n_ - i - ib;

    // Re-aim the fault plane at this iteration's live regions. The device
    // panel columns are excluded: the panel is factored from host data and
    // the finished rows are re-encoded from host values, so a strike there
    // becomes consistent-wrong dead storage the accounting cannot see. The
    // strictly upper triangle of d_a_ is likewise never read (LowerTriangle
    // shape). The checkpoint surface is registered only after its integrity
    // sums are taken, so a strike cannot pre-date the reference.
    if (plane_ != nullptr) {
      plane_->register_surface(fault::Surface::TrailingMatrix,
                               d_a_.block(i + ib, i + ib, tn, tn),
                               fault::SurfaceShape::LowerTriangle);
      // Trailing segments only: the panel segments [i, i+ib) are re-encoded
      // from the finished host rows at the end of the iteration, so a strike
      // there before the re-encode is dead storage the comparison never sees.
      plane_->register_surface(fault::Surface::ChecksumCol,
                               d_chke_.block(i + ib, 0, tn, 1));
      // The weighted code rides under the ChecksumRow label — sytrd has no
      // checksum row; its second line of defense is the ω-weighted column.
      plane_->register_surface(fault::Surface::ChecksumRow,
                               d_chkw_.block(i + ib, 0, tn, 1));
      plane_->clear_surface(fault::Surface::Checkpoint);
      plane_->clear_transfer_targets();
      // Fault-eligible transfer destinations inside the protected domain:
      // the checkpointed checksum-vector pre-images (d2h, checkpoint save).
      // The panel d2h lands in host a_, the reliable domain by the paper's
      // model — corrupting it would be a silently wrong result everywhere.
      plane_->add_transfer_target(fault::Surface::Checkpoint, chk_.ckpt(0));
      plane_->add_transfer_target(fault::Surface::Checkpoint, chk_.ckpt(1));
    }

    // Panel to host + diskless checkpoints (panel pre-image and both
    // checksum vectors — the vectors are O(n), so checkpointing beats
    // reverse-computing them).
    WallTimer panel_timer;
    {
      obs::TraceSpan ckpt_span("ft", "checkpoint_save", "col", static_cast<double>(i));
      copy_d2h_async(s_, d_a_.block(0, i, n_, ib), a_.block(0, i, n_, ib));
      copy_d2h_async(s_, d_chke_.view(), chk_.ckpt(0));
      copy_d2h(s_, d_chkw_.view(), chk_.ckpt(1));
      fth::copy(MatrixView<const double>(a_.block(0, i, n_, ib)), ckpt_.block(0, 0, n_, ib));
      // The d2h that filled the vector checkpoints is itself fault-eligible
      // and the dual-sum verify can only vouch for what was stored, not for
      // the transfer: cross-check it against the device's vectors.
      chk_.cross_check();
      ckpt_sum_ = panel_checkpoint_sums(ib);
      if (plane_ != nullptr)
        plane_->register_surface(fault::Surface::Checkpoint, ckpt_.block(0, 0, n_, ib));
    }

    // Host panel with device-assisted SYMV.
    bool poisoned = false;
    {
      obs::TraceSpan panel_span("hybrid", "panel", "col", static_cast<double>(i));
      try {
        lapack::detail::latrd_panel(
            a_, i, ib, e_.sub(i, ib), tau_.sub(i, ib), w_host_.view(),
            [&](index_t j, VectorView<const double> vj, VectorView<double> w_col) {
              const index_t cj = i + j;
              const index_t vlen = n_ - cj - 1;
              auto d_vcol = d_v_.block(j, j, vlen, 1);
              copy_h2d_async(s_, MatrixView<const double>(vj.data(), vlen, 1, vlen), d_vcol);
              hybrid::symv_async(s_, Uplo::Lower, 1.0,
                                 d_a_.block(cj + 1, cj + 1, vlen, vlen), d_vcol.col(0), 0.0,
                                 d_w_.block(j, j, vlen, 1).col(0));
              copy_d2h(s_, d_w_.block(j, j, vlen, 1),
                       MatrixView<double>(w_col.data(), vlen, 1, vlen));
              // Tripwire: a non-finite w means a NaN/Inf strike reached the
              // trailing matrix mid-panel. Abandon the panel before any
              // update smears it.
              for (index_t r = 0; r < vlen; ++r)
                if (!std::isfinite(w_col[r])) throw panel_poisoned_error{};
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
      // Clean V (explicit unit) and the finished W block to the device,
      // staged in the loop-hoisted v_host_ (the upload is only retired by
      // detect()'s synchronous fetch, after this scope ends).
      lapack::materialize_v_into(MatrixView<const double>(a_), i, ib,
                                 v_host_.block(0, 0, vrows, ib));
      copy_h2d_async(s_, MatrixView<const double>(v_host_.block(0, 0, vrows, ib)),
                     d_v_.block(0, 0, vrows, ib));
      copy_h2d_async(s_, MatrixView<const double>(w_host_.block(i + 1, 0, vrows, ib)),
                     d_w_.block(0, 0, vrows, ib));

      // --- Checksum maintenance --------------------------------------------
      // After this iteration the logical row sum of a trailing row r ≥ i+ib is
      //   old_sum(r) − (old panel-column entries of row r)        [zeroed]
      //              − (V2·W2ᵀ + W2·V2ᵀ)(r, :)·vec  over c ≥ i+ib [rank-2k]
      //              + e_last·vec(i+ib−1) for r == i+ib           [coupling]
      // and panel rows i..i+ib−1 become plain tridiagonal rows, re-encoded
      // from the finished host data (their pre-images are checkpointed).
      auto v2 = d_v_.block(ib - 1, 0, tn, ib);
      auto w2 = d_w_.block(ib - 1, 0, tn, ib);
      auto ones_tn = d_ones_.view().col(0).sub(0, tn);
      auto ones_ib = d_ones_.view().col(0).sub(0, ib);
      auto wvec_tail = d_wvec_.view().col(0).sub(i + ib, tn);
      auto wvec_panel = d_wvec_.view().col(0).sub(i, ib);

      // Tail column sums of V2/W2 against e and ω (paper line 6/7 analogues).
      hybrid::gemv_async(s_, Trans::Yes, 1.0, v2, ones_tn, 0.0, d_sums_.view().col(0).sub(0, ib));
      hybrid::gemv_async(s_, Trans::Yes, 1.0, w2, ones_tn, 0.0, d_sums_.view().col(1).sub(0, ib));
      hybrid::gemv_async(s_, Trans::Yes, 1.0, v2, wvec_tail, 0.0, d_sums_.view().col(2).sub(0, ib));
      hybrid::gemv_async(s_, Trans::Yes, 1.0, w2, wvec_tail, 0.0, d_sums_.view().col(3).sub(0, ib));
      // Old panel-column contributions of the trailing rows (the device's
      // panel columns still hold the pristine start-of-iteration values).
      auto panel_tail = d_a_.block(i + ib, i, tn, ib);
      hybrid::gemv_async(s_, Trans::No, 1.0, panel_tail, ones_ib, 0.0,
                         d_pc_.view().col(0).sub(0, tn));
      hybrid::gemv_async(s_, Trans::No, 1.0, panel_tail, wvec_panel, 0.0,
                         d_pc_.view().col(1).sub(0, tn));

      auto se_v2 = d_sums_.view().col(0).sub(0, ib);
      auto se_w2 = d_sums_.view().col(1).sub(0, ib);
      auto sw_v2 = d_sums_.view().col(2).sub(0, ib);
      auto sw_w2 = d_sums_.view().col(3).sub(0, ib);
      auto chke_tail = d_chke_.view().col(0).sub(i + ib, tn);
      auto chkw_tail = d_chkw_.view().col(0).sub(i + ib, tn);
      hybrid::axpy_async(s_, -1.0, d_pc_.view().col(0).sub(0, tn), chke_tail);
      hybrid::gemv_async(s_, Trans::No, -1.0, v2, se_w2, 1.0, chke_tail);
      hybrid::gemv_async(s_, Trans::No, -1.0, w2, se_v2, 1.0, chke_tail);
      hybrid::axpy_async(s_, -1.0, d_pc_.view().col(1).sub(0, tn), chkw_tail);
      hybrid::gemv_async(s_, Trans::No, -1.0, v2, sw_w2, 1.0, chkw_tail);
      hybrid::gemv_async(s_, Trans::No, -1.0, w2, sw_v2, 1.0, chkw_tail);

      // The window between the checksum maintenance and the rank-2k data
      // update is sytrd's analogue of gehrd's between-updates window.
      if (plane_ != nullptr) plane_->on_between_updates(s_);

      // Trailing rank-2k (lower triangle) on the device.
      hybrid::syr2k_async(s_, Uplo::Lower, Trans::No, -1.0, v2, w2, 1.0,
                          d_a_.block(i + ib, i + ib, tn, tn));

      // Host work overlapped with the device update.
      if (opt_.protect_q) {
        WallTimer qt;
        obs::TraceSpan q_span("ft", "q_checksum");
        pending_q_ = qp_.compute_panel(MatrixView<const double>(a_), i, ib);
        proto_.report().q_seconds += qt.seconds();
      }
      for (index_t j = 0; j < ib; ++j) {
        a_(i + j + 1, i + j) = e_[i + j];  // replace the panel's unit entries
      }

      // Re-encode the finished panel rows of both checksums from the final
      // tridiagonal data, and add the new coupling entry to row i+ib.
      for (index_t j = 0; j < ib; ++j) {
        const index_t r = i + j;
        const double dl = r > 0 ? a_(r, r - 1) : 0.0;
        const double dd = a_(r, r);
        const double du = a_(r + 1, r);  // superdiagonal by symmetry
        seg_(j, 0) = dl + dd + du;
        seg_(j, 1) = dl * static_cast<double>(r) + dd * static_cast<double>(r + 1) +
                     du * static_cast<double>(r + 2);
      }
      copy_h2d_async(s_, seg_.block(0, 0, ib, 1), d_chke_.block(i, 0, ib, 1));
      copy_h2d_async(s_, seg_.block(0, 1, ib, 1), d_chkw_.block(i, 0, ib, 1));
      const double e_last = e_[i + ib - 1];
      auto ce = d_chke_.view();
      auto cw = d_chkw_.view();
      s_.enqueue("ft.couple", FTH_TASK_EFFECTS(FTH_WRITES(d_chke_.view(), d_chkw_.view())),
                 [ce, cw, i, ib, e_last] {
        ce.in_task()(i + ib, 0) += e_last;
        cw.in_task()(i + ib, 0) += e_last * static_cast<double>(i + ib);  // weight of col i+ib−1
      });
      // No loop-bottom synchronize: the seg_ uploads and the couple task
      // stay in flight and are retired by detect()'s synchronous fetch
      // before the host refills seg_ (fth_analyze --perf flagged the old
      // barrier as coarse-synchronize).
    }
    st_.update_seconds += update_timer.seconds();
    return true;
  }

  /// Fresh logical row sums of the current state: finished rows from the
  /// host tridiagonal entries, trailing rows from a device SYMV; `i2` is
  /// the first trailing index.
  std::vector<double> fresh_sums(index_t i2, bool weighted) {
    std::vector<double> fresh(static_cast<std::size_t>(n_), 0.0);
    auto weight = [&](index_t c) { return weighted ? static_cast<double>(c + 1) : 1.0; };
    // Finished rows: tridiagonal entries read from the host matrix.
    for (index_t r = 0; r < i2 && r < n_; ++r) {
      double s = a_(r, r) * weight(r);
      if (r > 0) s += a_(r, r - 1) * weight(r - 1);
      if (r + 1 < n_) s += a_(r + 1, r) * weight(r + 1);  // superdiag by symmetry
      fresh[static_cast<std::size_t>(r)] = s;
    }
    if (i2 >= n_) return fresh;
    // Trailing rows: SYMV over the live lower triangle on the device.
    const index_t tn = n_ - i2;
    auto vec = weighted ? d_wvec_.view().col(0).sub(i2, tn)
                        : d_ones_.view().col(0).sub(0, tn);
    hybrid::symv_async(s_, Uplo::Lower, 1.0, d_a_.block(i2, i2, tn, tn), vec, 0.0,
                       d_fresh_.view().col(0).sub(0, tn));
    std::vector<double> trail(static_cast<std::size_t>(tn));
    s_.enqueue("ft.fresh_readback", FTH_TASK_EFFECTS(FTH_READS(d_fresh_.view())),
                [this, tn, &trail] {
      auto f = d_fresh_.view().col(0).in_task();
      for (index_t r = 0; r < tn; ++r) trail[static_cast<std::size_t>(r)] = f[r];
    });
    s_.synchronize();
    for (index_t r = 0; r < tn; ++r)
      fresh[static_cast<std::size_t>(i2 + r)] = trail[static_cast<std::size_t>(r)];
    // The coupling entry e[i2−1] contributes to trailing row i2 (column
    // i2−1) and was counted in neither part above.
    if (i2 > 0) fresh[static_cast<std::size_t>(i2)] += a_(i2, i2 - 1) * weight(i2 - 1);
    return fresh;
  }

  Detection detect(index_t i, index_t ib) override {
    const std::vector<double> fresh = fresh_sums(i + ib, /*weighted=*/false);
    const std::vector<double> chke = chk_.fetch(false);
    // The worst finite per-row gap plus a flag for non-finite discrepancies
    // (a NaN gap must count as detected — the plain `gap > threshold`
    // comparison is false for NaN and would wave the corruption through).
    double worst = 0.0;
    Detection det;
    for (index_t r = 0; r < n_; ++r) {
      const double gap = std::abs(fresh[static_cast<std::size_t>(r)] -
                                  chke[static_cast<std::size_t>(r)]);
      if (!std::isfinite(gap)) {
        det.nonfinite = 1;
        det.dirty = true;
      } else {
        worst = std::max(worst, gap);
        if (gap > threshold_) det.dirty = true;
      }
    }
    det.gap = det.nonfinite > 0 ? std::numeric_limits<double>::quiet_NaN() : worst;
    return det;
  }

  [[nodiscard]] std::string describe(const Detection& det) const override {
    std::ostringstream os;
    os << "per-row gap " << det.gap << " > threshold " << threshold_;
    return os.str();
  }

  void rollback(index_t i, index_t ib, bool completed) override {
    const index_t tn = n_ - i - ib;
    if (completed) {
      // Reverse the trailing rank-2k exactly (deterministic kernel, same
      // retained operands). A poisoned panel never applied it.
      hybrid::syr2k_async(s_, Uplo::Lower, Trans::No, 1.0, d_v_.block(ib - 1, 0, tn, ib),
                          d_w_.block(ib - 1, 0, tn, ib), 1.0,
                          d_a_.block(i + ib, i + ib, tn, tn));
    }
    // Drain before touching the checkpoints from the host: in-flight faults
    // fire on the worker thread and may target the checkpoint buffers.
    // Recovery cold path, not worth an Event edge. fth-perf: expect coarse-synchronize
    s_.synchronize();
    obs::TraceSpan restore_span("ft", "checkpoint_restore", "col", static_cast<double>(i));
    if (!panel_checkpoint_sums(ib).same_bits(ckpt_sum_)) {
      // The diskless panel checkpoint was struck after save. The device's
      // panel columns are never written during the iteration (the panel is
      // factored on the host, the rank-2k starts at column i+ib), so they
      // still hold the exact pre-iteration image.
      copy_d2h(s_, d_a_.block(0, i, n_, ib), ckpt_.block(0, 0, n_, ib));
      ckpt_sum_ = panel_checkpoint_sums(ib);
      proto_.rederived();
    }
    fth::copy(MatrixView<const double>(ckpt_.block(0, 0, n_, ib)), a_.block(0, i, n_, ib));
    // The vector checkpoints are verified after the data rollback so that a
    // corrupt one can be re-derived from the restored state; only then are
    // they pushed back to the device.
    if (!chk_.intact()) {
      const std::vector<double> fe = fresh_sums(i, /*weighted=*/false);
      chk_.rederive(fe, fresh_sums(i, /*weighted=*/true));
    }
    chk_.restore();
  }

  // -- Checkpoint integrity (the checkpoint itself is a fault target). ------
  // The panel and the checksum vectors carry separate sum pairs because
  // their re-derivation sources differ.
  [[nodiscard]] DualSum panel_checkpoint_sums(index_t ib) const {
    DualSum s;
    for (index_t j = 0; j < ib; ++j)
      for (index_t r = 0; r < n_; ++r)
        s.add(ckpt_(r, j), static_cast<double>((r + 1) + (j + 1) * n_));
    return s;
  }

  // -- Non-finite recovery: element reconstruction from the plain code. -----
  // Rollback cannot cancel NaN/Inf (x + NaN − NaN stays NaN). A non-finite
  // strike at stored element (p,q) poisons exactly the fresh sums of rows p
  // and q (SYMV reads it for both); re-derive the element as
  // chk_e(p) − (row-p sum with the element zeroed).
  void reconstruct_nonfinite(const std::vector<index_t>& nf_rows, index_t i, FtEvent& ev) {
    if (nf_rows.size() > 2) {
      throw recovery_error(
          "ft_sytrd: non-finite contamination spans more than one stored element");
    }
    const index_t p = nf_rows.back();
    const index_t q = nf_rows.front();  // p == q → diagonal element
    store(p, q, 0.0, i);
    const std::vector<double> base = fresh_sums(i, /*weighted=*/false);
    const std::vector<double> chke = chk_.fetch(false);
    const double code = chke[static_cast<std::size_t>(p)];
    const double rest = base[static_cast<std::size_t>(p)];
    if (!std::isfinite(code) || !std::isfinite(rest)) {
      throw recovery_error(
          "ft_sytrd: non-finite damage: the code needed for element "
          "reconstruction is itself lost");
    }
    store(p, q, code - rest, i);
    ev.errors.push_back({p, q, 0.0});
    ++ev.reconstructions;
    proto_.reconstructed();
  }

  /// Stored element (p,q) := v, on the device for the trailing region and
  /// on the host for the finished one.
  void store(index_t p, index_t q, double v, index_t i) {
    if (q >= i) {
      auto da = d_a_.view();
      s_.enqueue("ft.reconstruct", FTH_TASK_EFFECTS(FTH_WRITES(da)),
                  [da, p, q, v] { da.in_task()(p, q) = v; });
      s_.synchronize();
    } else {
      a_(p, q) = v;
    }
  }

  void locate(index_t i) override {
    loc_fresh_ = fresh_sums(i, false);
    loc_chk_ = chk_.fetch(false);
  }

  // Location needs no row/column pairing: for a flagged row p the
  // weighted/plain delta ratio yields the column directly. One pass
  // suffices (the non-finite pre-pass re-derives its own fresh sums).
  bool correct(index_t i, FtEvent& ev) override {
    std::vector<double>& fresh_e = loc_fresh_;
    std::vector<double>& chke = loc_chk_;

    // Non-finite pre-pass. Data damage shows as non-finite fresh sums and
    // is reconstructed element-wise from the plain code; non-finite
    // checksum storage with finite fresh sums is re-encoded directly. Any
    // residue is caught by the caller's retry loop.
    std::vector<index_t> nf_rows;
    for (index_t r = 0; r < n_; ++r) {
      if (!std::isfinite(fresh_e[static_cast<std::size_t>(r)])) nf_rows.push_back(r);
    }
    if (!nf_rows.empty()) {
      reconstruct_nonfinite(nf_rows, i, ev);
      fresh_e = fresh_sums(i, false);
    }
    {
      auto ce = d_chke_.view();
      auto cw = d_chkw_.view();
      std::vector<double> fresh_w_nf;  // computed lazily, only if chkw is damaged
      const std::vector<double> chkw_now = chk_.fetch(true);
      bool synced = false;
      for (index_t r = 0; r < n_; ++r) {
        const double fe = fresh_e[static_cast<std::size_t>(r)];
        if (!std::isfinite(chke[static_cast<std::size_t>(r)]) && std::isfinite(fe)) {
          s_.enqueue("ft.correct", FTH_TASK_EFFECTS(FTH_WRITES(ce)),
                     [ce, r, fe] { ce.in_task()(r, 0) = fe; });
          synced = true;
          ++ev.checksum_corrections;
        }
        if (!std::isfinite(chkw_now[static_cast<std::size_t>(r)])) {
          if (fresh_w_nf.empty()) fresh_w_nf = fresh_sums(i, true);
          const double fw = fresh_w_nf[static_cast<std::size_t>(r)];
          if (std::isfinite(fw)) {
            s_.enqueue("ft.correct", FTH_TASK_EFFECTS(FTH_WRITES(cw)),
                       [cw, r, fw] { cw.in_task()(r, 0) = fw; });
            synced = true;
            ++ev.checksum_corrections;
          }
        }
      }
      if (synced) {
        s_.synchronize();
        chke = chk_.fetch(false);
      }
    }

    const std::vector<double> fresh_w = fresh_sums(i, true);
    const std::vector<double> chkw = chk_.fetch(true);

    struct Flag {
      index_t row;
      double de, dw;
    };
    std::vector<Flag> flags;
    for (index_t r = 0; r < n_; ++r) {
      const double de = fresh_e[static_cast<std::size_t>(r)] - chke[static_cast<std::size_t>(r)];
      const double dw = fresh_w[static_cast<std::size_t>(r)] - chkw[static_cast<std::size_t>(r)];
      if (!std::isfinite(de) || !std::isfinite(dw)) {
        throw recovery_error("ft_sytrd: non-finite discrepancy survived reconstruction");
      }
      if (std::abs(de) > threshold_ || std::abs(dw) > threshold_ * static_cast<double>(n_)) {
        flags.push_back({r, de, dw});
      }
    }
    if (flags.size() > 16) {
      throw recovery_error("ft_sytrd: too many simultaneous discrepancies to resolve");
    }

    std::vector<bool> consumed(flags.size(), false);
    for (std::size_t t = 0; t < flags.size(); ++t) {
      if (consumed[t]) continue;
      const Flag& f = flags[t];
      if (std::abs(f.de) <= threshold_) {
        // Weighted-only discrepancy: the chk_w element itself is corrupt.
        // Repair by re-encoding from the fresh value.
        auto cw = d_chkw_.view();
        const double fw = fresh_w[static_cast<std::size_t>(f.row)];
        s_.enqueue("ft.correct", FTH_TASK_EFFECTS(FTH_WRITES(cw)),
                   [cw, f, fw] { cw.in_task()(f.row, 0) = fw; });
        s_.synchronize();
        ++ev.checksum_corrections;
        continue;
      }
      // Column from the two-code ratio: ω_q = Δw/Δe ⇒ q = ratio − 1.
      const double ratio = f.dw / f.de;
      const double qf = ratio - 1.0;
      const index_t q = static_cast<index_t>(std::llround(qf));
      if (q < 0 || q >= n_ || std::abs(qf - static_cast<double>(q)) > 0.25) {
        // No consistent column: the chk_e element itself must be corrupt
        // (Δw ≈ 0 handled above; an incoherent ratio with Δw ≈ 0 relative
        // to Δe·n also lands here).
        if (std::abs(f.dw) <= threshold_ * static_cast<double>(n_)) {
          auto ce = d_chke_.view();
          const double fe = fresh_e[static_cast<std::size_t>(f.row)];
          s_.enqueue("ft.correct", FTH_TASK_EFFECTS(FTH_WRITES(ce)),
                     [ce, f, fe] { ce.in_task()(f.row, 0) = fe; });
          s_.synchronize();
          ++ev.checksum_corrections;
          continue;
        }
        throw recovery_error("ft_sytrd: discrepancy ratio does not identify a column — "
                             "errors may share a row");
      }
      // Stored element in the lower triangle.
      const index_t p = std::max(f.row, q);
      const index_t qq = std::min(f.row, q);
      const double delta = f.de;
      if (qq >= i) {
        auto da = d_a_.view();
        s_.enqueue("ft.correct", FTH_TASK_EFFECTS(FTH_WRITES(da)),
                   [da, p, qq, delta] { da.in_task()(p, qq) -= delta; });
        s_.synchronize();
      } else {
        a_(p, qq) -= delta;  // finished (tridiagonal) region on the host
      }
      ev.errors.push_back({p, qq, delta});
      ++ev.data_corrections;
      // Off-diagonal errors flag the partner row too; mark it consumed.
      if (q != f.row) {
        for (std::size_t u = t + 1; u < flags.size(); ++u) {
          if (flags[u].row == q && std::abs(flags[u].de - f.de) <=
                                       2.0 * threshold_ + 1e-9 * std::abs(f.de)) {
            consumed[u] = true;
            break;
          }
        }
      }
    }
    return false;
  }

  void inject_at_boundary(index_t boundary, index_t i_next) {
    const auto due =
        inj_->due(boundary, proto_.total_boundaries(), i_next, n_, proto_.scale_max());
    bool device_faults = false;
    for (auto f : due) {
      // Symmetric lower storage: fold the coordinates into the triangle.
      const index_t p = std::max(f.row, f.col);
      const index_t q = std::min(f.row, f.col);
      if (q >= i_next) {
        auto da = d_a_.view();
        s_.enqueue("fault.inject", FTH_TASK_EFFECTS(FTH_WRITES(da)), [da, p, q, f] {
          auto dah = da.in_task();
          dah(p, q) = f.apply(dah(p, q));
        });
        device_faults = true;
      } else {
        a_(p, q) = f.apply(a_(p, q));
      }
      inj_->record(boundary, f);
    }
    // One drain for the whole batch: a per-fault synchronize would
    // serialize multi-fault injection for no benefit.
    if (device_faults) s_.synchronize();
  }

  // i = n−1: everything finished except the 1×1 trailing block. Sweep both
  // codes so a strike on the weighted vector (invisible to the plain-code
  // online check) is still found and repaired here.
  void final_sweep(FtEvent& ev) override {
    const std::vector<double> fresh_e = fresh_sums(n_ - 1, false);
    const std::vector<double> fresh_w = fresh_sums(n_ - 1, true);
    const std::vector<double> chke = chk_.fetch(false);
    const std::vector<double> chkw = chk_.fetch(true);
    bool bad = false;
    for (index_t r = 0; r < n_ && !bad; ++r) {
      const double ge = std::abs(fresh_e[static_cast<std::size_t>(r)] -
                                 chke[static_cast<std::size_t>(r)]);
      const double gw = std::abs(fresh_w[static_cast<std::size_t>(r)] -
                                 chkw[static_cast<std::size_t>(r)]);
      // NaN-safe: a non-finite gap must trigger the sweep.
      bad = !(ge <= threshold_) || !(gw <= threshold_ * static_cast<double>(n_));
    }
    if (!bad) return;
    loc_fresh_ = fresh_sums(n_ - 1, false);  // what locate() takes
    loc_chk_ = chk_.fetch(false);
    correct(n_ - 1, ev);
    // Refresh the host copy of the last element if it was the target.
    copy_d2h(s_, d_a_.block(n_ - 1, n_ - 1, 1, 1), a_.block(n_ - 1, n_ - 1, 1, 1));
  }

  int verify_q(double tol) override { return qp_.verify_and_correct(a_, n_ - 1, tol).corrections; }

  hybrid::Stream& s_;
  MatrixView<double> a_;
  VectorView<double> d_;
  VectorView<double> e_;
  VectorView<double> tau_;
  const FtSytrdOptions& opt_;
  fault::Injector* inj_;
  hybrid::HybridGehrdStats& st_;

  index_t n_;
  double threshold_;
  fault::FaultPlane* plane_;  ///< optional in-flight fault plane (not owned)

  hybrid::DeviceMatrix<double> d_a_;
  hybrid::DeviceMatrix<double> d_v_;
  hybrid::DeviceMatrix<double> d_w_;
  hybrid::DeviceMatrix<double> d_chke_;
  hybrid::DeviceMatrix<double> d_chkw_;
  hybrid::DeviceMatrix<double> d_ones_;
  hybrid::DeviceMatrix<double> d_wvec_;
  hybrid::DeviceMatrix<double> d_sums_;
  hybrid::DeviceMatrix<double> d_pc_;
  hybrid::DeviceMatrix<double> d_fresh_;

  Matrix<double> w_host_;
  Matrix<double> v_host_;
  Matrix<double> ckpt_;
  // Re-encode staging segment, hoisted out of the update loop: the async
  // h2d that reads it stays in flight past the loop bottom and is retired
  // by detect()'s synchronous fetch before the next refill.
  Matrix<double> seg_;
  QProtector qp_;
  QProtector::PanelChecksums pending_q_;
  std::vector<double> loc_fresh_;  ///< locate(): fresh plain row sums
  std::vector<double> loc_chk_;    ///< locate(): maintained chk_e
  DualSum ckpt_sum_;               ///< integrity sums of the panel checkpoint, at save
  ChecksumPair chk_;               ///< chk_e / chk_w and their checkpoint
  Protocol proto_;
};

}  // namespace

void ft_sytrd(hybrid::Device& dev, MatrixView<double> a, VectorView<double> d,
              VectorView<double> e, VectorView<double> tau, const FtSytrdOptions& opt,
              fault::Injector* injector, FtReport* report,
              hybrid::HybridGehrdStats* stats) {
  const index_t n = a.rows();
  FTH_CHECK(a.cols() == n, "ft_sytrd: matrix must be square");
  FTH_CHECK(d.size() >= n, "ft_sytrd: d too short");
  FTH_CHECK(e.size() >= std::max<index_t>(n - 1, 0) &&
                tau.size() >= std::max<index_t>(n - 1, 0),
            "ft_sytrd: e/tau too short");
  FTH_CHECK(opt.nb >= 1 && opt.detect_every >= 1, "ft_sytrd: bad options");
  run_entry(dev, "sytrd", n, report, stats, [&](FtReport& rep, hybrid::HybridGehrdStats& st) {
    if (n > 2) {
      FtSytrdDriver(dev, a, d, e, tau, opt, injector, rep, st).run();
    } else {
      for (index_t r = 0; r < n; ++r) d[r] = a(r, r);
      for (index_t r = 0; r + 1 < n; ++r) {
        e[r] = a(r + 1, r);
        tau[r] = 0.0;
      }
    }
  });
}

}  // namespace fth::ft
