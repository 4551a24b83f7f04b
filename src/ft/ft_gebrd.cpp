#include "ft/ft_gebrd.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <vector>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "fault/fault_plane.hpp"
#include "ft/checksum.hpp"
#include "ft/locate.hpp"
#include "ft/protocol.hpp"
#include "ft/q_protect.hpp"
#include "hybrid/dev_blas.hpp"
#include "la/blas1.hpp"
#include "obs/trace.hpp"
#include "lapack/gebrd.hpp"
#include "lapack/gebrd_impl.hpp"

namespace fth::ft {

namespace {

using hybrid::copy_d2h;
using hybrid::copy_d2h_async;
using hybrid::copy_h2d_async;

class FtGebrdDriver final : public Code {
 public:
  FtGebrdDriver(hybrid::Device& dev, MatrixView<double> a, VectorView<double> d,
                VectorView<double> e, VectorView<double> tauq, VectorView<double> taup,
                const FtGebrdOptions& opt, fault::Injector* inj, FtReport& rep,
                hybrid::HybridGehrdStats& st)
      : s_(dev.stream()),
        a_(a),
        d_(d),
        e_(e),
        tauq_(tauq),
        taup_(taup),
        opt_(opt),
        inj_(inj),
        st_(st),
        n_(a.rows()),
        threshold_(resolve_row_threshold(a, opt.threshold, opt.threshold_factor)),
        plane_(opt.fault_plane),
        d_a_(dev, n_, n_, "gebrd.ft.d_a"),
        d_v2_(dev, n_, std::max<index_t>(opt.nb, 1), "gebrd.ft.d_v2"),
        d_y2_(dev, n_, std::max<index_t>(opt.nb, 1), "gebrd.ft.d_y2"),
        d_x2_(dev, n_, std::max<index_t>(opt.nb, 1), "gebrd.ft.d_x2"),
        d_u2_(dev, std::max<index_t>(opt.nb, 1), n_, "gebrd.ft.d_u2"),
        d_chkc_(dev, n_, 1, "gebrd.ft.d_chkc"),
        d_chkr_(dev, n_, 1, "gebrd.ft.d_chkr"),
        d_ones_(dev, n_, 1, "gebrd.ft.d_ones"),
        d_vec_(dev, n_, 1, "gebrd.ft.d_vec"),
        d_res_(dev, n_, 1, "gebrd.ft.d_res"),
        d_sums_(dev, std::max<index_t>(opt.nb, 1), 4, "gebrd.ft.d_sums"),
        d_pc_(dev, n_, 2, "gebrd.ft.d_pc"),
        d_fresh_(dev, n_, 2, "gebrd.ft.d_fresh"),
        x_host_(n_, std::max<index_t>(opt.nb, 1)),
        y_host_(n_, std::max<index_t>(opt.nb, 1)),
        ckpt_cols_(n_, std::max<index_t>(opt.nb, 1)),
        ckpt_rows_(std::max<index_t>(opt.nb, 1), n_),
        seg_(std::max<index_t>(opt.nb, 1), 2),
        at_mirror_(n_, n_),
        qp_v_(n_, /*row_offset=*/1),
        qp_u_(n_, /*row_offset=*/2),
        chk_(proto_, s_, d_chkc_, d_chkr_),
        proto_("ft_gebrd", dev, *this, rep, a, opt, threshold_) {}

  // The boundary loop. As in ft_sytrd, faults strike before the boundary's
  // check, so they are repaired before the next panel consumes them.
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
      if (opt_.protect_q) {
        qp_v_.commit(pending_v_);
        qp_u_.commit(pending_u_);
      }
      ++st_.panels;
      i += ib;
    }
    copy_d2h(s_, d_a_.block(n_ - 1, n_ - 1, 1, 1), a_.block(n_ - 1, n_ - 1, 1, 1));
    proto_.final_sweep();
    proto_.verify_q();
    // Single source of truth: extract d and e from the host matrix.
    for (index_t r = 0; r < n_; ++r) d_[r] = a_(r, r);
    for (index_t r = 0; r + 1 < n_; ++r) e_[r] = a_(r, r + 1);
    tauq_[n_ - 1] = 0.0;  // the last left reflector has an empty tail
    proto_.conclude();
  }

 private:
  void encode() override {
    copy_h2d_async(s_, MatrixView<const double>(a_), d_a_.view());
    hybrid::fill_async(s_, d_ones_.view(), 1.0);
    auto ones = d_ones_.view().col(0);
    hybrid::gemv_async(s_, Trans::No, 1.0, d_a_.view(), ones, 0.0, d_chkc_.view().col(0));
    hybrid::gemv_async(s_, Trans::Yes, 1.0, d_a_.view(), ones, 0.0, d_chkr_.view().col(0));
    // Intentional full barrier, once per run: the protocol opens the fault
    // gate (mark_encoded()) next, and both codes must exist on the device
    // before any strike is allowed. fth-perf: expect coarse-synchronize
    s_.synchronize();
  }

  // Returns false if a panel tripwire abandoned the iteration before any
  // update touched the trailing matrix (caller rolls back and redoes).
  bool run_iteration(index_t i, index_t ib) override {
    const index_t tn = n_ - i - ib;

    // Re-aim the fault plane at this iteration's live regions. The device
    // panel column/row blocks are excluded: their truth lives on the host
    // during the iteration and the finished segments are re-encoded from
    // host data, so a strike there is consistent-wrong dead storage the
    // accounting cannot see. The checkpoint surface is registered only
    // after its integrity sums are taken.
    if (plane_ != nullptr) {
      plane_->register_surface(fault::Surface::TrailingMatrix,
                               d_a_.block(i + ib, i + ib, tn, tn));
      // Trailing segments only: the panel segments [i, i+ib) are re-encoded
      // from host data at the end of the iteration, so a strike there before
      // the re-encode is dead storage the comparison can never see.
      plane_->register_surface(fault::Surface::ChecksumCol,
                               d_chkc_.block(i + ib, 0, tn, 1));
      plane_->register_surface(fault::Surface::ChecksumRow,
                               d_chkr_.block(i + ib, 0, tn, 1));
      plane_->clear_surface(fault::Surface::Checkpoint);
      plane_->clear_transfer_targets();
      // Fault-eligible transfer destinations inside the protected domain:
      // the checkpointed checksum-vector pre-images (d2h, checkpoint save).
      // The panel d2h lands in host a_, the reliable domain by the paper's
      // model — corrupting it would be a silently wrong result everywhere.
      plane_->add_transfer_target(fault::Surface::Checkpoint, chk_.ckpt(0));
      plane_->add_transfer_target(fault::Surface::Checkpoint, chk_.ckpt(1));
    }

    // Column panel, row panel, and both checksum vectors to the host;
    // checkpoint all four (diskless checkpointing).
    WallTimer panel_timer;
    {
      obs::TraceSpan ckpt_span("ft", "checkpoint_save", "col", static_cast<double>(i));
      // Column panel rows ≥ i only: the rows above hold finished host data
      // (P's Householder storage and the superdiagonal) whose device copy is
      // stale by design.
      copy_d2h_async(s_, d_a_.block(i, i, n_ - i, ib), a_.block(i, i, n_ - i, ib));
      copy_d2h_async(s_, d_a_.block(i, i + ib, ib, tn), a_.block(i, i + ib, ib, tn));
      copy_d2h_async(s_, d_chkc_.view(), chk_.ckpt(0));
      copy_d2h(s_, d_chkr_.view(), chk_.ckpt(1));
      fth::copy(MatrixView<const double>(a_.block(i, i, n_ - i, ib)),
                ckpt_cols_.block(0, 0, n_ - i, ib));
      fth::copy(MatrixView<const double>(a_.block(i, i + ib, ib, tn)),
                ckpt_rows_.block(0, 0, ib, tn));
      // The d2h that filled the vector checkpoints is itself fault-eligible
      // and the dual-sum verify can only vouch for what was stored, not for
      // the transfer: cross-check it against the device's vectors.
      chk_.cross_check();
      ckpt_sum_ = panel_checkpoint_sums(i, ib);
      if (plane_ != nullptr)
        plane_->register_surface(fault::Surface::Checkpoint,
                                 ckpt_cols_.block(0, 0, n_ - i, ib));
    }

    bool poisoned = false;
    {
      obs::TraceSpan panel_span("hybrid", "panel", "col", static_cast<double>(i));
      try {
        lapack::detail::labrd_panel(
            a_, i, ib, d_.sub(i, ib), e_.sub(i, ib), tauq_.sub(i, ib), taup_.sub(i, ib),
            x_host_.view(), y_host_.view(),
            [&](index_t j, VectorView<const double> v, VectorView<double> ycol) {
              const index_t cj = i + j;
              const index_t mlen = n_ - cj;
              const index_t nlen = n_ - cj - 1;
              copy_h2d_async(s_, MatrixView<const double>(v.data(), mlen, 1, mlen),
                             d_vec_.block(0, 0, mlen, 1));
              hybrid::gemv_async(s_, Trans::Yes, 1.0, d_a_.block(cj, cj + 1, mlen, nlen),
                                 d_vec_.view().col(0).sub(0, mlen), 0.0,
                                 d_res_.view().col(0).sub(0, nlen));
              copy_d2h(s_, d_res_.block(0, 0, nlen, 1),
                       MatrixView<double>(ycol.data(), nlen, 1, nlen));
              // Tripwire: a non-finite product means a NaN/Inf strike
              // reached the trailing matrix mid-panel.
              for (index_t r = 0; r < nlen; ++r)
                if (!std::isfinite(ycol[r])) throw panel_poisoned_error{};
            },
            [&](index_t j, VectorView<const double> u, VectorView<double> xcol) {
              const index_t cj = i + j;
              const index_t nlen = n_ - cj - 1;
              Matrix<double> dense(nlen, 1);
              for (index_t r = 0; r < nlen; ++r) dense(r, 0) = u[r];
              copy_h2d_async(s_, dense.cview(), d_vec_.block(0, 0, nlen, 1));
              hybrid::gemv_async(s_, Trans::No, 1.0, d_a_.block(cj + 1, cj + 1, nlen, nlen),
                                 d_vec_.view().col(0).sub(0, nlen), 0.0,
                                 d_res_.view().col(0).sub(0, nlen));
              copy_d2h(s_, d_res_.block(0, 0, nlen, 1),
                       MatrixView<double>(xcol.data(), nlen, 1, nlen));
              for (index_t r = 0; r < nlen; ++r)
                if (!std::isfinite(xcol[r])) throw panel_poisoned_error{};
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
      // Ship the four trailing-update operands.
      copy_h2d_async(s_, MatrixView<const double>(a_.block(i + ib, i, tn, ib)),
                     d_v2_.block(0, 0, tn, ib));
      copy_h2d_async(s_, MatrixView<const double>(y_host_.block(i + ib, 0, tn, ib)),
                     d_y2_.block(0, 0, tn, ib));
      copy_h2d_async(s_, MatrixView<const double>(x_host_.block(i + ib, 0, tn, ib)),
                     d_x2_.block(0, 0, tn, ib));
      copy_h2d_async(s_, MatrixView<const double>(a_.block(i, i + ib, ib, tn)),
                     d_u2_.block(0, 0, ib, tn));
      // The U2 transfer must observe the panel's unit entries; the host may
      // only restore the pivots after it completed (see the wait below).
      const hybrid::Event operands_shipped = s_.record();

      auto v2 = d_v2_.block(0, 0, tn, ib);
      auto y2 = d_y2_.block(0, 0, tn, ib);
      auto x2 = d_x2_.block(0, 0, tn, ib);
      auto u2 = d_u2_.block(0, 0, ib, tn);
      auto ones_tn = d_ones_.view().col(0).sub(0, tn);
      auto ones_ib = d_ones_.view().col(0).sub(0, ib);

      // Aggregate sums for the checksum algebra.
      hybrid::gemv_async(s_, Trans::Yes, 1.0, y2, ones_tn, 0.0, d_sums_.view().col(0).sub(0, ib));
      hybrid::gemv_async(s_, Trans::No, 1.0, u2, ones_tn, 0.0, d_sums_.view().col(1).sub(0, ib));
      hybrid::gemv_async(s_, Trans::Yes, 1.0, v2, ones_tn, 0.0, d_sums_.view().col(2).sub(0, ib));
      hybrid::gemv_async(s_, Trans::Yes, 1.0, x2, ones_tn, 0.0, d_sums_.view().col(3).sub(0, ib));
      // Old panel-column / panel-row contributions (the device's panel data
      // is still pristine start-of-iteration state).
      hybrid::gemv_async(s_, Trans::No, 1.0, d_a_.block(i + ib, i, tn, ib), ones_ib, 0.0,
                         d_pc_.view().col(0).sub(0, tn));
      hybrid::gemv_async(s_, Trans::Yes, 1.0, d_a_.block(i, i + ib, ib, tn), ones_ib, 0.0,
                         d_pc_.view().col(1).sub(0, tn));

      // Maintained checksums, trailing segments:
      //   Δchk_col = −pc_cols − V2·(Y2ᵀe) − X2·(U2·e)
      //   Δchk_row = −pc_rows − Y2·(V2ᵀe) − U2ᵀ·(X2ᵀe)
      auto sy2 = d_sums_.view().col(0).sub(0, ib);
      auto su2 = d_sums_.view().col(1).sub(0, ib);
      auto sv2 = d_sums_.view().col(2).sub(0, ib);
      auto sx2 = d_sums_.view().col(3).sub(0, ib);
      auto chkc_tail = d_chkc_.view().col(0).sub(i + ib, tn);
      auto chkr_tail = d_chkr_.view().col(0).sub(i + ib, tn);
      hybrid::axpy_async(s_, -1.0, d_pc_.view().col(0).sub(0, tn), chkc_tail);
      hybrid::gemv_async(s_, Trans::No, -1.0, v2, sy2, 1.0, chkc_tail);
      hybrid::gemv_async(s_, Trans::No, -1.0, x2, su2, 1.0, chkc_tail);
      hybrid::axpy_async(s_, -1.0, d_pc_.view().col(1).sub(0, tn), chkr_tail);
      hybrid::gemv_async(s_, Trans::No, -1.0, y2, sv2, 1.0, chkr_tail);
      hybrid::gemv_async(s_, Trans::Yes, -1.0, u2, sx2, 1.0, chkr_tail);

      // Trailing update: A −= V2·Y2ᵀ + X2·U2 — the right (Q-side) and left
      // (P-side) halves; the seam between them is the between-updates
      // window of the fault plane.
      hybrid::gemm_async(s_, Trans::No, Trans::Yes, -1.0, v2, y2, 1.0,
                         d_a_.block(i + ib, i + ib, tn, tn));
      if (plane_ != nullptr) plane_->on_between_updates(s_);
      hybrid::gemm_async(s_, Trans::No, Trans::No, -1.0, x2, u2, 1.0,
                         d_a_.block(i + ib, i + ib, tn, tn));

      // Host work overlapped with the device GEMMs: pivots back in place,
      // Householder-protection panel sums, transposed mirror of the rows.
      operands_shipped.wait();
      for (index_t j = 0; j < ib; ++j) {
        a_(i + j, i + j) = d_[i + j];
        a_(i + j, i + j + 1) = e_[i + j];
      }
      if (opt_.protect_q) {
        WallTimer qt;
        obs::TraceSpan q_span("ft", "q_checksum");
        pending_v_ = qp_v_.compute_panel(MatrixView<const double>(a_), i, ib);
        for (index_t j = 0; j < ib; ++j) {
          const index_t r = i + j;
          for (index_t c = 0; c < n_; ++c) at_mirror_(c, r) = a_(r, c);
        }
        pending_u_ = qp_u_.compute_panel(at_mirror_.cview(), i, ib);
        proto_.report().q_seconds += qt.seconds();
      }

      // Finished panel rows/columns of the checksums: re-encode from the
      // final bidiagonal data, and account the new coupling entry
      // e_last = B(i+ib−1, i+ib) in the trailing column i+ib.
      for (index_t j = 0; j < ib; ++j) {
        const index_t r = i + j;
        seg_(j, 0) = a_(r, r) + a_(r, r + 1);                      // row sum of B row r
        seg_(j, 1) = a_(r, r) + (r > 0 ? a_(r - 1, r) : 0.0);      // col sum of B col r
      }
      copy_h2d_async(s_, seg_.block(0, 0, ib, 1), d_chkc_.block(i, 0, ib, 1));
      copy_h2d_async(s_, seg_.block(0, 1, ib, 1), d_chkr_.block(i, 0, ib, 1));
      const double e_last = e_[i + ib - 1];
      auto cr = d_chkr_.view();
      s_.enqueue("ft.couple", FTH_TASK_EFFECTS(FTH_WRITES(d_chkr_.view())),
                 [cr, i, ib, e_last] { cr.in_task()(i + ib, 0) += e_last; });
      // No loop-bottom synchronize: the seg_ uploads and the couple task
      // stay in flight and are retired by detect()'s synchronous fetch
      // before the host refills seg_ (fth_analyze --perf flagged the old
      // barrier as coarse-synchronize).
    }
    st_.update_seconds += update_timer.seconds();
    return true;
  }

  /// Fresh logical row sums (col == false) or column sums (col == true) of
  /// the current state with finished region [0, i2).
  std::vector<double> fresh_sums(index_t i2, bool col) {
    std::vector<double> fresh(static_cast<std::size_t>(n_), 0.0);
    // Finished rows/columns: bidiagonal entries from the host matrix.
    for (index_t r = 0; r < i2 && r < n_; ++r) {
      fresh[static_cast<std::size_t>(r)] =
          col ? a_(r, r) + (r > 0 ? a_(r - 1, r) : 0.0)
              : a_(r, r) + (r + 1 < n_ ? a_(r, r + 1) : 0.0);
    }
    if (i2 >= n_) return fresh;
    const index_t tn = n_ - i2;
    hybrid::gemv_async(s_, col ? Trans::Yes : Trans::No, 1.0, d_a_.block(i2, i2, tn, tn),
                       d_ones_.view().col(0).sub(0, tn), 0.0,
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
    // Coupling: the superdiagonal entry B(i2−1, i2) belongs to trailing
    // column i2 but lives in a finished row.
    if (col && i2 > 0) fresh[static_cast<std::size_t>(i2)] += a_(i2 - 1, i2);
    return fresh;
  }

  /// One full fresh-vs-maintained comparison at finished boundary `i2`.
  /// NaN-safe: a non-finite delta always flags its line (the plain
  /// `> threshold` comparison is false for NaN) and raises has_nonfinite_.
  Discrepancy compare(index_t i2, FreshSums* fresh_out) {
    FreshSums fresh;
    fresh.row = fresh_sums(i2, false);
    fresh.col = fresh_sums(i2, true);
    const std::vector<double> chkc = chk_.fetch(false);
    const std::vector<double> chkr = chk_.fetch(true);
    has_nonfinite_ = false;
    Discrepancy d;
    for (index_t r = 0; r < n_; ++r) {
      const double delta = fresh.row[static_cast<std::size_t>(r)] - chkc[static_cast<std::size_t>(r)];
      if (!(std::abs(delta) <= threshold_)) {
        d.rows.push_back(r);
        d.row_delta.push_back(delta);
      }
      if (std::isfinite(delta)) {
        worst_gap_ = std::max(worst_gap_, std::abs(delta));
      } else {
        has_nonfinite_ = true;
      }
    }
    for (index_t c = 0; c < n_; ++c) {
      const double delta = fresh.col[static_cast<std::size_t>(c)] - chkr[static_cast<std::size_t>(c)];
      if (!(std::abs(delta) <= threshold_)) {
        d.cols.push_back(c);
        d.col_delta.push_back(delta);
      }
      if (std::isfinite(delta)) {
        worst_gap_ = std::max(worst_gap_, std::abs(delta));
      } else {
        has_nonfinite_ = true;
      }
    }
    if (fresh_out != nullptr) *fresh_out = std::move(fresh);
    return d;
  }

  Detection detect(index_t i, index_t ib) override {
    worst_gap_ = 0.0;
    const bool clean = compare(i + ib, nullptr).clean();
    return {has_nonfinite_ ? std::numeric_limits<double>::quiet_NaN() : worst_gap_,
            has_nonfinite_ ? 1 : 0, !clean};
  }

  [[nodiscard]] std::string describe(const Detection& det) const override {
    std::ostringstream os;
    os << "gap " << det.gap << " > threshold " << threshold_;
    return os.str();
  }

  // The mismatched row and column identify an asymmetric error directly, so
  // the location logic of ft::locate is reused verbatim.
  void locate(index_t i) override {
    FreshSums fresh;
    const Discrepancy pre = compare(i, &fresh);
    located_ = ft::locate(pre, fresh, threshold_);
  }

  // The damage the last locate() comparison saw, not the detection's.
  [[nodiscard]] bool nonfinite_damage(const Detection& /*det*/) const override {
    return has_nonfinite_;
  }

  bool correct(index_t i, FtEvent& ev) override {
    apply_corrections(located_, i, ev);
    return !located_.reconstructions.empty();
  }

  void rollback(index_t i, index_t ib, bool completed) override {
    const index_t tn = n_ - i - ib;
    if (completed) {
      // Reverse the two trailing GEMMs exactly (retained operands). A
      // poisoned panel never applied them.
      hybrid::gemm_async(s_, Trans::No, Trans::Yes, 1.0, d_v2_.block(0, 0, tn, ib),
                         d_y2_.block(0, 0, tn, ib), 1.0,
                         d_a_.block(i + ib, i + ib, tn, tn));
      hybrid::gemm_async(s_, Trans::No, Trans::No, 1.0, d_x2_.block(0, 0, tn, ib),
                         d_u2_.block(0, 0, ib, tn), 1.0,
                         d_a_.block(i + ib, i + ib, tn, tn));
    }
    // Drain before touching the checkpoints from the host: in-flight faults
    // fire on the worker thread and may target the checkpoint buffers.
    // Recovery cold path, not worth an Event edge. fth-perf: expect coarse-synchronize
    s_.synchronize();
    obs::TraceSpan restore_span("ft", "checkpoint_restore", "col", static_cast<double>(i));
    if (!panel_checkpoint_sums(i, ib).same_bits(ckpt_sum_)) {
      // Struck after save. The device's panel blocks are never written
      // during the iteration (the panels are factored on the host, the
      // GEMMs start at i+ib), so they still hold the exact pre-iteration
      // image.
      copy_d2h_async(s_, d_a_.block(i, i, n_ - i, ib), ckpt_cols_.block(0, 0, n_ - i, ib));
      copy_d2h(s_, d_a_.block(i, i + ib, ib, tn), ckpt_rows_.block(0, 0, ib, tn));
      ckpt_sum_ = panel_checkpoint_sums(i, ib);
      proto_.rederived();
    }
    fth::copy(MatrixView<const double>(ckpt_cols_.block(0, 0, n_ - i, ib)),
              a_.block(i, i, n_ - i, ib));
    fth::copy(MatrixView<const double>(ckpt_rows_.block(0, 0, ib, tn)),
              a_.block(i, i + ib, ib, tn));
    // The vector checkpoints are verified after the data rollback so that a
    // corrupt one can be re-derived from the restored state; only then are
    // they pushed back to the device.
    if (!chk_.intact()) {
      const std::vector<double> fc = fresh_sums(i, /*col=*/false);
      chk_.rederive(fc, fresh_sums(i, /*col=*/true));
    }
    chk_.restore();
  }

  // -- Checkpoint integrity (the checkpoint itself is a fault target). ------
  // The panels and the checksum vectors carry separate sum pairs because
  // their re-derivation sources differ.
  [[nodiscard]] DualSum panel_checkpoint_sums(index_t i, index_t ib) const {
    const index_t tn = n_ - i - ib;
    DualSum s;
    for (index_t j = 0; j < ib; ++j) {
      for (index_t r = 0; r < n_ - i; ++r)
        s.add(ckpt_cols_(r, j), static_cast<double>((r + 1) + (j + 1) * n_));
      for (index_t c = 0; c < tn; ++c)
        s.add(ckpt_rows_(j, c), static_cast<double>((c + 1) + (j + 1) * (n_ + 7)));
    }
    return s;
  }

  void set_element(index_t row, index_t col, double v, index_t i) {
    if (row >= i && col >= i) {
      auto da = d_a_.view();
      s_.enqueue("ft.correct", FTH_TASK_EFFECTS(FTH_WRITES(da)),
                  [da, row, col, v] { da.in_task()(row, col) = v; });
      s_.synchronize();
    } else {
      a_(row, col) = v;
    }
  }

  // -- Non-finite recovery: element reconstruction from the orthogonal code.
  // Rollback cannot cancel NaN/Inf; locate() hands back line-confined
  // targets. Re-derive each element as (maintained code) − (line sum with
  // the damaged elements zeroed), then re-encode any checksum storage the
  // damage propagated through.
  void reconstruct(const std::vector<ReconstructTarget>& targets, index_t i, FtEvent& ev) {
    for (const auto& t : targets) set_element(t.row, t.col, 0.0, i);
    const std::vector<double> base_row = fresh_sums(i, false);
    const std::vector<double> base_col = fresh_sums(i, true);
    const std::vector<double> chkc = chk_.fetch(false);
    const std::vector<double> chkr = chk_.fetch(true);
    for (const auto& t : targets) {
      const double code = t.use_row_code ? chkc[static_cast<std::size_t>(t.row)]
                                         : chkr[static_cast<std::size_t>(t.col)];
      const double rest = t.use_row_code ? base_row[static_cast<std::size_t>(t.row)]
                                         : base_col[static_cast<std::size_t>(t.col)];
      if (!std::isfinite(code) || !std::isfinite(rest)) {
        throw recovery_error(
            "ft_gebrd: non-finite damage: the code needed for element "
            "reconstruction is itself lost");
      }
      set_element(t.row, t.col, code - rest, i);
      ev.errors.push_back({t.row, t.col, 0.0});
      ++ev.reconstructions;
      proto_.reconstructed();
    }
    // Checksum storage the non-finite values propagated through is
    // re-encoded from the now-finite data.
    const std::vector<double> fixed_row = fresh_sums(i, false);
    const std::vector<double> fixed_col = fresh_sums(i, true);
    auto cc = d_chkc_.view();
    auto cr = d_chkr_.view();
    bool synced = false;
    for (index_t r = 0; r < n_; ++r) {
      if (!std::isfinite(chkc[static_cast<std::size_t>(r)])) {
        const double f = fixed_row[static_cast<std::size_t>(r)];
        if (!std::isfinite(f))
          throw recovery_error("ft_gebrd: non-finite checksum with non-finite fresh sum");
        s_.enqueue("ft.correct", FTH_TASK_EFFECTS(FTH_WRITES(cc)),
                   [cc, r, f] { cc.in_task()(r, 0) = f; });
        synced = true;
        ++ev.checksum_corrections;
      }
      if (!std::isfinite(chkr[static_cast<std::size_t>(r)])) {
        const double f = fixed_col[static_cast<std::size_t>(r)];
        if (!std::isfinite(f))
          throw recovery_error("ft_gebrd: non-finite checksum with non-finite fresh sum");
        s_.enqueue("ft.correct", FTH_TASK_EFFECTS(FTH_WRITES(cr)),
                   [cr, r, f] { cr.in_task()(r, 0) = f; });
        synced = true;
        ++ev.checksum_corrections;
      }
    }
    if (synced) s_.synchronize();
  }

  void apply_corrections(const LocateResult& res, index_t i, FtEvent& ev) {
    auto da = d_a_.view();
    for (const auto& err : res.data_errors) {
      if (err.row >= i && err.col >= i) {
        s_.enqueue("ft.correct", FTH_TASK_EFFECTS(FTH_WRITES(da)),
                   [da, err] { da.in_task()(err.row, err.col) -= err.delta; });
        s_.synchronize();
      } else {
        a_(err.row, err.col) -= err.delta;
      }
      ev.errors.push_back(err);
      ++ev.data_corrections;
    }
    auto cc = d_chkc_.view();
    for (const auto& c : res.chk_col_errors) {
      s_.enqueue("ft.correct", FTH_TASK_EFFECTS(FTH_WRITES(cc)),
                 [cc, c] { cc.in_task()(c.index, 0) = c.fresh; });
      ++ev.checksum_corrections;
    }
    auto cr = d_chkr_.view();
    for (const auto& c : res.chk_row_errors) {
      s_.enqueue("ft.correct", FTH_TASK_EFFECTS(FTH_WRITES(cr)),
                 [cr, c] { cr.in_task()(c.index, 0) = c.fresh; });
      ++ev.checksum_corrections;
    }
    s_.synchronize();
    if (!res.reconstructions.empty()) reconstruct(res.reconstructions, i, ev);
  }

  void inject_at_boundary(index_t boundary, index_t i_next) {
    const auto due =
        inj_->due(boundary, proto_.total_boundaries(), i_next, n_, proto_.scale_max());
    bool device_faults = false;
    for (const auto& f : due) {
      if (f.row >= i_next && f.col >= i_next) {
        auto da = d_a_.view();
        const auto ff = f;
        s_.enqueue("fault.inject", FTH_TASK_EFFECTS(FTH_WRITES(da)), [da, ff] {
          auto dah = da.in_task();
          dah(ff.row, ff.col) = ff.apply(dah(ff.row, ff.col));
        });
        device_faults = true;
      } else {
        // Finished rows hold P's Householder storage; finished columns
        // hold Q's; the bidiagonal band itself is host data too.
        a_(f.row, f.col) = f.apply(a_(f.row, f.col));
      }
      inj_->record(boundary, f);
    }
    // One drain for the whole batch: a per-fault synchronize would
    // serialize multi-fault injection for no benefit.
    if (device_faults) s_.synchronize();
  }

  void final_sweep(FtEvent& ev) override {
    worst_gap_ = 0.0;
    FreshSums fresh;
    const Discrepancy disc = compare(n_ - 1, &fresh);
    if (disc.clean()) return;
    apply_corrections(ft::locate(disc, fresh, threshold_), n_ - 1, ev);
    copy_d2h(s_, d_a_.block(n_ - 1, n_ - 1, 1, 1), a_.block(n_ - 1, n_ - 1, 1, 1));
  }

  int verify_q(double tol) override {
    const int v_corrections = qp_v_.verify_and_correct(a_, n_ - 1, tol).corrections;
    // The P family is verified on the transposed mirror. Refresh it from
    // the live row storage first — the point is to check the *current*
    // bytes against the generation-time checksums — then copy any
    // corrections back.
    for (index_t r = 0; r + 1 < n_; ++r)
      for (index_t c = r + 2; c < n_; ++c) at_mirror_(c, r) = a_(r, c);
    const int u_corrections = qp_u_.verify_and_correct(at_mirror_.view(), n_ - 1, tol).corrections;
    if (u_corrections > 0) {
      for (index_t r = 0; r + 1 < n_; ++r)
        for (index_t c = r + 2; c < n_; ++c) a_(r, c) = at_mirror_(c, r);
    }
    return v_corrections + u_corrections;
  }

  hybrid::Stream& s_;
  MatrixView<double> a_;
  VectorView<double> d_;
  VectorView<double> e_;
  VectorView<double> tauq_;
  VectorView<double> taup_;
  const FtGebrdOptions& opt_;
  fault::Injector* inj_;
  hybrid::HybridGehrdStats& st_;

  index_t n_;
  double threshold_;
  fault::FaultPlane* plane_;  ///< optional in-flight fault plane (not owned)
  double worst_gap_ = 0.0;
  bool has_nonfinite_ = false;

  hybrid::DeviceMatrix<double> d_a_;
  hybrid::DeviceMatrix<double> d_v2_;
  hybrid::DeviceMatrix<double> d_y2_;
  hybrid::DeviceMatrix<double> d_x2_;
  hybrid::DeviceMatrix<double> d_u2_;
  hybrid::DeviceMatrix<double> d_chkc_;
  hybrid::DeviceMatrix<double> d_chkr_;
  hybrid::DeviceMatrix<double> d_ones_;
  hybrid::DeviceMatrix<double> d_vec_;
  hybrid::DeviceMatrix<double> d_res_;
  hybrid::DeviceMatrix<double> d_sums_;
  hybrid::DeviceMatrix<double> d_pc_;
  hybrid::DeviceMatrix<double> d_fresh_;

  Matrix<double> x_host_;
  Matrix<double> y_host_;
  Matrix<double> ckpt_cols_;
  Matrix<double> ckpt_rows_;
  // Re-encode staging segment, hoisted out of the update loop: the async
  // h2d that reads it stays in flight past the loop bottom and is retired
  // by detect()'s synchronous fetch before the next refill.
  Matrix<double> seg_;
  Matrix<double> at_mirror_;
  QProtector qp_v_;
  QProtector qp_u_;
  QProtector::PanelChecksums pending_v_;
  QProtector::PanelChecksums pending_u_;
  LocateResult located_;  ///< what locate() found, for correct()
  DualSum ckpt_sum_;      ///< integrity sums of both panel checkpoints, at save
  ChecksumPair chk_;      ///< row-sum / column-sum vectors and their checkpoint
  Protocol proto_;
};

}  // namespace

void ft_gebrd(hybrid::Device& dev, MatrixView<double> a, VectorView<double> d,
              VectorView<double> e, VectorView<double> tauq, VectorView<double> taup,
              const FtGebrdOptions& opt, fault::Injector* injector, FtReport* report,
              hybrid::HybridGehrdStats* stats) {
  const index_t n = a.rows();
  FTH_CHECK(a.cols() == n, "ft_gebrd: matrix must be square");
  FTH_CHECK(d.size() >= n && tauq.size() >= n, "ft_gebrd: d/tauq too short");
  FTH_CHECK(e.size() >= std::max<index_t>(n - 1, 0) &&
                taup.size() >= std::max<index_t>(n - 1, 0),
            "ft_gebrd: e/taup too short");
  FTH_CHECK(opt.nb >= 1 && opt.detect_every >= 1, "ft_gebrd: bad options");
  run_entry(dev, "gebrd", n, report, stats, [&](FtReport& rep, hybrid::HybridGehrdStats& st) {
    if (n > 2) {
      FtGebrdDriver(dev, a, d, e, tauq, taup, opt, injector, rep, st).run();
    } else if (n > 0) {
      // Trivial sizes: the unblocked code is exact and cheap.
      lapack::gebd2(a, d, e, tauq, taup);
    }
  });
}

}  // namespace fth::ft
