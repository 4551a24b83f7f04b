#include "ft/protocol.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "fault/fault_plane.hpp"
#include "ft/recovery.hpp"
#include "la/norms.hpp"
#include "obs/dag.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

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

bool bits_equal(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

bool DualSum::same_bits(const DualSum& o) const {
  return bits_equal(plain, o.plain) && bits_equal(weighted, o.weighted);
}

namespace {

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

}  // namespace

// -- Protocol ---------------------------------------------------------------

void Protocol::attach(hybrid::Device& dev, MatrixView<const double> a) {
  scale_max_ = norm_max(a);
  rep_.threshold = threshold_;
  if (plane_ != nullptr) plane_->bind(dev);
}

Protocol::~Protocol() {
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

void Protocol::abort(AbortReason why, index_t boundary, int attempts, double gap,
                     const std::string& detail) {
  abort_recovery(rep_.outcome, who_, why, boundary, attempts, gap, threshold_, detail);
}

void Protocol::encode() {
  WallTimer t;
  {
    obs::TraceSpan span("ft", "encode", "n", static_cast<double>(n_));
    code_.encode();
  }
  rep_.encode_seconds += t.seconds();
  // Faults are gated until the codes exist: an earlier strike would be
  // encoded consistently and become a different (but protected) input.
  if (plane_ != nullptr) plane_->mark_encoded();
}

// The escalation ladder on a dirty boundary: bounded retries of
// (rollback → checkpoint verify/re-derive → locate → correct → redo);
// every exit that cannot restore a consistent state goes through
// abort_recovery, which fills rep_.outcome before throwing.
void Protocol::ensure_clean(index_t boundary, index_t i, index_t ib, bool completed) {
  int attempts = 0;
  for (;;) {
    Detection det;
    if (completed) {
      WallTimer t;
      {
        obs::TraceSpan span("ft", "detect");
        det = code_.detect(i, ib);
      }
      rep_.detect_seconds += t.seconds();
      if (std::isfinite(det.gap)) {
        obs::histogram_metric("ft.detect_gap").observe(det.gap);
        obs::counter("ft.detect_gap", det.gap);
      }
      if (!det.dirty) {
        rep_.max_fault_free_gap = std::max(rep_.max_fault_free_gap, det.gap);
        return;
      }
    } else {
      // The panel tripwire already proved the iteration unusable; there
      // is nothing meaningful to measure, so synthesize the detection.
      det = {std::numeric_limits<double>::quiet_NaN(), 1, true};
    }
    ++rep_.detections;
    obs::instant("ft", "detection");
    obs::counter_metric("ft.detections").add();
    obs::journal_log(obs::JournalSeverity::Warn, "ft", "detect", -1, det.gap, boundary);
    if (det.nonfinite > 0) obs::counter_metric("ft.nonfinite_detections").add();
    if (++attempts > max_retries_) {
      abort(AbortReason::RetriesExhausted, boundary, attempts - 1, det.gap,
            code_.describe(det) + " after exhausting retries");
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
      code_.rollback(i, ib, completed);
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
        {
          obs::TraceSpan loc_span("ft", "locate");
          code_.locate(i);
        }
        obs::TraceSpan fix_span("ft", "correct");
        if (!code_.correct(i, ev)) break;
      }
    } catch (const recovery_error& e) {
      // Location (or reconstruction) gave up: the pattern exceeds the
      // code's correction capability. Record the abandoned iteration,
      // then abort with the structured cause.
      rep_.events.push_back(std::move(ev));
      abort(code_.nonfinite_damage(det) ? AbortReason::NonfiniteDamage
                                        : AbortReason::AmbiguousPattern,
            boundary, attempts, det.gap, e.what());
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
      completed = code_.run_iteration(i, ib);  // redo from the restored checkpoint
    }
    rep_.recovery_seconds += rt.seconds();
  }
}

void Protocol::panel_aborted(index_t i) {
  ++rep_.panel_aborts;
  obs::counter_metric("ft.panel_aborts").add();
  obs::instant("ft", "panel_abort");
  obs::journal_log(obs::JournalSeverity::Warn, "ft", "panel_abort", -1, 0.0, i);
}

void Protocol::rederived() {
  ++rep_.ckpt_rederivations;
  obs::counter_metric("ft.ckpt_rederivations").add();
  obs::instant("ft", "ckpt_rederive");
}

void Protocol::reconstructed() {
  ++rep_.reconstructions;
  obs::counter_metric("ft.reconstructions").add();
  obs::instant("ft", "reconstruction");
}

// Final sweep: catches errors that never propagated (finished data, the
// last trailing line, or checksum elements hit after the last check).
void Protocol::final_sweep() {
  if (!final_sweep_) return;
  rep_.final_sweep_ran = true;
  WallTimer t;
  obs::TraceSpan sweep_span("ft", "final_sweep");
  FtEvent ev;
  try {
    code_.final_sweep(ev);
  } catch (const recovery_error& e) {
    abort(AbortReason::AmbiguousPattern, total_boundaries_, 0, 0.0,
          std::string("final sweep: ") + e.what());
  }
  rep_.final_sweep_corrections = ev.data_corrections + ev.checksum_corrections + ev.reconstructions;
  rep_.data_corrections += ev.data_corrections;
  rep_.checksum_corrections += ev.checksum_corrections;
  obs::counter_metric("ft.data_corrections").add(static_cast<std::uint64_t>(ev.data_corrections));
  obs::counter_metric("ft.checksum_corrections")
      .add(static_cast<std::uint64_t>(ev.checksum_corrections));
  rep_.detect_seconds += t.seconds();
}

// Section IV-E: verify + correct the Householder storage once.
void Protocol::verify_q() {
  if (!protect_q_) return;
  WallTimer qt;
  obs::TraceSpan q_span("ft", "q_verify");
  const double q_tol =
      1e3 * eps<double>() * static_cast<double>(n_) * std::max(1.0, scale_max_);
  const int corrections = code_.verify_q(q_tol);
  rep_.q_corrections += corrections;
  obs::counter_metric("ft.q_corrections").add(static_cast<std::uint64_t>(corrections));
  rep_.q_seconds += qt.seconds();
}

void Protocol::conclude() {
  // Clean means NOTHING fired: a run that survived only because a
  // checkpoint was re-derived, a non-finite element reconstructed, or a
  // poisoned panel abandoned was still a recovery.
  rep_.outcome.status = (rep_.detections > 0 || rep_.final_sweep_corrections > 0 ||
                         rep_.q_corrections > 0 || rep_.ckpt_rederivations > 0 ||
                         rep_.reconstructions > 0 || rep_.panel_aborts > 0)
                            ? RecoveryStatus::Recovered
                            : RecoveryStatus::Clean;
}

// -- ChecksumPair -----------------------------------------------------------

ChecksumPair::ChecksumPair(Protocol& proto, hybrid::Stream& s, hybrid::DeviceMatrix<double>& d0,
                           hybrid::DeviceMatrix<double>& d1)
    : proto_(proto), s_(s), d0_(d0), d1_(d1), n_(d0.rows()), ckpt0_(n_, 1), ckpt1_(n_, 1) {}

// The two vectors share one sum pair: unlike a panel, both are re-derived
// from the same source (fresh sums of the rolled-back data).
DualSum ChecksumPair::sums() const {
  DualSum s;
  for (index_t r = 0; r < n_; ++r) {
    s.add(ckpt0_(r, 0), static_cast<double>(r + 1));
    s.add(ckpt1_(r, 0), static_cast<double>(n_ + r + 1));
  }
  return s;
}

void ChecksumPair::cross_check() {
  Matrix<double> ref(n_, 2);
  auto rv = ref.view();
  auto v0 = d0_.view();
  auto v1 = d1_.view();
  s_.enqueue("ft.ckpt_readback", FTH_TASK_EFFECTS(FTH_READS(v0, v1) FTH_WRITES(rv)),
             [rv, v0, v1, n = n_]() mutable {
    auto h0 = v0.in_task();
    auto h1 = v1.in_task();
    for (index_t r = 0; r < n; ++r) {
      rv(r, 0) = h0(r, 0);
      rv(r, 1) = h1(r, 0);
    }
  });
  s_.synchronize();
  for (index_t r = 0; r < n_; ++r) {
    if (!bits_equal(ckpt0_(r, 0), ref(r, 0))) {
      ckpt0_(r, 0) = ref(r, 0);
      proto_.rederived();
    }
    if (!bits_equal(ckpt1_(r, 0), ref(r, 1))) {
      ckpt1_(r, 0) = ref(r, 1);
      proto_.rederived();
    }
  }
  sum_ = sums();
}

bool ChecksumPair::intact() const { return sums().same_bits(sum_); }

void ChecksumPair::rederive(const std::vector<double>& fresh0, const std::vector<double>& fresh1) {
  // An undetected fault older than the last check would be encoded
  // consistently here — the residual double-fault window DESIGN.md §9
  // documents.
  for (index_t r = 0; r < n_; ++r) {
    ckpt0_(r, 0) = fresh0[static_cast<std::size_t>(r)];
    ckpt1_(r, 0) = fresh1[static_cast<std::size_t>(r)];
  }
  sum_ = sums();
  proto_.rederived();
}

void ChecksumPair::restore() {
  hybrid::copy_h2d_async(s_, ckpt0_.cview(), d0_.view());
  hybrid::copy_h2d(s_, ckpt1_.cview(), d1_.view());
}

std::vector<double> ChecksumPair::fetch(bool second) {
  std::vector<double> out(static_cast<std::size_t>(n_));
  auto v0 = d0_.view();
  auto v1 = d1_.view();
  s_.enqueue("ft.chk_readback", FTH_TASK_EFFECTS(FTH_READS(v0, v1)),
             [v0, v1, &out, second, n = n_] {
    auto c = (second ? v1 : v0).col(0).in_task();
    for (index_t r = 0; r < n; ++r) out[static_cast<std::size_t>(r)] = c[r];
  });
  s_.synchronize();
  return out;
}

// -- public-entry bracket ---------------------------------------------------

void run_entry(hybrid::Device& dev, const char* name, index_t n, FtReport* report,
               hybrid::HybridGehrdStats* stats,
               const std::function<void(FtReport&, hybrid::HybridGehrdStats&)>& body) {
  FtReport local_rep;
  hybrid::HybridGehrdStats local_st;
  FtReport& rep = report != nullptr ? *report : local_rep;
  hybrid::HybridGehrdStats& st = stats != nullptr ? *stats : local_st;
  rep = {};
  st = {};

  obs::TraceSpan run_span("ft", name, "n", static_cast<double>(n));
  WallTimer total;
  const hybrid::detail::StatsScope scope(dev);
  body(rep, st);
  st.total_seconds = total.seconds();
  scope.finish(st);
}

}  // namespace fth::ft
