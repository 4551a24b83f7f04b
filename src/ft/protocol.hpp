// One fault-tolerance protocol for the two-sided family.
//
// Algorithm 3 of the paper is a single protocol: encode, detect at every
// iteration boundary, reverse the last update, restore the diskless panel
// checkpoint, locate and correct, re-execute, protect Q. ft_gehrd, ft_sytrd
// and ft_gebrd differ only in how they encode, maintain, compare and repair
// their checksums. ft::Protocol owns the shared ladder and its accounting;
// each driver implements the ft::Code hooks and keeps its own boundary loop
// (DESIGN.md "One FT protocol").
#pragma once

#include <cmath>
#include <functional>
#include <string>
#include <vector>

#include "ft/ft_gehrd.hpp"  // FtReport / FtEvent
#include "hybrid/hybrid_gehrd.hpp"

namespace fth::fault {
class FaultPlane;
}

namespace fth::ft {

/// Thrown by a panel tripwire when a device-assisted product comes back
/// non-finite: the reflector chain would smear NaN/Inf across the whole
/// trailing matrix, so the panel is abandoned before any update.
struct panel_poisoned_error {};

/// What one boundary check saw. `gap` is the reported discrepancy;
/// `nonfinite` counts non-finite entries (ft_gehrd) or flags them (0/1).
struct Detection {
  double gap = 0.0;
  index_t nonfinite = 0;
  bool dirty = false;
};

/// The code-specific half of an FT reduction. The Protocol calls these;
/// each driver's own boundary loop additionally calls its
/// inject_at_boundary and commits its Q checksums. One virtual call per
/// boundary is noise next to the O(n²) check it dispatches.
class Code {
 public:
  Code() = default;
  Code(const Code&) = delete;
  Code& operator=(const Code&) = delete;
  virtual ~Code() = default;

  /// Build the checksums on the device and leave the stream drained.
  virtual void encode() = 0;
  /// One panel iteration over columns [i, i+ib). Returns false if the panel
  /// tripwire abandoned it before any update touched the trailing matrix.
  virtual bool run_iteration(index_t i, index_t ib) = 0;
  /// Compare the maintained codes against the data after iteration [i, i+ib).
  virtual Detection detect(index_t i, index_t ib) = 0;
  /// How the retries-exhausted detail words a detection.
  [[nodiscard]] virtual std::string describe(const Detection& det) const = 0;
  /// Reverse the iteration's updates and restore (verifying) its checkpoints.
  virtual void rollback(index_t i, index_t ib, bool completed) = 0;
  /// Find what disagrees with the codes after rollback (finished region [0, i)).
  virtual void locate(index_t i) = 0;
  /// Repair what locate() found, counting into `ev`. Returns true when a
  /// second locate/correct pass is due (reconstruction can leave residue).
  virtual bool correct(index_t i, FtEvent& ev) = 0;
  /// Whether a recovery abandoned after `det` failed on non-finite damage
  /// (the abort reason); by default, whether the detection saw any.
  [[nodiscard]] virtual bool nonfinite_damage(const Detection& det) const {
    return det.nonfinite > 0;
  }
  /// Full verification after the last iteration, counting into `ev`.
  virtual void final_sweep(FtEvent& ev) = 0;
  /// Verify and repair the Householder storage; returns the corrections.
  virtual int verify_q(double tol) = 0;
};

/// Plain + position-weighted integrity sums of a host checkpoint, taken at
/// save and compared bitwise at restore: any corruption of the buffer in
/// between flips at least one of them. The weighted term is an explicit
/// fma: left to the compiler, each inlined copy may contract `v * w + s`
/// differently, and save and verify would then disagree on a clean buffer.
struct DualSum {
  double plain = 0.0;
  double weighted = 0.0;
  void add(double v, double w) {
    plain += v;
    weighted = std::fma(v, w, weighted);
  }
  [[nodiscard]] bool same_bits(const DualSum& o) const;
};

/// Bitwise equality (a NaN with the same payload is equal to itself).
bool bits_equal(double a, double b);

/// The shared ladder and its accounting around one Code. Construct it last
/// in the driver: it binds the fault plane, and its destructor drains the
/// stream and unbinds the plane before the driver's buffers go away.
class Protocol {
 public:
  /// `who` names the driver in recovery_error messages and the journal.
  template <class Options>
  Protocol(const char* who, hybrid::Device& dev, Code& code, FtReport& rep,
           MatrixView<const double> a, const Options& opt, double threshold)
      : who_(who),
        s_(dev.stream()),
        code_(code),
        rep_(rep),
        plane_(opt.fault_plane),
        n_(a.rows()),
        max_retries_(opt.max_retries),
        final_sweep_(opt.final_sweep),
        protect_q_(opt.protect_q),
        threshold_(threshold),
        total_boundaries_(ft_total_boundaries(a.rows(), opt.nb)) {
    attach(dev, a);
  }
  ~Protocol();
  Protocol(const Protocol&) = delete;
  Protocol& operator=(const Protocol&) = delete;

  /// Encode (Code::encode, timed), then open the fault plane's gate.
  void encode();
  /// Lines 12–16 of Algorithm 3 at one boundary: detect, and while dirty
  /// roll back, locate, correct and re-execute, escalating to a structured
  /// recovery_error after max_retries or on an uncorrectable pattern.
  void ensure_clean(index_t boundary, index_t i, index_t ib, bool completed);
  /// Accounting for a panel the non-finite tripwire abandoned at column i.
  void panel_aborted(index_t i);
  /// Accounting for a corrupt checkpoint rebuilt from its source.
  void rederived();
  /// Accounting for a non-finite element re-derived from the codes.
  void reconstructed();
  /// Code::final_sweep with its accounting, if the options ask for it.
  void final_sweep();
  /// Code::verify_q with its accounting, if the options ask for it.
  void verify_q();
  /// Record the Clean/Recovered outcome of a run that returned normally.
  void conclude();

  [[nodiscard]] FtReport& report() { return rep_; }
  [[nodiscard]] double threshold() const { return threshold_; }
  [[nodiscard]] double scale_max() const { return scale_max_; }
  [[nodiscard]] index_t total_boundaries() const { return total_boundaries_; }

 private:
  void attach(hybrid::Device& dev, MatrixView<const double> a);
  [[noreturn]] void abort(AbortReason why, index_t boundary, int attempts, double gap,
                          const std::string& detail);

  const char* who_;
  hybrid::Stream& s_;
  Code& code_;
  FtReport& rep_;
  fault::FaultPlane* plane_;  ///< optional in-flight fault plane (not owned)
  index_t n_;
  int max_retries_;
  bool final_sweep_;
  bool protect_q_;
  double threshold_;
  double scale_max_ = 0.0;
  index_t total_boundaries_;
};

/// The two maintained length-n checksum vectors of ft_sytrd (chk_e, chk_w)
/// and ft_gebrd (row sums, column sums), with their diskless checkpoint.
/// The device vectors stay driver members, so the analyzer's
/// stale-checksum-write rule keeps seeing their d_*chk* names.
class ChecksumPair {
 public:
  ChecksumPair(Protocol& proto, hybrid::Stream& s, hybrid::DeviceMatrix<double>& d0,
               hybrid::DeviceMatrix<double>& d1);

  /// Host checkpoint of vector k (the driver's save d2h lands here).
  [[nodiscard]] MatrixView<double> ckpt(index_t k) { return (k == 0 ? ckpt0_ : ckpt1_).view(); }
  /// After the driver's save d2h: cross-check the checkpoint bitwise
  /// against the device vectors via a raw task readback (not a transfer,
  /// so a transfer fault cannot strike both sides), repair any mismatch,
  /// and take the integrity sums.
  void cross_check();
  /// Do the integrity sums still match the ones taken at save?
  [[nodiscard]] bool intact() const;
  /// Re-derive a struck checkpoint from fresh sums of the rolled-back data.
  void rederive(const std::vector<double>& fresh0, const std::vector<double>& fresh1);
  /// Push the checkpoint back to the device vectors.
  void restore();
  /// Read device vector 0 or 1 back to the host.
  std::vector<double> fetch(bool second);

 private:
  [[nodiscard]] DualSum sums() const;

  Protocol& proto_;
  hybrid::Stream& s_;
  hybrid::DeviceMatrix<double>& d0_;
  hybrid::DeviceMatrix<double>& d1_;
  index_t n_;
  Matrix<double> ckpt0_;
  Matrix<double> ckpt1_;
  DualSum sum_;  ///< integrity sums at save
};

/// The public-entry bracket every FT driver shares: resets the caller's
/// report and stats (or local stand-ins), opens the run span `name`, times
/// the call and folds the device transfer statistics in when `body` returns.
void run_entry(hybrid::Device& dev, const char* name, index_t n, FtReport* report,
               hybrid::HybridGehrdStats* stats,
               const std::function<void(FtReport&, hybrid::HybridGehrdStats&)>& body);

}  // namespace fth::ft
