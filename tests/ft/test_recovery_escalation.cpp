// Structured recovery escalation: patterns beyond the code's correction
// capability must end in a recovery_error carrying boundary/attempts/gap/
// threshold — and a matching RecoveryOutcome in FtReport — never a hang,
// never a bare abort. The ladder is shared (ft::Protocol), so every case
// runs against all three codes.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/error.hpp"
#include "fault/injector.hpp"
#include "ft/ft_gebrd.hpp"
#include "ft/ft_gehrd.hpp"
#include "ft/ft_sytrd.hpp"
#include "la/generate.hpp"

namespace fth::ft {
namespace {

constexpr index_t kN = 96;
constexpr index_t kNb = 32;

struct Attempt {
  bool threw = false;
  recovery_error err{"", -1, 0, 0.0, 0.0};
  FtReport rep;
};

enum class Alg { Gehrd, Sytrd, Gebrd };

const char* name(Alg alg) {
  switch (alg) {
    case Alg::Gehrd: return "ft_gehrd";
    case Alg::Sytrd: return "ft_sytrd";
    case Alg::Gebrd: return "ft_gebrd";
  }
  return "?";
}

/// The input matrix each code reduces (sytrd needs a symmetric one).
Matrix<double> input(Alg alg, std::uint64_t seed) {
  return alg == Alg::Sytrd ? random_symmetric_matrix(kN, seed) : random_matrix(kN, kN, seed);
}

Attempt run(Alg alg, const Matrix<double>& a0, int max_retries, fault::Injector* inj) {
  hybrid::Device dev;
  Attempt out;
  Matrix<double> a(a0.cview());
  std::vector<double> d(static_cast<std::size_t>(kN));
  std::vector<double> e(static_cast<std::size_t>(kN));
  std::vector<double> tau(static_cast<std::size_t>(kN));
  std::vector<double> taup(static_cast<std::size_t>(kN));
  try {
    if (alg == Alg::Gehrd) {
      FtOptions opt;
      opt.nb = kNb;
      opt.max_retries = max_retries;
      ft_gehrd(dev, a.view(), VectorView<double>(tau.data(), kN - 1), opt, inj, &out.rep);
    } else {
      FtSytrdOptions opt;  // == FtGebrdOptions
      opt.nb = kNb;
      opt.max_retries = max_retries;
      if (alg == Alg::Sytrd) {
        ft_sytrd(dev, a.view(), VectorView<double>(d.data(), kN),
                 VectorView<double>(e.data(), kN - 1), VectorView<double>(tau.data(), kN - 1),
                 opt, inj, &out.rep);
      } else {
        ft_gebrd(dev, a.view(), VectorView<double>(d.data(), kN),
                 VectorView<double>(e.data(), kN - 1), VectorView<double>(tau.data(), kN),
                 VectorView<double>(taup.data(), kN - 1), opt, inj, &out.rep);
      }
    }
  } catch (const recovery_error& err) {
    out.threw = true;
    out.err = err;
  }
  return out;
}

fault::FaultSpec absolute_fault(index_t row, index_t col, double magnitude) {
  fault::FaultSpec s;
  s.row = row;
  s.col = col;
  s.boundary = 1;
  s.magnitude = magnitude;
  s.relative = false;
  return s;
}

/// The outcome recorded in the report must mirror the thrown error field
/// for field, and the abandoned attempt (if any) must be on record.
void expect_mirrored(const Attempt& out, AbortReason reason) {
  ASSERT_TRUE(out.threw) << "an uncorrectable pattern must not be silently 'corrected'";
  EXPECT_EQ(out.rep.outcome.status, RecoveryStatus::Unrecoverable);
  EXPECT_EQ(out.rep.outcome.reason, reason);
  EXPECT_EQ(out.rep.outcome.boundary, out.err.boundary());
  EXPECT_EQ(out.rep.outcome.attempts, out.err.attempts());
  EXPECT_EQ(out.rep.outcome.gap, out.err.gap());
  EXPECT_EQ(out.rep.outcome.threshold, out.err.threshold());
  EXPECT_FALSE(out.rep.outcome.detail.empty());
  EXPECT_GE(out.rep.detections, 1);
  EXPECT_GT(out.err.threshold(), 0.0);
  EXPECT_GT(out.err.gap(), out.err.threshold());
  if (out.err.attempts() > 0) {
    ASSERT_FALSE(out.rep.events.empty());
    EXPECT_EQ(out.rep.events.back().boundary, out.err.boundary());
  } else {
    EXPECT_TRUE(out.rep.events.empty()) << "no recovery was attempted";
  }
}

// Patterns the codes cannot resolve: two equal-magnitude faults at
// (r1,c1),(r2,c2) with distinct rows and columns form the paper's
// rectangle — row and column deltas pair two ways, so locate() cannot
// resolve the positions. sytrd's ratio locator has its own blind spot,
// two faults sharing a stored row. Each run must fail gracefully within
// max_retries with structured fields set.
TEST(Escalation, RectanglePatternAbortsWithStructuredError) {
  struct Case {
    Alg alg;
    std::vector<fault::FaultSpec> faults;
    index_t boundary;  ///< where the abandoning detection fires
    const char* detail;
  };
  const Case cases[] = {
      // Boundary-1 faults are planted after ft_gehrd's boundary-1
      // comparison, so its abandoning detection fires at boundary 2.
      {Alg::Gehrd, {absolute_fault(50, 60, 1000.0), absolute_fault(70, 80, 1000.0)}, 2,
       "rectangle"},
      {Alg::Gebrd, {absolute_fault(50, 60, 1000.0), absolute_fault(70, 80, 1000.0)}, 1,
       "rectangle"},
      {Alg::Sytrd, {absolute_fault(90, 50, 1000.0), absolute_fault(90, 70, 370.0)}, 1,
       "ratio does not identify a column"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(name(c.alg));
    fault::Injector inj(c.faults, 7);
    const int max_retries = 3;
    const Attempt out = run(c.alg, input(c.alg, 401), max_retries, &inj);
    expect_mirrored(out, AbortReason::AmbiguousPattern);
    EXPECT_EQ(out.err.boundary(), c.boundary);
    EXPECT_GE(out.err.attempts(), 1);
    EXPECT_LE(out.err.attempts(), max_retries);
    EXPECT_NE(out.rep.outcome.detail.find(c.detail), std::string::npos)
        << out.rep.outcome.detail;
  }
}

// With max_retries = 0 the first detection abandons the run. The boundary
// it reports pins each driver's injection order: ft_gehrd plants boundary
// faults after the boundary's check, sytrd and gebrd before it.
TEST(Escalation, ZeroRetriesAbandonAtTheFirstDetection) {
  const std::pair<Alg, index_t> cases[] = {
      {Alg::Gehrd, 2}, {Alg::Sytrd, 1}, {Alg::Gebrd, 1}};
  for (const auto& [alg, boundary] : cases) {
    SCOPED_TRACE(name(alg));
    fault::FaultSpec spec;
    spec.area = fault::Area::LowerTrailing;
    spec.boundary = 1;
    fault::Injector inj(spec, 11);
    const Attempt out = run(alg, input(alg, 402), /*max_retries=*/0, &inj);
    expect_mirrored(out, AbortReason::RetriesExhausted);
    EXPECT_EQ(out.err.attempts(), 0);
    EXPECT_EQ(out.err.boundary(), boundary);
  }
}

// A detection that locate() cannot act on (tolerance swallows the deltas)
// keeps re-firing; the ladder must cut it off after max_retries attempts
// with RetriesExhausted rather than looping forever. (ft_gehrd only: the
// location tolerance is its own knob.)
TEST(Escalation, UncorrectableDetectionExhaustsRetries) {
  Matrix<double> a0 = random_matrix(kN, kN, 402);

  fault::FaultSpec spec;
  spec.area = fault::Area::LowerTrailing;
  spec.boundary = 1;
  fault::Injector inj(spec, 11);

  FtOptions opt;
  opt.nb = kNb;
  opt.max_retries = 2;
  opt.locate_tol = 1e9;  // locate sees a clean delta → nothing gets fixed
  hybrid::Device dev;
  Attempt out;
  Matrix<double> a(a0.cview());
  std::vector<double> tau(static_cast<std::size_t>(kN - 1));
  try {
    ft_gehrd(dev, a.view(), VectorView<double>(tau.data(), kN - 1), opt, &inj, &out.rep);
  } catch (const recovery_error& e) {
    out.threw = true;
    out.err = e;
  }

  expect_mirrored(out, AbortReason::RetriesExhausted);
  EXPECT_EQ(out.err.attempts(), opt.max_retries);
}

}  // namespace
}  // namespace fth::ft
