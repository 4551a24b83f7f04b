#include "workload.hpp"

#include <chrono>
#include <memory>
#include <stdexcept>

#include "checks.hpp"
#include "common/flops.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"

namespace perfbench {

namespace hy = fth::hybrid;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// splitmix64 of a combined key: independent sub-seeds from the run seed.
std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

enum class Variant { Hybrid, Ft, Faulted };

const char* to_string(Variant v) {
  switch (v) {
    case Variant::Hybrid: return "hybrid";
    case Variant::Ft: return "ft";
    case Variant::Faulted: return "ft+fault";
  }
  return "?";
}

/// Telemetry of one reduction.
struct Call {
  double wall = 0.0;
  bool ok = true;
  hy::HybridGehrdStats st;
  fth::ft::FtReport rep;
  fth::obs::ProfileReport prof;  ///< filled when the call ran under a profile window
};

/// One round, walls summed over the workload's codes.
struct Round {
  double hy = 0.0, ft = 0.0, fx = 0.0;
  std::vector<Call> hy_calls, ft_calls, fx_calls;  ///< one per code
};

/// Per-round sums over codes of a per-call quantity.
template <class F>
double sum_calls(const std::vector<Call>& calls, F&& f) {
  double s = 0.0;
  for (const Call& c : calls) s += f(c);
  return s;
}

class Driver {
 public:
  Driver(const RunOptions& opt, RunResult& res)
      : wl_(*opt.workload), seed_(opt.seed), corrupt_(opt.corrupt_attempt), res_(res) {}

  /// Fresh device, freshly generated inputs, and one untimed warm-up
  /// reduction of each kind per code. Returns its wall time.
  double setup() {
    const auto t0 = Clock::now();
    dev_.reset();
    dev_ = std::make_unique<hy::Device>();
    in_.clear();
    for (std::size_t k = 0; k < wl_.codes.size(); ++k)
      in_.push_back(make_input(wl_.codes[k], wl_.n, mix(seed_, k)));
    out_.assign(wl_.codes.size(), {});
    for (std::size_t k = 0; k < wl_.codes.size(); ++k) {
      Call h = reduce(k, Variant::Hybrid, nullptr, false);
      Call f = reduce(k, Variant::Ft, nullptr, false);
      agree(k, h, Variant::Hybrid, f, Variant::Ft);
    }
    return seconds_since(t0);
  }

  /// Round r: per code hybrid, clean FT, FT with the grid fault of cell r;
  /// even rounds in that order, odd rounds reversed (codes too).
  Round round(int r, bool profile) {
    Round rd;
    const std::size_t nc = wl_.codes.size();
    rd.hy_calls.resize(nc);
    rd.ft_calls.resize(nc);
    rd.fx_calls.resize(nc);
    const bool forward = r % 2 == 0;
    for (std::size_t i = 0; i < nc; ++i) {
      const std::size_t k = forward ? i : nc - 1 - i;
      fth::fault::Injector inj(grid_fault(r), mix(seed_, 1000 + 8 * static_cast<std::uint64_t>(r) + k));
      if (forward) {
        rd.hy_calls[k] = reduce(k, Variant::Hybrid, nullptr, profile);
        rd.ft_calls[k] = reduce(k, Variant::Ft, nullptr, profile);
        rd.fx_calls[k] = reduce(k, Variant::Faulted, &inj, profile);
      } else {
        rd.fx_calls[k] = reduce(k, Variant::Faulted, &inj, profile);
        rd.ft_calls[k] = reduce(k, Variant::Ft, nullptr, profile);
        rd.hy_calls[k] = reduce(k, Variant::Hybrid, nullptr, profile);
      }
      agree(k, rd.hy_calls[k], Variant::Hybrid, rd.ft_calls[k], Variant::Ft);
      // The faulted run is held to the clean FT output, or to the hybrid
      // one when the clean FT run itself failed.
      const bool ft_ok = rd.ft_calls[k].ok;
      agree(k, ft_ok ? rd.ft_calls[k] : rd.hy_calls[k], ft_ok ? Variant::Ft : Variant::Hybrid,
            rd.fx_calls[k], Variant::Faulted);
      rd.hy += rd.hy_calls[k].wall;
      rd.ft += rd.ft_calls[k].wall;
      rd.fx += rd.fx_calls[k].wall;
    }
    return rd;
  }

  /// Exact per-round counts from one hybrid and one clean FT reduction per
  /// code: transfers, stream tasks and counted flops.
  void count_pass(std::vector<Metric>& m) {
    double hy_tasks = 0, ft_tasks = 0, hy_flops = 0, ft_flops = 0;
    hy::HybridGehrdStats hs, fs;
    auto add = [](hy::HybridGehrdStats& acc, const hy::HybridGehrdStats& s) {
      acc.h2d_count += s.h2d_count;
      acc.d2h_count += s.d2h_count;
      acc.h2d_bytes += s.h2d_bytes;
      acc.d2h_bytes += s.d2h_bytes;
      acc.peak_queue_depth = std::max(acc.peak_queue_depth, s.peak_queue_depth);
    };
    for (std::size_t k = 0; k < wl_.codes.size(); ++k) {
      Call calls[2];
      double tasks[2] = {}, flops[2] = {};
      for (int v = 0; v < 2; ++v) {
        const std::uint64_t tasks0 = dev_->stream().tasks_executed();
        const fth::flops::Scope scope;
        calls[v] = reduce(k, v == 0 ? Variant::Hybrid : Variant::Ft, nullptr, false);
        dev_->stream().synchronize();
        flops[v] = static_cast<double>(scope.delta());
        tasks[v] = static_cast<double>(dev_->stream().tasks_executed() - tasks0);
      }
      agree(k, calls[0], Variant::Hybrid, calls[1], Variant::Ft);
      count_ft_.push_back(calls[1]);
      add(hs, calls[0].st);
      add(fs, calls[1].st);
      hy_tasks += tasks[0];
      ft_tasks += tasks[1];
      hy_flops += flops[0];
      ft_flops += flops[1];
    }
    m.push_back(exact("hybrid.tasks", "count", hy_tasks));
    m.push_back(exact("hybrid.h2d_count", "count", static_cast<double>(hs.h2d_count)));
    m.push_back(exact("hybrid.d2h_count", "count", static_cast<double>(hs.d2h_count)));
    m.push_back(exact("hybrid.h2d_bytes", "B", static_cast<double>(hs.h2d_bytes)));
    m.push_back(exact("hybrid.d2h_bytes", "B", static_cast<double>(hs.d2h_bytes)));
    m.push_back(exact("hybrid.peak_queue_depth", "count", static_cast<double>(hs.peak_queue_depth)));
    m.push_back(exact("ft.tasks", "count", ft_tasks));
    m.push_back(exact("ft.h2d_count", "count", static_cast<double>(fs.h2d_count)));
    m.push_back(exact("ft.d2h_count", "count", static_cast<double>(fs.d2h_count)));
    m.push_back(exact("ft.extra_flops", "flop", ft_flops - hy_flops));
  }

  /// The recovery ledger: one faulted FT reduction per grid cell and code,
  /// each checked against the clean FT output of the count pass.
  void ledger_pass(std::vector<Metric>& m) {
    using fth::obs::Registry;
    const auto before = Registry::global().counter_values();
    double injected = 0, detected = 0, corrected = 0, rollbacks = 0, corrections = 0;
    for (int cell = 0; cell < kGridCells; ++cell) {
      for (std::size_t k = 0; k < wl_.codes.size(); ++k) {
        fth::fault::Injector inj(grid_fault(cell),
                                 mix(seed_, 500 + 8 * static_cast<std::uint64_t>(cell) + k));
        Call c = reduce(k, Variant::Faulted, &inj, false);
        agree(k, count_ft_[k], Variant::Ft, c, Variant::Faulted);
        const double n_inj = static_cast<double>(inj.history().size());
        const auto& r = c.rep;
        injected += n_inj;
        if (r.detections + r.q_corrections + r.final_sweep_corrections > 0) detected += n_inj;
        if (c.ok) corrected += n_inj;
        rollbacks += r.rollbacks;
        corrections += r.data_corrections;
      }
    }
    const auto delta =
        Registry::counter_delta(Registry::global().counter_values(), before);
    const auto reexec = delta.find("ft.reexecutions");
    m.push_back(exact("fault.injected", "count", injected));
    m.push_back(exact("fault.detected_frac", "ratio", injected > 0 ? detected / injected : 0.0));
    m.push_back(exact("fault.corrected_frac", "ratio", injected > 0 ? corrected / injected : 0.0));
    m.push_back(exact("ft.rollbacks", "count", rollbacks));
    m.push_back(exact("ft.reexecutions", "count",
                      reexec == delta.end() ? 0.0 : static_cast<double>(reexec->second)));
    m.push_back(exact("ft.data_corrections", "count", corrections));
  }

  /// Backward error and orthogonality of the last FT and faulted-FT outputs.
  void residual_check() {
    double worst_b = 0.0, worst_o = 0.0;
    for (std::size_t k = 0; k < wl_.codes.size(); ++k) {
      for (const Output* o : {&out_[k].ft, &out_[k].fx}) {
        const Residuals r = residuals(in_[k], *o);
        worst_b = std::max(worst_b, r.backward);
        worst_o = std::max(worst_o, r.orthogonality);
        if (const std::string why = check_residuals(r); !why.empty()) {
          res_.residuals_ok = false;
          note_failure(std::string(to_string(wl_.codes[k])) + " residual: " + why);
        }
      }
    }
    res_.info.emplace_back("residual_backward_max", worst_b);
    res_.info.emplace_back("residual_orthogonality_max", worst_o);
    res_.info.emplace_back("agreement_gap_max", max_gap_);
  }

 private:
  struct Outs {
    Output hy, ft, fx;
  };

  Output& output(std::size_t k, Variant v) {
    return v == Variant::Hybrid ? out_[k].hy : v == Variant::Ft ? out_[k].ft : out_[k].fx;
  }

  /// Run one reduction of code k on a fresh copy of its input and check it.
  Call reduce(std::size_t k, Variant v, fth::fault::Injector* inj, bool profile) {
    Output& o = output(k, v);
    prepare(in_[k], o);
    Call c;
    std::string why;
    const long attempt = res_.attempted++;
    if (profile) fth::obs::profile_start();
    const auto t0 = Clock::now();
    try {
      if (v == Variant::Hybrid) {
        run_hybrid(*dev_, wl_.codes[k], o, &c.st);
      } else {
        run_ft(*dev_, wl_.codes[k], o, inj, &c.rep, &c.st);
      }
    } catch (const std::exception& e) {
      why = std::string("threw: ") + e.what();
    }
    c.wall = seconds_since(t0);
    if (profile) c.prof = fth::obs::profile_stop();
    if (attempt == corrupt_) o.a(wl_.n / 2, wl_.n / 2) += 1e-6 * in_[k].fro;
    if (why.empty()) why = check_output(in_[k], o);
    if (!why.empty()) mark_failed(c, k, v, why);
    return c;
  }

  /// Check the output of call `c` (variant v) against the output of
  /// `ref_call` (variant ref_v) on the same matrix; skipped when either
  /// side already failed.
  void agree(std::size_t k, const Call& ref_call, Variant ref_v, Call& c, Variant v) {
    if (!ref_call.ok || !c.ok) return;
    const double gap = agreement_gap(in_[k], output(k, ref_v), output(k, v));
    if (const std::string why = check_agreement(gap); !why.empty()) {
      mark_failed(c, k, v, why);
    } else {
      max_gap_ = std::max(max_gap_, gap);
    }
  }

  void mark_failed(Call& c, std::size_t k, Variant v, const std::string& why) {
    if (!c.ok) return;
    c.ok = false;
    ++res_.failed;
    note_failure(std::string(to_string(wl_.codes[k])) + " " + to_string(v) + ": " + why);
  }

  void note_failure(std::string msg) {
    if (res_.failures.size() < 8) res_.failures.push_back(std::move(msg));
  }

  const WorkloadSpec& wl_;
  std::uint64_t seed_;
  long corrupt_;
  RunResult& res_;
  std::unique_ptr<hy::Device> dev_;
  std::vector<Input> in_;
  std::vector<Outs> out_;
  std::vector<Call> count_ft_;  ///< the count pass's clean FT calls, per code
  double max_gap_ = 0.0;        ///< largest agreement gap that passed
};

/// Set-ups per end-to-end run (setup_s is their median): at least
/// kMinSetups, more while they take under kSetupBudget seconds in total.
constexpr int kMinSetups = 3, kMaxSetups = 25;
constexpr double kSetupBudget = 2.0;

}  // namespace

const WorkloadSpec* find_workload(const std::string& name) {
  static const std::vector<WorkloadSpec> kWorkloads = {
      {"paper-n1022", 1022, {Code::Gehrd}},
      {"small-n128", 128, {Code::Gehrd}},
      {"family-n384", 384, {Code::Sytrd, Code::Gebrd}},
  };
  for (const WorkloadSpec& w : kWorkloads)
    if (w.name == name) return &w;
  return nullptr;
}

RunResult run_workload(const RunOptions& opt) {
  const WorkloadSpec& wl = *opt.workload;
  RunResult res;
  Driver drv(opt, res);

  std::vector<double> setups{drv.setup()};
  double setup_total = setups.back();
  while (!opt.trace && static_cast<int>(setups.size()) < kMaxSetups &&
         (static_cast<int>(setups.size()) < kMinSetups || setup_total < kSetupBudget)) {
    setups.push_back(drv.setup());
    setup_total += setups.back();
  }

  double flops = 0.0;
  for (const Code c : wl.codes) flops += nominal_flops(c, wl.n);

  std::vector<Metric>& m = res.metrics;
  if (opt.trace) {
    drv.count_pass(m);
    drv.ledger_pass(m);
  }

  // Per-call layer quantities of the traced run: a field summed over one
  // variant's calls per round, from untraced rounds (driver stats) or from
  // profiled rounds (profile windows).
  struct Series {
    const char* name;
    const char* unit;
    std::vector<Call> Round::*calls;
    double (*field)(const Call&);
    std::vector<double> values{};
    void add(const Round& rd) { values.push_back(sum_calls(rd.*calls, field)); }
  };
  std::vector<Series> stats_series = {
      {"hybrid.panel_s", "s", &Round::hy_calls, [](const Call& c) { return c.st.panel_seconds; }},
      {"hybrid.update_s", "s", &Round::hy_calls, [](const Call& c) { return c.st.update_seconds; }},
      {"ft.encode_s", "s", &Round::ft_calls, [](const Call& c) { return c.rep.encode_seconds; }},
      {"ft.checksum_update_s", "s", &Round::ft_calls,
       [](const Call& c) { return c.rep.checksum_update_seconds; }},
      {"ft.detect_s", "s", &Round::ft_calls, [](const Call& c) { return c.rep.detect_seconds; }},
      {"ft.q_s", "s", &Round::ft_calls, [](const Call& c) { return c.rep.q_seconds; }},
  };
  std::vector<Series> profile_series = {
      {"hybrid.device_busy_s", "s", &Round::hy_calls,
       [](const Call& c) { return c.prof.device_busy_s; }},
      {"hybrid.host_wait_s", "s", &Round::hy_calls,
       [](const Call& c) { return c.prof.host_wait_s; }},
      {"ft.host_wait_s", "s", &Round::ft_calls, [](const Call& c) { return c.prof.host_wait_s; }},
  };
  std::vector<double> hy_overlap, ft_overlap, recovery;
  const auto overlap = [](const std::vector<Call>& calls) {
    const double busy = sum_calls(calls, [](const Call& c) { return c.prof.device_busy_s; });
    const double ov = sum_calls(calls, [](const Call& c) { return c.prof.overlapped_s; });
    return busy > 0 ? ov / busy : 0.0;
  };

  // The timed loop. In the traced run every other pair of rounds runs under
  // profile windows (so both orders are traced and untraced alike).
  std::vector<double> hy, ft, fx, slow, rslow, plain_round, traced_round;
  const int min_rounds = opt.trace ? 4 : 2;
  const auto t0 = Clock::now();
  int r = 0;
  for (; r < min_rounds || seconds_since(t0) < opt.seconds; ++r) {
    const bool profiled = opt.trace && (r / 2) % 2 == 1;
    const Round rd = drv.round(r, profiled);
    (profiled ? traced_round : plain_round).push_back(rd.hy + rd.ft + rd.fx);
    if (profiled) {
      for (Series& s : profile_series) s.add(rd);
      hy_overlap.push_back(overlap(rd.hy_calls));
      ft_overlap.push_back(overlap(rd.ft_calls));
      continue;
    }
    hy.push_back(rd.hy);
    ft.push_back(rd.ft);
    fx.push_back(rd.fx);
    slow.push_back(rd.ft / rd.hy);
    rslow.push_back(rd.fx / rd.ft);
    for (Series& s : stats_series) s.add(rd);
    recovery.push_back(sum_calls(rd.fx_calls, [](const Call& c) { return c.rep.recovery_seconds; }));
  }
  res.info.emplace_back("rounds", r);
  res.info.emplace_back("timed_loop_s", seconds_since(t0));

  if (!opt.trace) {
    m.push_back(summarize("setup_s", "s", setups));
    m.push_back(summarize("base_gflops", "GF/s", hy, flops / 1e9, true));
    m.push_back(summarize("ft_gflops", "GF/s", ft, flops / 1e9, true));
    m.push_back(summarize("ft_slowdown", "ratio", slow));
    m.push_back(summarize("recovery_gflops", "GF/s", fx, flops / 1e9, true));
    m.push_back(summarize("recovery_slowdown", "ratio", rslow));
  } else {
    for (const auto* series : {&stats_series, &profile_series})
      for (const Series& s : *series) m.push_back(summarize(s.name, s.unit, s.values));
    m.push_back(summarize("hybrid.overlap_fraction", "ratio", hy_overlap));
    m.push_back(summarize("ft.overlap_fraction", "ratio", ft_overlap));
    // Mean, not median: cells whose fault needs no rollback (a Q-factor
    // strike fixed at the end) take no recovery time at all.
    double recovery_sum = 0.0;
    for (const double x : recovery) recovery_sum += x;
    m.push_back(Metric{"ft.recovery_s", "s", recovery_sum / static_cast<double>(recovery.size()),
                       recovery.size()});
    m.push_back(exact("obs.trace_overhead", "ratio", median(traced_round) / median(plain_round)));
  }
  drv.residual_check();
  return res;
}

}  // namespace perfbench
