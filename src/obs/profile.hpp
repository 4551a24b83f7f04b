// fth::obs profiling — in-process performance attribution, one sink of the
// event recorder (obs/trace.hpp).
//
// While a profile window is open, every span the recorder sees (the same
// records that feed the Chrome trace) is folded live into a bounded
// per-thread aggregate instead of (or in addition to) being buffered:
// per (cat, name, track) wall/self time and call counts, FLOPs attributed
// to the phase that executed them, host-panel vs device-stream overlap,
// stream occupancy, and the per-iteration critical path. The result is a
// ProfileReport — embedded as the `profile` section of every bench_*.json
// and printable as a table via the benches' `--profile` flag. DESIGN.md §8
// defines the overlap and critical-path quantities precisely; EXPERIMENTS.md
// documents the emitted JSON schema.
//
// The same aggregation core is exposed as ProfileBuilder so tools/fth_prof
// can replay an already-written trace file into an identical report.
#pragma once

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace fth::obs {

/// One aggregated span kind. `track` is "host" or "device" — a thread is a
/// device track iff it executed stream tasks (the software-device worker).
struct ProfilePhase {
  std::string cat;
  std::string name;
  std::string track;
  std::uint64_t calls = 0;
  double wall_s = 0.0;  ///< inclusive time (sum over calls)
  double self_s = 0.0;  ///< wall minus time spent in nested spans
  std::uint64_t flops = 0;  ///< FLOPs executed while this span was innermost
  double arg_sum = 0.0;     ///< sum of the spans' numeric argument (bytes for h2d/d2h)
  double gflops = 0.0;        ///< flops / self_s / 1e9
  double roofline_frac = 0.0; ///< gflops / roofline (0 when no roofline given)
};

/// Aggregated result of one profile window (or one replayed trace).
struct ProfileReport {
  double wall_s = 0.0;            ///< window length
  double roofline_gflops = 0.0;   ///< dgemm roofline used as denominator (0 = unset)
  std::uint64_t total_flops = 0;  ///< all FLOPs in the window (live mode only)

  // Host/device overlap (DESIGN.md §8): device_busy is the union of stream
  // task spans on device tracks; host_wait the union of synchronize +
  // event_wait spans on host tracks; overlapped the part of device_busy
  // during which the host was NOT waiting.
  double device_busy_s = 0.0;
  double host_wait_s = 0.0;
  double overlapped_s = 0.0;
  double overlap_fraction = 0.0;   ///< overlapped / device_busy (0 when no device work)
  double stream_occupancy = 0.0;   ///< device_busy / wall (all device tracks unioned)
  /// Per-device-track occupancy (busy-union / wall, one entry per device
  /// worker thread, sorted descending — a pool run gets one entry per
  /// member). JSON emits these as the `stream_occupancy` array; a legacy
  /// scalar in an old baseline is the D=1 form of the same metric and
  /// bench_compare matches the two spellings against each other.
  std::vector<double> per_device_occupancy;
  /// Ordinal-keyed attribution of the same quantity: (pool ordinal,
  /// busy-union / wall), sorted by ordinal. Live mode only — worker threads
  /// self-report their ordinal (obs::detail::set_device_ordinal); a
  /// replayed trace has no ordinal channel, so the replay report leaves
  /// this empty. JSON emits it as the `stream_occupancy_by_device` object
  /// (a new key — the legacy `stream_occupancy` array and its scalar/
  /// entry-0 baseline carve-out are untouched).
  std::vector<std::pair<int, double>> per_device_by_ordinal;

  // Per-iteration critical path: panel begin → matching update end on the
  // host track (one pair per blocked iteration of a driver).
  std::uint64_t iterations = 0;
  double iter_avg_panel_s = 0.0;
  double iter_avg_update_s = 0.0;
  double iter_avg_s = 0.0;  ///< avg(update end − panel begin)
  double iter_max_s = 0.0;

  /// Sorted by (track, cat, name) for deterministic output.
  std::vector<ProfilePhase> phases;

  /// Compact JSON object (the `profile` section schema in EXPERIMENTS.md).
  [[nodiscard]] std::string to_json() const;
  /// Human-readable attribution table (phases sorted by self time).
  void print_table(std::FILE* out) const;
};

/// True between profile_start() and profile_stop().
[[nodiscard]] bool profile_enabled() noexcept;

/// Open a profile window: spans aggregate from this point on. Also enables
/// FLOP counting (fth::flops) for the window so per-phase GF/s can be
/// attributed. Re-opening an active window resets it.
void profile_start();

/// Close the window and return the aggregated report (a default-constructed
/// report when no window is open).
ProfileReport profile_stop();

/// Sticky roofline denominator (measured dgemm GF/s) used for each phase's
/// roofline_frac. Also read from `FTH_ROOFLINE_GFLOPS` at profile_start();
/// run_benches.sh measures it once (tools/fth_roofline) so every bench uses
/// the same denominator.
void set_profile_roofline(double gflops) noexcept;
[[nodiscard]] double profile_roofline() noexcept;

/// Offline aggregation core, for replaying a parsed trace file
/// (tools/fth_prof). Feed events in file order; per-tid nesting must be
/// well-formed (unmatched ends are ignored, unmatched begins dropped).
/// Event name/cat pointers must stay valid until finish() — use
/// obs::intern_name() when feeding parsed strings.
class ProfileBuilder {
 public:
  ProfileBuilder();
  ~ProfileBuilder();
  ProfileBuilder(const ProfileBuilder&) = delete;
  ProfileBuilder& operator=(const ProfileBuilder&) = delete;

  void begin(std::uint64_t tid, const char* cat, const char* name, double ts_us,
             double arg_value = 0.0, std::uint64_t flops_now = 0);
  void end(std::uint64_t tid, double ts_us, std::uint64_t flops_now = 0);
  /// Build the report. `wall_hint_s` overrides the window length (live mode
  /// passes stop−start); ≤0 derives it from the event timestamp range.
  [[nodiscard]] ProfileReport finish(double roofline_gflops, double wall_hint_s = 0.0);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace fth::obs
