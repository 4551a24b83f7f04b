#include "obs/profile.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <tuple>
#include <unordered_map>

#include "common/flops.hpp"
#include "obs/recorder.hpp"

namespace fth::obs {

using detail::ProfileAgg;

// ---------------------------------------------------------------------------
// Aggregation core (declared in obs/recorder.hpp): the recorder folds each
// thread's spans into its buffer's ProfileAgg live; ProfileBuilder replays
// a trace file into one ProfileAgg per tid.

void ProfileAgg::note_ts(double ts) {
  if (!any) {
    first_ts = last_ts = ts;
    any = true;
  } else {
    first_ts = std::min(first_ts, ts);
    last_ts = std::max(last_ts, ts);
  }
}

void ProfileAgg::begin(const char* cat, const char* name, double ts, double arg,
                       std::uint64_t fl) {
  note_ts(ts);
  if (!stack.empty()) {
    detail::Frame& p = stack.back();
    p.self_us += ts - p.mark_ts;
    p.self_flops += fl - p.mark_flops;
  }
  detail::Frame f;
  f.key = detail::PhaseKey{cat, name};
  f.t0 = f.mark_ts = ts;
  f.mark_flops = fl;
  f.arg = arg;
  const bool stream_cat = std::strcmp(cat, "stream") == 0;
  // Prefix match: waits carry per-site names ("synchronize@file:line")
  // when any sink is live, so fth_prof can show which of the hundreds of
  // synchronize sites dominates instead of one aggregate row.
  f.is_wait = stream_cat && (std::strncmp(name, "synchronize", 11) == 0 ||
                             std::strncmp(name, "event_wait", 10) == 0);
  // Any other stream-category span is a worker task (they carry per-task
  // labels — "dev.gemm", "h2d", "ft.detect", plain "task", ...).
  f.is_task = stream_cat && !f.is_wait;
  const bool hybrid_cat = std::strcmp(cat, "hybrid") == 0;
  f.is_panel = hybrid_cat && std::strcmp(name, "panel") == 0;
  f.is_update = hybrid_cat && std::strcmp(name, "update") == 0;
  if (f.is_task) is_device = true;
  stack.push_back(f);
}

void ProfileAgg::end(double ts, std::uint64_t fl) {
  if (stack.empty()) return;  // the span began before the window opened
  note_ts(ts);
  detail::Frame f = stack.back();
  stack.pop_back();
  f.self_us += ts - f.mark_ts;
  f.self_flops += fl - f.mark_flops;
  detail::PhaseAccum& a = phases[f.key];
  ++a.calls;
  a.wall_us += ts - f.t0;
  a.self_us += f.self_us;
  a.flops += f.self_flops;
  a.arg_sum += f.arg;
  if (!stack.empty()) {
    stack.back().mark_ts = ts;
    stack.back().mark_flops = fl;
  }
  if (f.is_task) {
    device_busy.push_back(Interval{f.t0, ts});
  } else if (f.is_wait) {
    host_wait.push_back(Interval{f.t0, ts});
  } else if (f.is_panel) {
    pending_panel_t0 = f.t0;
  } else if (f.is_update && pending_panel_t0 >= 0.0) {
    const double d = ts - pending_panel_t0;
    ++iters;
    iter_sum_us += d;
    iter_max_us = std::max(iter_max_us, d);
    pending_panel_t0 = -1.0;
  }
}

void ProfileAgg::close_open(double ts) {
  while (!stack.empty()) end(ts, stack.back().mark_flops);
}

namespace {

ProfileReport build_report(const std::vector<ProfileAgg>& aggs, double roofline,
                           double wall_hint_s, std::uint64_t total_flops) {
  ProfileReport rep;
  rep.roofline_gflops = roofline;
  rep.total_flops = total_flops;

  std::map<std::tuple<std::string, std::string, std::string>, detail::PhaseAccum> merged;
  std::vector<Interval> dev, wait;
  std::vector<double> per_dev_us;            // busy-union per device track
  std::map<int, std::vector<Interval>> ord;  // same, keyed by self-reported ordinal
  bool any = false;
  double first = 0.0, last = 0.0;
  for (const ProfileAgg& a : aggs) {
    const char* track = a.is_device ? "device" : "host";
    if (a.is_device && !a.device_busy.empty()) {
      std::vector<Interval> own = a.device_busy;
      per_dev_us.push_back(merge_union(own));
      if (a.device_ordinal >= 0) {
        auto& iv = ord[a.device_ordinal];
        iv.insert(iv.end(), a.device_busy.begin(), a.device_busy.end());
      }
    }
    for (const auto& [k, acc] : a.phases) {
      detail::PhaseAccum& m = merged[{track, k.cat, k.name}];
      m.calls += acc.calls;
      m.wall_us += acc.wall_us;
      m.self_us += acc.self_us;
      m.flops += acc.flops;
      m.arg_sum += acc.arg_sum;
    }
    dev.insert(dev.end(), a.device_busy.begin(), a.device_busy.end());
    wait.insert(wait.end(), a.host_wait.begin(), a.host_wait.end());
    rep.iterations += a.iters;
    rep.iter_max_s = std::max(rep.iter_max_s, a.iter_max_us / 1e6);
    rep.iter_avg_s += a.iter_sum_us;  // sum for now; divided below
    if (a.any) {
      if (!any) {
        first = a.first_ts;
        last = a.last_ts;
        any = true;
      } else {
        first = std::min(first, a.first_ts);
        last = std::max(last, a.last_ts);
      }
    }
  }
  rep.wall_s = wall_hint_s > 0.0 ? wall_hint_s : (any ? (last - first) / 1e6 : 0.0);

  rep.device_busy_s = merge_union(dev) / 1e6;
  rep.host_wait_s = merge_union(wait) / 1e6;
  const double both_s = intersect_len(dev, wait) / 1e6;
  rep.overlapped_s = rep.device_busy_s - both_s;
  rep.overlap_fraction = rep.device_busy_s > 0.0 ? rep.overlapped_s / rep.device_busy_s : 0.0;
  rep.stream_occupancy = rep.wall_s > 0.0 ? rep.device_busy_s / rep.wall_s : 0.0;
  // Pool runs have several device workers; attribute occupancy per track so
  // a member idling behind a skewed shard map (or dead after a loss) is
  // visible. Sorted descending: track registration order is not stable
  // across live/replay aggregation, and the multiset is the metric.
  std::sort(per_dev_us.begin(), per_dev_us.end(), std::greater<double>());
  for (const double us : per_dev_us)
    rep.per_device_occupancy.push_back(rep.wall_s > 0.0 ? us / 1e6 / rep.wall_s : 0.0);
  // Ordinal-keyed attribution (live mode: workers self-report their pool
  // ordinal). std::map iteration gives ascending ordinals for free.
  for (auto& [o, iv] : ord) {
    const double us = merge_union(iv);
    rep.per_device_by_ordinal.emplace_back(o, rep.wall_s > 0.0 ? us / 1e6 / rep.wall_s : 0.0);
  }

  rep.iter_avg_s = rep.iterations > 0 ? rep.iter_avg_s / 1e6 / static_cast<double>(rep.iterations)
                                      : 0.0;
  const auto avg_of = [&merged](const char* cat, const char* name) {
    const auto it = merged.find({"host", cat, name});
    if (it == merged.end() || it->second.calls == 0) return 0.0;
    return it->second.wall_us / 1e6 / static_cast<double>(it->second.calls);
  };
  rep.iter_avg_panel_s = avg_of("hybrid", "panel");
  rep.iter_avg_update_s = avg_of("hybrid", "update");

  for (const auto& [key, acc] : merged) {
    ProfilePhase p;
    p.track = std::get<0>(key);
    p.cat = std::get<1>(key);
    p.name = std::get<2>(key);
    p.calls = acc.calls;
    p.wall_s = acc.wall_us / 1e6;
    p.self_s = acc.self_us / 1e6;
    p.flops = acc.flops;
    p.arg_sum = acc.arg_sum;
    p.gflops = p.self_s > 0.0 ? static_cast<double>(p.flops) / p.self_s / 1e9 : 0.0;
    p.roofline_frac = roofline > 0.0 ? p.gflops / roofline : 0.0;
    rep.phases.push_back(std::move(p));
  }
  return rep;
}

// Live window bookkeeping; the per-thread aggregates live in the
// recorder's thread buffers.
struct Window {
  std::mutex m;
  double start_ts = 0.0;
  std::uint64_t flops0 = 0;
  bool prev_flops_enabled = false;
  bool running = false;
};

Window& window() {
  static Window w;
  return w;
}

std::atomic<double> g_roofline{0.0};

}  // namespace

bool profile_enabled() noexcept { return detail::sink_on(detail::kProfile); }

void profile_start() {
  Window& w = window();
  std::lock_guard lock(w.m);
  detail::set_sink(detail::kProfile, false);
  detail::for_each_buffer([](detail::ThreadBuffer& b) { b.profile = ProfileAgg{}; });
  if (const char* env = std::getenv("FTH_ROOFLINE_GFLOPS"); env != nullptr && env[0] != '\0') {
    const double v = std::strtod(env, nullptr);
    if (v > 0.0) g_roofline.store(v, std::memory_order_relaxed);
  }
  w.prev_flops_enabled = flops::enabled();
  flops::enable(true);
  w.flops0 = flops::count();
  w.start_ts = detail::now_us();
  w.running = true;
  detail::set_sink(detail::kProfile, true);
}

ProfileReport profile_stop() {
  Window& w = window();
  std::lock_guard lock(w.m);
  if (!w.running) return ProfileReport{};
  detail::set_sink(detail::kProfile, false);
  w.running = false;
  const double stop_ts = detail::now_us();
  const std::uint64_t total = flops::count() - w.flops0;
  flops::enable(w.prev_flops_enabled);
  std::vector<ProfileAgg> aggs;
  detail::for_each_buffer([&](detail::ThreadBuffer& b) {
    b.profile.close_open(stop_ts);
    b.profile.device_ordinal = b.device_ordinal;
    aggs.push_back(std::move(b.profile));
    b.profile = ProfileAgg{};
  });
  return build_report(aggs, g_roofline.load(std::memory_order_relaxed),
                      (stop_ts - w.start_ts) / 1e6, total);
}

void set_profile_roofline(double gflops) noexcept {
  g_roofline.store(gflops, std::memory_order_relaxed);
}

double profile_roofline() noexcept { return g_roofline.load(std::memory_order_relaxed); }

// --- ProfileBuilder (offline replay) ----------------------------------------

struct ProfileBuilder::Impl {
  std::map<std::uint64_t, ProfileAgg> threads;
};

ProfileBuilder::ProfileBuilder() : impl_(std::make_unique<Impl>()) {}
ProfileBuilder::~ProfileBuilder() = default;

void ProfileBuilder::begin(std::uint64_t tid, const char* cat, const char* name, double ts_us,
                           double arg_value, std::uint64_t flops_now) {
  impl_->threads[tid].begin(cat, name, ts_us, arg_value, flops_now);
}

void ProfileBuilder::end(std::uint64_t tid, double ts_us, std::uint64_t flops_now) {
  impl_->threads[tid].end(ts_us, flops_now);
}

ProfileReport ProfileBuilder::finish(double roofline_gflops, double wall_hint_s) {
  std::vector<ProfileAgg> aggs;
  std::uint64_t total = 0;
  for (auto& [tid, agg] : impl_->threads) {
    agg.close_open(agg.last_ts);  // a truncated trace may end mid-span
    for (const auto& [k, acc] : agg.phases) total += acc.flops;
    aggs.push_back(std::move(agg));
  }
  return build_report(aggs, roofline_gflops, wall_hint_s, total);
}

// --- Report rendering --------------------------------------------------------

std::string ProfileReport::to_json() const {
  std::string out;
  out.reserve(512 + phases.size() * 160);
  out += "{\"wall_s\":";
  append_num(out, wall_s);
  out += ",\"roofline_gflops\":";
  append_num(out, roofline_gflops);
  out += ",\"total_flops\":" + std::to_string(total_flops);
  out += ",\"overlap\":{\"device_busy_s\":";
  append_num(out, device_busy_s);
  out += ",\"host_wait_s\":";
  append_num(out, host_wait_s);
  out += ",\"overlapped_s\":";
  append_num(out, overlapped_s);
  out += ",\"overlap_fraction\":";
  append_num(out, overlap_fraction);
  // Per-device array (one entry per device track); a window with no device
  // work emits the aggregate as a single entry so the path always exists.
  // Legacy baselines hold the pre-pool scalar spelling; bench_compare maps
  // scalar <-> entry 0 so a D=1 report gates cleanly against either.
  out += ",\"stream_occupancy\":[";
  if (per_device_occupancy.empty()) {
    append_num(out, stream_occupancy);
  } else {
    bool first_occ = true;
    for (const double occ : per_device_occupancy) {
      if (!first_occ) out += ',';
      first_occ = false;
      append_num(out, occ);
    }
  }
  out += "]";
  // Ordinal-keyed spelling (live runs only). A new key, so baselines that
  // predate it gate untouched; omitted entirely when no worker reported an
  // ordinal (replay, host-only windows).
  if (!per_device_by_ordinal.empty()) {
    out += ",\"stream_occupancy_by_device\":{";
    bool first_ord = true;
    for (const auto& [o, occ] : per_device_by_ordinal) {
      if (!first_ord) out += ',';
      first_ord = false;
      out += "\"" + std::to_string(o) + "\":";
      append_num(out, occ);
    }
    out += "}";
  }
  out += "},\"iterations\":{\"count\":" + std::to_string(iterations);
  out += ",\"avg_panel_s\":";
  append_num(out, iter_avg_panel_s);
  out += ",\"avg_update_s\":";
  append_num(out, iter_avg_update_s);
  out += ",\"avg_s\":";
  append_num(out, iter_avg_s);
  out += ",\"max_s\":";
  append_num(out, iter_max_s);
  out += "},\"phases\":[";
  bool first = true;
  for (const ProfilePhase& p : phases) {
    if (!first) out += ',';
    first = false;
    out += "{\"track\":\"";
    append_escaped(out, p.track);
    out += "\",\"cat\":\"";
    append_escaped(out, p.cat);
    out += "\",\"name\":\"";
    append_escaped(out, p.name);
    out += "\",\"calls\":" + std::to_string(p.calls);
    out += ",\"wall_s\":";
    append_num(out, p.wall_s);
    out += ",\"self_s\":";
    append_num(out, p.self_s);
    out += ",\"flops\":" + std::to_string(p.flops);
    out += ",\"gflops\":";
    append_num(out, p.gflops);
    // Omitted (not 0) when no roofline was configured: a meaningless zero
    // would read as a catastrophic regression to bench_compare.
    if (roofline_gflops > 0.0) {
      out += ",\"roofline_frac\":";
      append_num(out, p.roofline_frac);
    }
    out += ",\"arg_sum\":";
    append_num(out, p.arg_sum);
    out += "}";
  }
  out += "]}";
  return out;
}

void ProfileReport::print_table(std::FILE* out) const {
  std::fprintf(out, "\n-- profile: wall %.4f s", wall_s);
  if (roofline_gflops > 0.0) std::fprintf(out, ", roofline %.2f GF/s", roofline_gflops);
  if (total_flops > 0) std::fprintf(out, ", %.3g GFLOP total", static_cast<double>(total_flops) / 1e9);
  std::fprintf(out, " --\n");
  std::fprintf(out,
               "overlap: device busy %.4f s (occupancy %.1f%%), host wait %.4f s, "
               "overlapped %.4f s (%.1f%% of device busy)\n",
               device_busy_s, 100.0 * stream_occupancy, host_wait_s, overlapped_s,
               100.0 * overlap_fraction);
  if (per_device_by_ordinal.size() > 1) {
    std::fprintf(out, "per-device occupancy:");
    for (const auto& [o, occ] : per_device_by_ordinal)
      std::fprintf(out, " dev%d %.1f%%", o, 100.0 * occ);
    std::fprintf(out, "\n");
  } else if (per_device_occupancy.size() > 1) {
    std::fprintf(out, "per-device occupancy:");
    for (const double occ : per_device_occupancy) std::fprintf(out, " %.1f%%", 100.0 * occ);
    std::fprintf(out, "\n");
  }
  if (iterations > 0) {
    std::fprintf(out,
                 "iterations: %llu, avg panel %.3f ms, avg update %.3f ms, "
                 "critical path avg %.3f ms / max %.3f ms\n",
                 static_cast<unsigned long long>(iterations), 1e3 * iter_avg_panel_s,
                 1e3 * iter_avg_update_s, 1e3 * iter_avg_s, 1e3 * iter_max_s);
  }
  std::vector<const ProfilePhase*> by_self;
  by_self.reserve(phases.size());
  for (const ProfilePhase& p : phases) by_self.push_back(&p);
  std::sort(by_self.begin(), by_self.end(), [](const ProfilePhase* a, const ProfilePhase* b) {
    return a->self_s > b->self_s;
  });
  std::fprintf(out, "%-7s %-9s %-18s %8s %11s %11s %9s %7s\n", "track", "cat", "name", "calls",
               "wall (s)", "self (s)", "GF/s", "%roof");
  for (const ProfilePhase* p : by_self) {
    char roof[16] = "-";
    if (roofline_gflops > 0.0 && p->flops > 0)
      std::snprintf(roof, sizeof roof, "%.1f", 100.0 * p->roofline_frac);
    char gf[16] = "-";
    if (p->flops > 0) std::snprintf(gf, sizeof gf, "%.2f", p->gflops);
    std::fprintf(out, "%-7s %-9s %-18s %8llu %11.4f %11.4f %9s %7s\n", p->track.c_str(),
                 p->cat.c_str(), p->name.c_str(), static_cast<unsigned long long>(p->calls),
                 p->wall_s, p->self_s, gf, roof);
  }
}

}  // namespace fth::obs
