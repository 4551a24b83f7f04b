#include "obs/trace.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <memory>
#include <mutex>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/flops.hpp"
#include "obs/dag.hpp"
#include "obs/recorder.hpp"

namespace fth::obs {

namespace detail {
std::atomic<unsigned> g_sinks{0};

void set_sink(unsigned sink, bool on) noexcept {
  if (on) g_sinks.fetch_or(sink, std::memory_order_relaxed);
  else g_sinks.fetch_and(~sink, std::memory_order_relaxed);
}
}  // namespace detail

namespace {

using detail::kDag;
using detail::kFile;
using detail::kFlight;
using detail::kProfile;
using detail::Rec;
using detail::sink_on;
using detail::ThreadBuffer;
using detail::TraceEvent;

void sort_by_time(std::vector<TraceEvent>& v) {
  std::stable_sort(v.begin(), v.end(),
                   [](const TraceEvent& a, const TraceEvent& b) { return a.ts_us < b.ts_us; });
}

/// Appends `b`'s ring contents oldest-first: [next, end) then [0, next)
/// once wrapped.
void append_ring(std::vector<TraceEvent>& all, const ThreadBuffer& b) {
  if (b.ring_wrapped)
    all.insert(all.end(), b.ring.begin() + static_cast<std::ptrdiff_t>(b.ring_next),
               b.ring.end());
  all.insert(all.end(), b.ring.begin(), b.ring.begin() + static_cast<std::ptrdiff_t>(b.ring_next));
}

/// Owns the per-thread buffers. Each thread locks only its own
/// (uncontended) mutex on the enabled path; the sinks' start/stop code
/// locks all of them.
class Recorder {
 public:
  static Recorder& instance() {
    static Recorder r;
    return r;
  }

  void start(const std::string& path) {
    std::lock_guard lock(registry_m_);
    path_ = path;
    for (auto& b : buffers_) {
      std::lock_guard bl(b->m);
      b->events.clear();
    }
    register_atexit();
    detail::set_sink(kFile, true);
  }

  std::size_t stop() {
    if (!sink_on(kFile)) return 0;
    detail::set_sink(kFile, false);
    std::lock_guard lock(registry_m_);
    std::vector<TraceEvent> all;
    for (auto& b : buffers_) {
      std::lock_guard bl(b->m);
      all.insert(all.end(), b->events.begin(), b->events.end());
      b->events.clear();
    }
    sort_by_time(all);
    write_file(path_, all);
    return all.size();
  }

  void flight_start(std::size_t capacity) {
    capacity = std::max<std::size_t>(capacity, 16);
    std::lock_guard lock(registry_m_);
    flight_capacity_.store(capacity, std::memory_order_relaxed);
    for (auto& b : buffers_) {
      std::lock_guard bl(b->m);
      reset_ring(*b, capacity);
    }
    install_signal_handlers();
    detail::set_sink(kFlight, true);
  }

  void flight_stop() {
    detail::set_sink(kFlight, false);
    std::lock_guard lock(registry_m_);
    for (auto& b : buffers_) {
      std::lock_guard bl(b->m);
      b->ring.clear();
      b->ring.shrink_to_fit();
      b->ring_next = 0;
      b->ring_wrapped = false;
    }
  }

  /// Best-effort when called from a signal handler: try-lock everything and
  /// skip what cannot be acquired rather than deadlock on a lock the
  /// interrupted thread holds.
  std::string flight_dump(const char* reason, bool best_effort) noexcept {
    if (!sink_on(kFlight)) return "";
    std::unique_lock<std::mutex> lock(registry_m_, std::defer_lock);
    if (best_effort) {
      if (!lock.try_lock()) return "";
    } else {
      lock.lock();
    }
    std::vector<TraceEvent> all;
    for (auto& b : buffers_) {
      std::unique_lock<std::mutex> bl(b->m, std::defer_lock);
      if (best_effort) {
        if (!bl.try_lock()) continue;
      } else {
        bl.lock();
      }
      append_ring(all, *b);
    }
    sort_by_time(all);
    // Stamp why the dump happened as a final instant on the dumping track.
    all.push_back(TraceEvent{.ts_us = now_us(), .cat = "flight", .name = reason, .ph = 'i'});
    std::string path;
    if (const char* env = std::getenv("FTH_FLIGHT_PATH"); env != nullptr && env[0] != '\0') {
      path = env;
    } else {
      path = "fth_flight_" + std::to_string(static_cast<long>(::getpid())) + ".json";
    }
    if (!write_file(path, all)) return "";
    return path;
  }

  /// Ring contents as an embeddable JSON array (capsule form). Unlike
  /// flight_dump() this never touches the filesystem and keeps only the
  /// newest `max_events` after the cross-thread merge.
  [[nodiscard]] std::string flight_tail_json(std::size_t max_events) {
    if (!sink_on(kFlight)) return "[]";
    std::vector<TraceEvent> all;
    for_each([&](ThreadBuffer& b) { append_ring(all, b); });
    sort_by_time(all);
    if (all.size() > max_events)
      all.erase(all.begin(), all.end() - static_cast<std::ptrdiff_t>(max_events));
    std::string out = "[";
    char num[64];
    for (std::size_t i = 0; i < all.size(); ++i) {
      const TraceEvent& ev = all[i];
      if (i > 0) out += ',';
      std::snprintf(num, sizeof num, "%.3f", ev.ts_us);
      out += "{\"ts_us\":";
      out += num;
      out += ",\"ph\":\"";
      out.push_back(ev.ph);
      out += "\",\"tid\":" + std::to_string(ev.tid);
      if (ev.ph != 'E') {
        out += ",\"cat\":\"";
        append_escaped(out, ev.cat);
        out += "\",\"name\":\"";
        append_escaped(out, ev.name);
        out += "\"";
      }
      if (ev.ph == 'C' || (ev.ph == 'B' && ev.arg_key[0] != '\0')) {
        out += ",\"value\":";
        append_num(out, ev.value, 17);
      }
      out += "}";
    }
    out += "]";
    return out;
  }

  void record(TraceEvent ev) noexcept {
    const unsigned sinks = detail::g_sinks.load(std::memory_order_relaxed);
    if (sinks == 0) return;
    ThreadBuffer& b = local_buffer();
    ev.ts_us = now_us();
    ev.tid = b.tid;
    const bool span = ev.ph == 'B' || ev.ph == 'E';
    std::lock_guard lock(b.m);
    if ((sinks & kProfile) != 0 && span) {
      const std::uint64_t fl = flops::thread_count();
      if (ev.ph == 'B') b.profile.begin(ev.cat, ev.name, ev.ts_us, ev.value, fl);
      else b.profile.end(ev.ts_us, fl);
    }
    if ((sinks & kDag) != 0 && (span || ev.kind == Rec::Enqueue || ev.kind == Rec::Mark))
      b.dag.push_back(ev);
    if (ev.kind == Rec::Mark) return;  // DAG-only annotation
    if ((sinks & kFile) != 0) b.events.push_back(ev);
    if ((sinks & kFlight) != 0) {
      const std::size_t cap = flight_capacity_.load(std::memory_order_relaxed);
      if (b.ring.size() != cap) reset_ring(b, cap);  // thread registered before flight_start
      b.ring[b.ring_next] = ev;
      if (++b.ring_next == b.ring.size()) {
        b.ring_next = 0;
        b.ring_wrapped = true;
      }
    }
  }

  /// Pre-stamped append to the trace-file buffer of the calling thread —
  /// the DAG uses it to inject flow events at assembly time, after the
  /// fact, on the tracks the flows refer to.
  void record_raw(const TraceEvent& ev) noexcept {
    if (!sink_on(kFile)) return;
    ThreadBuffer& b = local_buffer();
    std::lock_guard lock(b.m);
    b.events.push_back(ev);
  }

  void for_each(const std::function<void(ThreadBuffer&)>& fn) {
    std::lock_guard lock(registry_m_);
    for (auto& b : buffers_) {
      std::lock_guard bl(b->m);
      fn(*b);
    }
  }

  ThreadBuffer& local_buffer() {
    thread_local std::shared_ptr<ThreadBuffer> buf = [this] {
      auto b = std::make_shared<ThreadBuffer>();
      std::lock_guard lock(registry_m_);
      b->tid = next_tid_++;
      buffers_.push_back(b);
      return b;
    }();
    return *buf;
  }

  [[nodiscard]] double now_us() const noexcept {
    return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - t0_)
        .count();
  }

 private:
  Recorder() : t0_(std::chrono::steady_clock::now()) {}

  static void reset_ring(ThreadBuffer& b, std::size_t capacity) {
    b.ring.assign(capacity, TraceEvent{});
    b.ring_next = 0;
    b.ring_wrapped = false;
  }

  void register_atexit() {
    if (atexit_registered_) return;
    atexit_registered_ = true;
    std::atexit([] { trace_stop(); });
  }

  void install_signal_handlers() {
    if (signals_installed_) return;
    signals_installed_ = true;
    for (const int sig : {SIGSEGV, SIGBUS, SIGILL, SIGFPE, SIGABRT}) {
      std::signal(sig, [](int s) {
        // One dump attempt, then the default disposition so the crash is
        // still a crash (core dump, non-zero exit). Not strictly
        // async-signal-safe — a post-mortem best effort, nothing more.
        static std::atomic<bool> dumping{false};
        if (!dumping.exchange(true))
          Recorder::instance().flight_dump("fatal-signal", /*best_effort=*/true);
        std::signal(s, SIG_DFL);
        std::raise(s);
      });
    }
  }

  bool write_file(const std::string& path, const std::vector<TraceEvent>& events) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "fth::obs: cannot open trace output '%s'\n", path.c_str());
      return false;
    }
    const long pid = 1;  // single-process library; a stable dummy keeps tools happy
    std::string line;
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    bool first = true;
    auto emit = [&](const std::string& s) {
      std::fprintf(f, "%s%s", first ? "" : ",\n", s.c_str());
      first = false;
    };
    // Track-name metadata first (tools accept it anywhere; first is tidy).
    for (const auto& b : buffers_) {
      if (b->thread_name.empty()) continue;
      line.clear();
      line += "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":" + std::to_string(pid) +
              ",\"tid\":" + std::to_string(b->tid) + ",\"args\":{\"name\":\"";
      append_escaped(line, b->thread_name);
      line += "\"}}";
      emit(line);
    }
    char num[64];
    for (const auto& ev : events) {
      line.clear();
      line += "{\"ph\":\"";
      line.push_back(ev.ph);
      line += "\",\"pid\":" + std::to_string(pid) + ",\"tid\":" + std::to_string(ev.tid);
      std::snprintf(num, sizeof num, "%.3f", ev.ts_us);
      line += ",\"ts\":";
      line += num;
      if (ev.ph != 'E') {
        line += ",\"cat\":\"";
        append_escaped(line, ev.cat);
        line += "\",\"name\":\"";
        append_escaped(line, ev.name);
        line += "\"";
      }
      if (ev.ph == 'i') line += ",\"s\":\"t\"";
      if (ev.ph == 's' || ev.ph == 'f') {
        // Flow events (the DAG's cause edges): shared "id" binds the pair;
        // "bp":"e" makes the arrow terminate at the enclosing slice's end,
        // which is where the wait actually released.
        line += ",\"id\":" + std::to_string(static_cast<long long>(ev.value));
        if (ev.ph == 'f') line += ",\"bp\":\"e\"";
      }
      if (ev.ph == 'C') {
        line += ",\"args\":{\"value\":";
        append_num(line, ev.value, 17);
        line += "}";
      } else if (ev.ph == 'B' && ev.arg_key[0] != '\0') {
        line += ",\"args\":{\"";
        append_escaped(line, ev.arg_key);
        line += "\":";
        append_num(line, ev.value, 17);
        line += "}";
      }
      line += "}";
      emit(line);
    }
    std::fprintf(f, "\n]}\n");
    std::fclose(f);
    return true;
  }

  std::atomic<std::size_t> flight_capacity_{0};
  std::mutex registry_m_;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers_;
  std::string path_;
  std::uint32_t next_tid_ = 0;
  bool atexit_registered_ = false;
  bool signals_installed_ = false;
  std::chrono::steady_clock::time_point t0_;
};

// Honour FTH_TRACE / FTH_FLIGHT for any binary linking the library,
// independent of which entry point it uses. Idempotent; benches call
// trace_init_from_env() again.
[[maybe_unused]] const bool g_env_init = [] {
  trace_init_from_env();
  return true;
}();

}  // namespace

void trace_start(const std::string& path) { Recorder::instance().start(path); }

std::size_t trace_stop() { return Recorder::instance().stop(); }

void trace_init_from_env() {
  const char* path = std::getenv("FTH_TRACE");
  if (path != nullptr && path[0] != '\0' && !sink_on(kFile))
    trace_start(path);
  const char* flight = std::getenv("FTH_FLIGHT");
  if (flight != nullptr && flight[0] != '\0' && !flight_active()) {
    const long n = std::strtol(flight, nullptr, 10);
    if (n > 0) flight_start(static_cast<std::size_t>(n));
  }
  dag::init_from_env();  // FTH_DAG rides the same env hook
}

void set_thread_name(const char* name) {
  ThreadBuffer& b = Recorder::instance().local_buffer();
  std::lock_guard lock(b.m);
  b.thread_name = name;
}

const char* intern_name(std::string_view name) {
  static std::mutex m;
  // Leaked on purpose: interned names must outlive every static destructor
  // and atexit flush that might still reference them.
  static auto* storage = new std::deque<std::string>();
  static auto* index = new std::unordered_map<std::string_view, const char*>();
  std::lock_guard lock(m);
  if (const auto it = index->find(name); it != index->end()) return it->second;
  storage->emplace_back(name);
  const std::string& stored = storage->back();
  index->emplace(std::string_view(stored), stored.c_str());
  return stored.c_str();
}

const char* site_label(const char* kind, const char* file, unsigned line) {
  struct SiteKey {
    const char* kind;
    const char* file;
    unsigned line;
    bool operator==(const SiteKey&) const = default;
  };
  struct SiteHash {
    std::size_t operator()(const SiteKey& s) const noexcept {
      std::size_t h = std::hash<const void*>()(s.kind);
      h = h * 31 + std::hash<const void*>()(s.file);
      return h * 31 + s.line;
    }
  };
  static std::mutex m;
  // Leaked like intern_name's tables, and for the same reason: sites are
  // referenced from buffered events until the atexit flush.
  static auto* cache = new std::unordered_map<SiteKey, const char*, SiteHash>();
  std::lock_guard lock(m);
  const SiteKey key{kind, file, line};
  if (const auto it = cache->find(key); it != cache->end()) return it->second;
  std::string_view base(file);
  if (const auto slash = base.rfind('/'); slash != std::string_view::npos)
    base.remove_prefix(slash + 1);
  std::string label(kind);
  label += '@';
  label += base;
  label += ':';
  label += std::to_string(line);
  const char* interned = intern_name(label);
  cache->emplace(key, interned);
  return interned;
}

void flight_start(std::size_t capacity) { Recorder::instance().flight_start(capacity); }

bool flight_active() noexcept { return sink_on(kFlight); }

std::string flight_dump(const char* reason) noexcept {
  return Recorder::instance().flight_dump(reason, /*best_effort=*/false);
}

void flight_stop() { Recorder::instance().flight_stop(); }

std::string flight_tail_json(std::size_t max_events) {
  return Recorder::instance().flight_tail_json(max_events);
}

namespace detail {

double now_us() noexcept { return Recorder::instance().now_us(); }

void record(TraceEvent ev) noexcept { Recorder::instance().record(ev); }

void for_each_buffer(const std::function<void(ThreadBuffer&)>& fn) {
  Recorder::instance().for_each(fn);
}

void raw_event(char ph, const char* cat, const char* name, double ts_us, std::uint32_t tid,
               double value) noexcept {
  Recorder::instance().record_raw(
      TraceEvent{.ts_us = ts_us, .value = value, .cat = cat, .name = name, .tid = tid, .ph = ph});
}

void begin_span(const char* cat, const char* name) noexcept {
  record(TraceEvent{.cat = cat, .name = name, .ph = 'B'});
}

void begin_span(const char* cat, const char* name, const char* arg_key,
                double arg_value) noexcept {
  record(TraceEvent{.value = arg_value, .cat = cat, .name = name, .arg_key = arg_key, .ph = 'B'});
}

void end_span() noexcept { record(TraceEvent{.ph = 'E'}); }

void begin_task(const char* label, std::uint64_t stream, std::uint64_t ticket) noexcept {
  record(TraceEvent{.cat = "stream", .name = label, .stream = stream, .ticket = ticket,
                    .ph = 'B', .kind = Rec::Task});
}

void begin_wait(const char* kind, const std::source_location& loc, std::uint64_t stream,
                std::uint64_t ticket) noexcept {
  record(TraceEvent{.cat = "stream",
                    .name = site_label(kind, loc.file_name(), static_cast<unsigned>(loc.line())),
                    .stream = stream, .ticket = ticket, .ph = 'B', .kind = Rec::Wait});
}

void enqueue(std::uint64_t stream, std::uint64_t ticket, const char* label,
             double depth) noexcept {
  if (!trace_enabled()) return;
  record(TraceEvent{.value = depth, .cat = "counter", .name = "stream.queue_depth",
                    .arg_key = label, .stream = stream, .ticket = ticket, .ph = 'C',
                    .kind = Rec::Enqueue});
}

void set_device_ordinal(int ordinal) {
  ThreadBuffer& b = Recorder::instance().local_buffer();
  std::lock_guard lock(b.m);
  b.device_ordinal = ordinal;
}

}  // namespace detail

void instant(const char* cat, const char* name) noexcept {
  if (!trace_enabled()) return;
  detail::record(TraceEvent{.cat = cat, .name = name, .ph = 'i'});
}

void counter(const char* name, double value) noexcept {
  if (!trace_enabled()) return;
  detail::record(TraceEvent{.value = value, .cat = "counter", .name = name, .ph = 'C'});
}

}  // namespace fth::obs
