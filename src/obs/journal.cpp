#include "obs/journal.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <mutex>

#include "obs/trace.hpp"
#include "obs/util.hpp"

namespace fth::obs {

namespace journal_detail {
std::atomic<bool> g_on{false};
}  // namespace journal_detail

namespace {

std::atomic<std::uint64_t> g_run{0};
std::atomic<std::uint64_t> g_next_run{0};

/// Ring of records behind one mutex. Journal events are rare by
/// construction (detections, losses, state changes — not per-element work),
/// so a single short critical section is cheaper than per-thread buffers
/// plus a merge, and keeps snapshot() trivially ordered.
class JournalRing {
 public:
  static JournalRing& instance() {
    static JournalRing r;
    return r;
  }

  void start(std::size_t capacity) {
    std::lock_guard lock(m_);
    ring_.assign(std::max<std::size_t>(capacity, 64), JournalEvent{});
    next_ = 0;
    wrapped_ = false;
    journal_detail::g_on.store(true, std::memory_order_relaxed);
  }

  void stop() {
    journal_detail::g_on.store(false, std::memory_order_relaxed);
    std::lock_guard lock(m_);
    ring_.clear();
    ring_.shrink_to_fit();
    next_ = 0;
    wrapped_ = false;
  }

  void log(JournalEvent&& e) noexcept {
    std::lock_guard lock(m_);
    if (ring_.empty()) return;  // raced journal_stop(); drop
    ring_[next_] = std::move(e);
    if (++next_ == ring_.size()) {
      next_ = 0;
      wrapped_ = true;
    }
  }

  [[nodiscard]] std::vector<JournalEvent> snapshot() const {
    std::lock_guard lock(m_);
    std::vector<JournalEvent> out;
    out.reserve(wrapped_ ? ring_.size() : next_);
    if (wrapped_)
      out.insert(out.end(), ring_.begin() + static_cast<std::ptrdiff_t>(next_), ring_.end());
    out.insert(out.end(), ring_.begin(), ring_.begin() + static_cast<std::ptrdiff_t>(next_));
    return out;
  }

 private:
  mutable std::mutex m_;
  std::vector<JournalEvent> ring_;
  std::size_t next_ = 0;
  bool wrapped_ = false;
};

// Honour FTH_JOURNAL for any binary linking the library (same pattern as
// the trace recorder's env hook).
[[maybe_unused]] const bool g_env_init = [] {
  journal_init_from_env();
  return true;
}();

}  // namespace

const char* to_string(JournalSeverity s) noexcept {
  switch (s) {
    case JournalSeverity::Info: return "info";
    case JournalSeverity::Warn: return "warn";
    case JournalSeverity::Error: return "error";
  }
  return "?";
}

void journal_start(std::size_t capacity) { JournalRing::instance().start(capacity); }

void journal_stop() { JournalRing::instance().stop(); }

void journal_log(JournalSeverity sev, const char* component, const char* event, int device,
                 double value, std::int64_t boundary) noexcept {
  if (!journal_enabled()) return;
  journal_log(sev, component, event, device, value, boundary, std::string());
}

void journal_log(JournalSeverity sev, const char* component, const char* event, int device,
                 double value, std::int64_t boundary, std::string detail) noexcept {
  if (!journal_enabled()) return;
  JournalEvent e;
  e.t_us = detail::now_us();
  e.run_id = g_run.load(std::memory_order_relaxed);
  e.value = value;
  e.boundary = boundary;
  e.component = component;
  e.event = event;
  e.device = device;
  e.severity = sev;
  e.detail = std::move(detail);
  JournalRing::instance().log(std::move(e));
}

std::uint64_t journal_new_run() noexcept {
  const std::uint64_t id = g_next_run.fetch_add(1, std::memory_order_relaxed) + 1;
  g_run.store(id, std::memory_order_relaxed);
  return id;
}

void journal_set_run(std::uint64_t id) noexcept {
  g_run.store(id, std::memory_order_relaxed);
}

std::uint64_t journal_run() noexcept { return g_run.load(std::memory_order_relaxed); }

std::vector<JournalEvent> journal_snapshot() { return JournalRing::instance().snapshot(); }

std::vector<JournalEvent> journal_snapshot(std::uint64_t run_id) {
  std::vector<JournalEvent> all = JournalRing::instance().snapshot();
  std::vector<JournalEvent> out;
  out.reserve(all.size());
  for (auto& e : all)
    if (e.run_id == run_id) out.push_back(std::move(e));
  return out;
}

std::string journal_event_json(const JournalEvent& e) {
  std::string out;
  out.reserve(160 + e.detail.size());
  out += "{\"t_us\":";
  append_num(out, e.t_us);
  out += ",\"severity\":\"";
  out += to_string(e.severity);
  out += "\",\"run\":" + std::to_string(e.run_id);
  out += ",\"component\":\"";
  append_escaped(out, e.component);
  out += "\",\"event\":\"";
  append_escaped(out, e.event);
  out += "\",\"device\":" + std::to_string(e.device);
  out += ",\"boundary\":" + std::to_string(e.boundary);
  out += ",\"value\":";
  append_num(out, e.value);
  if (!e.detail.empty()) {
    out += ",\"detail\":\"";
    append_escaped(out, e.detail.c_str());
    out += "\"";
  }
  out += "}";
  return out;
}

std::string journal_to_jsonl(const std::vector<JournalEvent>& events) {
  std::string out;
  bool first = true;
  for (const JournalEvent& e : events) {
    if (!first) out += '\n';
    first = false;
    out += journal_event_json(e);
  }
  return out;
}

bool journal_write(const std::string& path) {
  if (!journal_enabled()) return false;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "fth::obs: cannot open journal output '%s'\n", path.c_str());
    return false;
  }
  const std::string body = journal_to_jsonl(journal_snapshot());
  if (!body.empty()) std::fprintf(f, "%s\n", body.c_str());
  std::fclose(f);
  return true;
}

void journal_init_from_env() {
  static bool armed = false;
  const char* path = std::getenv("FTH_JOURNAL");
  if (armed || path == nullptr || path[0] == '\0') return;
  armed = true;
  journal_start();
  static std::string dump_path;
  dump_path = path;
  std::atexit([] { journal_write(dump_path); });
}

}  // namespace fth::obs
