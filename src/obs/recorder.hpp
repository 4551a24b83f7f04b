// The fth::obs event recorder's internals (internal to src/obs; see
// obs/trace.hpp for the public surface and DESIGN.md §8 for the model).
//
// Every instrumentation point produces one TraceEvent and hands it to
// record(), which stamps it and, under the calling thread's uncontended
// buffer mutex, feeds each armed sink from the same per-thread buffer:
//  * trace file — `events`, written at trace_stop();
//  * flight recorder — `ring`, the newest ring.size() events;
//  * DAG — `dag`, assembled into a dag::Graph at dag::stop();
//  * profiler — `profile`, a per-thread aggregate folded live.
// The sinks' start/stop code reaches the buffers through for_each_buffer().
#pragma once

#include <cstdint>
#include <cstring>
#include <functional>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/trace.hpp"
#include "obs/util.hpp"

namespace fth::obs::detail {

/// Bits of g_sinks (declared in trace.hpp): which sinks are armed.
enum Sink : unsigned { kFile = 1, kFlight = 2, kProfile = 4, kDag = 8 };

[[nodiscard]] inline bool sink_on(unsigned sink) noexcept {
  return (g_sinks.load(std::memory_order_relaxed) & sink) != 0;
}
void set_sink(unsigned sink, bool on) noexcept;

/// What a record stands for. Plain covers TraceSpan, instant() and
/// counter(); the rest come from the runtime hooks in trace.hpp and from
/// dag::mark().
enum class Rec : std::uint8_t { Plain, Task, Wait, Enqueue, Mark };

/// The one event type every sink reads. Names and categories are string
/// literals or interned (see the trace.hpp contract). Begin events ('B')
/// carry the kind; an end event ('E') closes whatever its thread opened last.
struct TraceEvent {
  double ts_us = 0.0;
  double value = 0.0;         // counter value or span argument (transfer bytes)
  const char* cat = "";
  const char* name = "";      // Wait: the "<kind>@<file>:<line>" call site
  const char* arg_key = "";   // span argument name; Enqueue: the task's label
  std::uint64_t stream = 0;   // Task / Wait / Enqueue: the stream's obs id
  std::uint64_t ticket = 0;   // Task / Enqueue: its ticket; Wait: newest observable
  std::uint32_t tid = 0;
  char ph = '?';
  Rec kind = Rec::Plain;
};

// --- Profiler aggregate -------------------------------------------------------
// Shared by the live profiler (one per thread buffer) and the offline
// ProfileBuilder (one per trace tid). Spans are keyed by their (cat, name)
// pointers but hashed/compared by content, so literals and interned names
// merge correctly. Member functions live in profile.cpp.

struct PhaseKey {
  const char* cat;
  const char* name;
  bool operator==(const PhaseKey& o) const noexcept {
    return std::strcmp(cat, o.cat) == 0 && std::strcmp(name, o.name) == 0;
  }
};

struct PhaseKeyHash {
  std::size_t operator()(const PhaseKey& k) const noexcept {
    std::size_t h = 1469598103934665603ull;
    const auto mix = [&h](const char* p) {
      for (; *p != '\0'; ++p) h = (h ^ static_cast<unsigned char>(*p)) * 1099511628211ull;
    };
    mix(k.cat);
    h = (h ^ 0x2F) * 1099511628211ull;
    mix(k.name);
    return h;
  }
};

struct PhaseAccum {
  std::uint64_t calls = 0;
  double wall_us = 0.0;
  double self_us = 0.0;
  std::uint64_t flops = 0;
  double arg_sum = 0.0;
};

struct Frame {
  PhaseKey key;
  double t0 = 0.0;
  double mark_ts = 0.0;           // start of the current self segment
  std::uint64_t mark_flops = 0;   // thread-flops at the segment start
  double arg = 0.0;
  double self_us = 0.0;
  std::uint64_t self_flops = 0;
  bool is_task = false, is_wait = false, is_panel = false, is_update = false;
};

struct ProfileAgg {
  std::vector<Frame> stack;
  std::unordered_map<PhaseKey, PhaseAccum, PhaseKeyHash> phases;
  std::vector<Interval> device_busy;  // stream/task spans (device worker)
  std::vector<Interval> host_wait;    // stream/synchronize + stream/event_wait
  bool is_device = false;
  int device_ordinal = -1;  // pool ordinal self-reported by the worker (live)
  double pending_panel_t0 = -1.0;  // panel begin awaiting its update end
  std::uint64_t iters = 0;
  double iter_sum_us = 0.0;
  double iter_max_us = 0.0;
  double first_ts = 0.0, last_ts = 0.0;
  bool any = false;

  void note_ts(double ts);
  void begin(const char* cat, const char* name, double ts, double arg, std::uint64_t fl);
  void end(double ts, std::uint64_t fl);
  /// Attribute still-open spans up to `ts` (window close mid-span). No new
  /// FLOPs are credited: the closing thread cannot read the owner's counter.
  void close_open(double ts);
};

// --- Per-thread buffer ----------------------------------------------------------

struct ThreadBuffer {
  std::mutex m;
  std::vector<TraceEvent> events;  // trace file (unbounded)
  std::vector<TraceEvent> ring;    // flight recorder (newest ring.size() events)
  std::size_t ring_next = 0;
  bool ring_wrapped = false;
  std::vector<TraceEvent> dag;     // DAG: spans, tasks, waits, enqueues, marks
  ProfileAgg profile;              // profiler: folded live, bounded
  std::string thread_name;
  std::uint32_t tid = 0;
  int device_ordinal = -1;         // device workers' pool ordinal (-1 host)
};

/// Stamp `ev` (time, thread) and feed it to every armed sink. No-op when
/// no sink is armed.
void record(TraceEvent ev) noexcept;

/// Run `fn` on every thread buffer registered so far, each under its own
/// lock (and the registry lock for the whole walk).
void for_each_buffer(const std::function<void(ThreadBuffer&)>& fn);

/// Append a pre-stamped event (no re-timestamping) to the trace file
/// buffers; no-op unless a trace file is active. `ph` 's'/'f' are
/// Chrome-trace flow events: `value` carries the flow id.
void raw_event(char ph, const char* cat, const char* name, double ts_us, std::uint32_t tid,
               double value) noexcept;

}  // namespace fth::obs::detail
