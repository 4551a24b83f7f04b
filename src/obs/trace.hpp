// fth::obs tracing — the one event recorder behind the Chrome/Perfetto
// `trace_event` JSON file, the flight recorder, the profiler and the DAG.
//
// Scoped spans (B/E pairs), instant events, counter tracks, and the
// hybrid runtime's task / wait / enqueue records all go through one
// per-thread buffer (obs/recorder.hpp). Designed so the disabled path costs
// one relaxed atomic load per call site: spans and events check
// `trace_enabled()` and bail before touching any state.
//
// Four sinks read that buffer; any combination can be active, and
// `trace_enabled()` is true while at least one is:
//  * trace file — unbounded buffers, written at trace_stop() / process exit
//    (`FTH_TRACE=<path>` or trace_start()), opened directly by the Perfetto
//    UI (https://ui.perfetto.dev) or chrome://tracing;
//  * flight recorder — a bounded per-thread ring that keeps only the last
//    `capacity` events, cheap enough to leave on for whole fault campaigns
//    (`FTH_FLIGHT=<n_events>` or flight_start()). It is auto-dumped to a
//    trace file when recovery escalates to abort (recovery_error) or on a
//    fatal signal, so post-mortems carry the last milliseconds of timeline;
//  * profiler — per-phase aggregation, see obs/profile.hpp;
//  * DAG — execution-graph assembly, see obs/dag.hpp.
//
// Event names and categories must be string literals or pointers obtained
// from intern_name() — the recorder stores the pointers, never copies,
// which is what keeps the enabled path allocation-free. DESIGN.md §8
// documents the event taxonomy and track layout used across the library.
#pragma once

#include <atomic>
#include <cstdint>
#include <source_location>
#include <string>
#include <string_view>

namespace fth::obs {

namespace detail {
/// Bit set of the armed sinks (obs/recorder.hpp names the bits).
extern std::atomic<unsigned> g_sinks;
}  // namespace detail

/// True while any sink (trace file, flight recorder, profiler, DAG) is
/// active. One relaxed load — safe to call from any thread at any frequency.
[[nodiscard]] inline bool trace_enabled() noexcept {
  return detail::g_sinks.load(std::memory_order_relaxed) != 0;
}

/// Start recording; events accumulate in memory until trace_stop(), which
/// writes `path`. Calling trace_start() while active just replaces the
/// output path. Registers an atexit hook so a crash-free process always
/// flushes.
void trace_start(const std::string& path);

/// Stop file tracing and write the accumulated trace (no-op when no file
/// trace is active). Returns the number of events written.
std::size_t trace_stop();

/// Honour `FTH_TRACE=<path>` and `FTH_FLIGHT=<n_events>` if set. Called
/// once automatically from a static initializer in trace.cpp; benches also
/// call it explicitly so the behaviour does not depend on static-init order.
void trace_init_from_env();

/// Name the calling thread's track in the trace (e.g. "device-stream").
/// Cheap and callable before tracing starts; the name is emitted as a
/// `thread_name` metadata event at write time.
void set_thread_name(const char* name);

/// Copy `name` into process-lifetime storage and return a stable pointer,
/// deduplicated by content. This is the supported way to use a dynamically
/// built string (e.g. a per-size bench label) as an event name or category
/// — passing a temporary's .c_str() directly would dangle, since the
/// recorder keeps pointers until write time. Interned names survive until
/// process exit; intern each distinct label once and reuse the pointer.
[[nodiscard]] const char* intern_name(std::string_view name);

/// Interned `"<kind>@<basename(file)>:<line>"` call-site label — the per-site
/// span names Stream::synchronize / Event::wait record so the profiler and
/// the DAG can attribute waits to source locations. Cached per
/// (kind, file, line), so repeat calls from the same site are a map hit.
[[nodiscard]] const char* site_label(const char* kind, const char* file, unsigned line);

// --- Flight recorder --------------------------------------------------------

/// Start the flight recorder: each thread keeps (up to) the last `capacity`
/// events in a preallocated ring. Enabled for the whole process by
/// `FTH_FLIGHT=<n_events>`. Also installs best-effort fatal-signal handlers
/// (SIGSEGV/SIGBUS/SIGILL/SIGFPE/SIGABRT) that dump the ring before
/// re-raising.
void flight_start(std::size_t capacity);

/// True between flight_start() and flight_stop().
[[nodiscard]] bool flight_active() noexcept;

/// Write the current ring contents as a Chrome trace file and return its
/// path ("" when the recorder is inactive or the file cannot be written).
/// The dump carries an instant event named after `reason` on a synthetic
/// track, and does not clear the rings — later dumps overwrite the file
/// with fresher history. Path: `FTH_FLIGHT_PATH` if set, else
/// `fth_flight_<pid>.json` in the working directory. Called automatically
/// from the recovery_error constructor and the fatal-signal handlers;
/// noexcept so it is safe mid-unwind.
std::string flight_dump(const char* reason) noexcept;

/// Stop the flight recorder (without dumping) and release the rings.
void flight_stop();

/// The newest `max_events` flight-ring events (merged across threads,
/// oldest first) rendered as a JSON array of
/// `{"ts_us":…,"ph":"B","tid":…,"cat":"…","name":"…"}` objects — the
/// embeddable form incident capsules (obs/incident.hpp) carry, as opposed
/// to flight_dump()'s Chrome-trace file. Non-destructive; "[]" when the
/// flight recorder is inactive.
[[nodiscard]] std::string flight_tail_json(std::size_t max_events);

namespace detail {
/// Microseconds on the recorder's clock (steady, zero at process start) —
/// the timebase of every recorded event. The profiler uses it so window
/// boundaries and span timestamps are directly comparable.
[[nodiscard]] double now_us() noexcept;
void begin_span(const char* cat, const char* name) noexcept;
void begin_span(const char* cat, const char* name, const char* arg_key,
                double arg_value) noexcept;
void end_span() noexcept;

// Runtime hooks: one record per hybrid-runtime site, feeding every sink.
// `stream` is the stream's process-unique obs id (hybrid::Stream::obs_id).
void begin_task(const char* label, std::uint64_t stream, std::uint64_t ticket) noexcept;
/// `kind` is "synchronize" or "event_wait"; the span is named after the
/// interned call site; `ticket` is the newest ticket the wait can observe.
void begin_wait(const char* kind, const std::source_location& loc, std::uint64_t stream,
                std::uint64_t ticket) noexcept;
/// The "stream.queue_depth" counter sample an enqueue takes, tagged with
/// the enqueued task so the DAG can build its node.
void enqueue(std::uint64_t stream, std::uint64_t ticket, const char* label,
             double depth) noexcept;
/// Device workers report their pool ordinal once at thread start, so live
/// profiles can key occupancy by ordinal instead of only by track.
void set_device_ordinal(int ordinal);
}  // namespace detail

/// RAII scoped span: emits a `ph:"B"` event at construction and the
/// matching `ph:"E"` at destruction, on the calling thread's track.
class TraceSpan {
 public:
  TraceSpan(const char* cat, const char* name) noexcept : armed_(trace_enabled()) {
    if (armed_) detail::begin_span(cat, name);
  }
  /// Span with one numeric argument shown in the UI (e.g. bytes moved).
  TraceSpan(const char* cat, const char* name, const char* arg_key,
            double arg_value) noexcept
      : armed_(trace_enabled()) {
    if (armed_) detail::begin_span(cat, name, arg_key, arg_value);
  }
  ~TraceSpan() {
    if (armed_) detail::end_span();
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 protected:
  explicit TraceSpan(bool armed) noexcept : armed_(armed) {}
  bool armed_;
};

/// Scoped record of one stream task on its worker thread: the
/// `stream/<label>` span, tagged with (stream, ticket).
class TaskSpan : public TraceSpan {
 public:
  TaskSpan(const char* label, std::uint64_t stream, std::uint64_t ticket) noexcept
      : TraceSpan(trace_enabled()) {
    if (armed_) detail::begin_task(label, stream, ticket);
  }
};

/// Scoped record of one blocking wait (see detail::begin_wait): the
/// `stream/<kind>@<file>:<line>` span, tagged with (stream, ticket).
class WaitSpan : public TraceSpan {
 public:
  WaitSpan(const char* kind, const std::source_location& loc, std::uint64_t stream,
           std::uint64_t ticket) noexcept
      : TraceSpan(trace_enabled()) {
    if (armed_) detail::begin_wait(kind, loc, stream, ticket);
  }
};

/// Thread-scoped instant event (`ph:"i"`, scope "t").
void instant(const char* cat, const char* name) noexcept;

/// Sample on a counter track (`ph:"C"`): one named series per `name`.
void counter(const char* name, double value) noexcept;

}  // namespace fth::obs
