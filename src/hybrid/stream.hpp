// Execution stream: an in-order FIFO of tasks run by a worker thread.
//
// This mirrors the CUDA stream model the MAGMA hybrid algorithms are built
// on: work is enqueued asynchronously, executes in order on the device,
// and the host synchronizes explicitly via synchronize() or events. The
// fault-tolerant Hessenberg driver relies on this to overlap host-side
// checksum work with device-side trailing-matrix updates exactly as the
// paper's Algorithm 3 does.
//
// Every task carries a label and a monotonically increasing ticket, and
// each stream keeps one timeline: the highest ticket retired so far. An
// Event is a position on that timeline (the ticket of the last task
// enqueued before record()), not a task of its own. Both feed fth::check
// (see check/access.hpp): the worker runs each task inside a
// check::TaskScope (so device-view unwraps via .in_task() validate), and
// Event::wait / Event::ready() / synchronize() report the happens-before
// edges the host observes, which is what retires in-flight transfers in
// the race detector.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <source_location>
#include <thread>

#include "check/effects.hpp"

namespace fth::hybrid {

class Device;

/// A stream's retired-ticket counter (stream.cpp), shared by the stream and
/// every Event recorded on it so an Event never dangles.
struct Timeline;

/// A host-visible position in a stream's task sequence: a ticket on the
/// stream's timeline. Copying one copies a pointer and a number; recording
/// one enqueues nothing.
class Event {
 public:
  Event() = default;

  /// True once every task enqueued before the recording has retired.
  /// Observing true from a host thread is a happens-before edge: it
  /// retires transfers enqueued at or before the recording ticket.
  [[nodiscard]] bool ready() const;

  /// Block the calling thread until ready(). The (defaulted) call site
  /// names the wait in traces, the profiler, and the DAG recorder's
  /// blocking-edge attribution.
  void wait(std::source_location loc = std::source_location::current()) const;

  /// Bounded wait: returns true once ready() (recording the same
  /// happens-before edge as wait()), false on timeout — in which case NO
  /// edge is recorded and in-flight transfers stay live. The device-loss
  /// detection protocol (DESIGN.md §13) is built on this: a false return
  /// is the health-check timeout that declares a device lost.
  [[nodiscard]] bool wait_for(
      std::chrono::nanoseconds timeout,
      std::source_location loc = std::source_location::current()) const;

  /// True when the stream was killed before this event's ticket retired:
  /// some task it covers was discarded or cut short (Stream::kill). Fixed
  /// once ready(), so every observer of a ready event reads the same value.
  [[nodiscard]] bool doomed() const;

 private:
  friend class Stream;
  /// The one wait: until the ticket retires, for at most `timeout`; a
  /// reached ticket is reported to fth::check. `kind` names the WaitSpan
  /// (nullptr: a poll, no span).
  bool reach(std::chrono::nanoseconds timeout, const char* kind,
             const std::source_location& loc) const;

  std::shared_ptr<Timeline> tl_;
  std::uint64_t ticket_ = 0;
};

/// In-order asynchronous work queue executed by a dedicated worker thread.
class Stream {
 public:
  /// `device` (may be null) is used for transfer statistics / cost model.
  explicit Stream(Device* device = nullptr);
  ~Stream();

  Stream(const Stream&) = delete;
  Stream& operator=(const Stream&) = delete;

  /// Enqueue a task; returns its ticket immediately. Tasks run strictly
  /// in order. `label` must be a static or interned string; it names the
  /// task in checker reports and traces.
  std::uint64_t enqueue(const char* label, std::function<void()> task);
  std::uint64_t enqueue(std::function<void()> task) {
    return enqueue("task", std::move(task));
  }

  /// Enqueue with a declared effect set (check/effects.hpp): the
  /// FTH_TASK_EFFECTS declaration travels with the task and is installed
  /// in its TaskScope, so FTH_CHECK_EFFECTS=1 runs validate every device
  /// unwrap against it. tools/fth_analyze requires this overload for every
  /// enqueue in src/hybrid/ and src/ft/ (rule `undeclared-task`).
  std::uint64_t enqueue(const char* label, check::TaskEffects effects,
                        std::function<void()> task);

  /// Block until every enqueued task has completed. Rethrows the first
  /// exception thrown by any task since the last synchronize(). The
  /// (defaulted) call site names the wait in traces/profiles and in the
  /// DAG recorder's blocking-edge attribution.
  void synchronize(std::source_location loc = std::source_location::current());

  /// Record an event at the current tail of the queue (enqueues nothing).
  [[nodiscard]] Event record();

  /// Make this stream wait (asynchronously) until `e` is ready before
  /// running subsequently enqueued tasks.
  void wait_event(const Event& e);

  /// True when every enqueued task has retired. (A snapshot: another
  /// thread may enqueue immediately after. The hybrid drivers are single-
  /// host-threaded, so the gate hybrid::host_view builds on this is sound.)
  /// Records no happens-before edge.
  [[nodiscard]] bool idle() const;

  /// Device this stream belongs to (may be null for a free-standing stream).
  [[nodiscard]] Device* device() const noexcept { return device_; }

  /// Process-unique stream identity for the DAG recorder. Stable across the
  /// stream's life and never reused (unlike `this`, which the allocator may
  /// recycle across sequentially constructed Devices).
  [[nodiscard]] std::uint64_t obs_id() const noexcept { return obs_id_; }

  /// Number of tasks retired (run or discarded) over the stream's lifetime.
  [[nodiscard]] std::uint64_t tasks_executed() const;

  /// Deepest backlog observed (tasks queued + the one executing) since
  /// construction or the last reset_peak_queue_depth(). A proxy for how
  /// far ahead of the device the host got — the overlap the hybrid
  /// algorithms live on.
  [[nodiscard]] std::uint64_t peak_queue_depth() const;
  void reset_peak_queue_depth();

  /// Declare the simulated device behind this stream dead (hard-death
  /// strike, or quarantine after loss detection). Queued and future tasks
  /// are discarded without running but still retire, so host Event waits
  /// on a dead stream return instead of hanging; every Event whose ticket
  /// had not retired yet is doomed() (like a real runtime erroring-out
  /// pending events). The task currently executing finishes; the worker
  /// thread stays alive to drain the queue and the destructor joins as
  /// usual.
  void kill();

  /// True once kill() ran. Fault-plane stall hooks poll this so a blocked
  /// silent-stall unwinds when the driver quarantines the device.
  [[nodiscard]] bool killed() const;

  /// Install a hook invoked on the worker thread after each task finishes,
  /// before it retires (argument: the task's lifetime index). The hook in
  /// place when a task is dequeued is the one it runs. Because it runs
  /// between tasks, the hook may touch device memory without racing the
  /// task sequence — the fault plane uses this to land in-flight
  /// corruptions. Pass nullptr to clear. A hook that throws is treated like
  /// a failing task.
  void set_task_hook(std::function<void(std::uint64_t)> hook);

 private:
  struct Task {
    std::function<void()> fn;
    const char* label = "task";
    std::uint64_t ticket = 0;
#if FTH_CHECK_ENABLED
    check::TaskEffects effects;  ///< declared set; meaningful iff has_effects
    bool has_effects = false;
#endif
  };

  std::uint64_t enqueue_task(Task&& t);
  void worker_loop();

  Device* device_;
  const std::uint64_t obs_id_;  // initialized before worker_ starts
  /// Shared with every recorded Event; its mutex guards the fields below.
  const std::shared_ptr<Timeline> tl_;
  std::condition_variable cv_worker_;
  std::deque<Task> queue_;
  std::function<void(std::uint64_t)> task_hook_;
  std::exception_ptr pending_error_;
  /// Newest ticket enqueued. Written under the timeline mutex; atomic so
  /// the idle worker can spin on it before it parks (hybrid/spin.hpp).
  std::atomic<std::uint64_t> tail_{0};
  std::uint64_t peak_depth_ = 0;
  std::atomic<bool> stop_{false};  ///< written under the timeline mutex
  std::thread worker_;
};

}  // namespace fth::hybrid
