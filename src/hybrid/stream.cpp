#include "hybrid/stream.hpp"

#include <algorithm>
#include <atomic>
#include <limits>
#include <mutex>
#include <optional>

#include "check/access.hpp"
#include "hybrid/device.hpp"
#include "hybrid/spin.hpp"
#include "common/error.hpp"
#include "obs/trace.hpp"

namespace fth::hybrid {

namespace {

constexpr std::uint64_t kNever = std::numeric_limits<std::uint64_t>::max();

/// DAG identities are never reused, unlike `this` pointers (see obs_id()).
std::atomic<std::uint64_t> g_next_stream_obs_id{1};

/// Live streams, each with one worker thread.
std::atomic<int> g_workers{0};

/// The handoff's spin window: every stream worker and the host may spin at
/// once (a pool of D members: D workers), so they spin only while each has
/// a core (hybrid/spin.hpp). Otherwise parking at once is the faster
/// handoff: 3 members on 2 cores ran at 0.4x, 1 device on 1 core at 0.2x
/// with the spin (EXPERIMENTS.md "Layer table").
std::chrono::nanoseconds handoff_window() {
  return detail::spin_window(g_workers.load(std::memory_order_relaxed) + 1, detail::cores());
}

/// Report the happens-before edge an observed-complete event implies.
/// From a host thread it is a host-ordering (retires in-flight transfers
/// up to the recording ticket); from a stream worker (wait_event task) it
/// is a cross-stream edge that resolves once the host orders the waiter.
void note_event_observed(const void* stream, std::uint64_t ticket) {
  if (stream == nullptr) return;
  if (check::in_task_context())
    check::on_cross_stream_wait(check::current_stream(), check::current_ticket(),
                                stream, ticket);
  else
    check::on_host_ordered(stream, ticket);
}

}  // namespace

struct Timeline {
  Timeline(const void* s, std::uint64_t id) : stream(s), obs_id(id) {}

  std::mutex m;
  std::condition_variable cv;      ///< notified when `retired` reaches wake_at
  /// Every ticket ≤ this has retired. Written under `m`; atomic so a host
  /// waiter can spin on it before it parks (hybrid/spin.hpp).
  std::atomic<std::uint64_t> retired{0};
  std::uint64_t killed_at = kNever;  ///< `retired` when kill() ran
  std::uint64_t wake_at = kNever;  ///< lowest ticket a blocked waiter needs
  const void* stream;              ///< checker identity; null once destroyed
  const std::uint64_t obs_id;      ///< the stream's DAG identity
};

bool Event::reach(std::chrono::nanoseconds timeout, const char* kind,
                  const std::source_location& loc) const {
  if (!tl_) return true;  // default-constructed event is trivially ready
  Timeline& tl = *tl_;
  bool done = false;
  const void* stream = nullptr;
  {
    std::optional<obs::WaitSpan> span;
    if (kind != nullptr) span.emplace(kind, loc, tl.obs_id, ticket_);
    const auto deadline = timeout == std::chrono::nanoseconds::max()
                              ? std::chrono::steady_clock::time_point::max()
                              : std::chrono::steady_clock::now() + timeout;
    // Spin first, within the deadline; a poll (timeout 0) only looks. A
    // wait the spin used up does not park: a timed futex wait sleeps for
    // the kernel's timer slack (~50 µs) even when its deadline is near.
    (void)detail::spin_until(std::min(handoff_window(), timeout),
                             [&] { return tl.retired.load(std::memory_order_acquire) >= ticket_; });
    std::unique_lock lock(tl.m);
    while (!(done = tl.retired >= ticket_) && std::chrono::steady_clock::now() < deadline) {
      tl.wake_at = std::min(tl.wake_at, ticket_);
      if (tl.cv.wait_until(lock, deadline) == std::cv_status::timeout) {
        done = tl.retired >= ticket_;
        break;
      }
    }
    stream = tl.stream;
  }
  // A timed-out wait observed nothing: no happens-before edge, transfers
  // covered by this event stay in flight (the race detector stays sound
  // when the caller takes the loss-detection branch).
  if (done) note_event_observed(stream, ticket_);
  return done;
}

bool Event::ready() const {
  return reach(std::chrono::nanoseconds::zero(), nullptr, std::source_location::current());
}

void Event::wait(std::source_location loc) const {
  // Named after its call site ("event_wait@file:line"): the profiler
  // splits its wait phases by site, and the DAG attributes blocking to it.
  (void)reach(std::chrono::nanoseconds::max(), "event_wait", loc);
}

bool Event::wait_for(std::chrono::nanoseconds timeout, std::source_location loc) const {
  return reach(timeout, "event_wait", loc);
}

bool Event::doomed() const {
  if (!tl_) return false;
  std::lock_guard lock(tl_->m);
  return tl_->killed_at < ticket_;
}

Stream::Stream(Device* device)
    : device_(device),
      obs_id_(g_next_stream_obs_id.fetch_add(1, std::memory_order_relaxed)),
      tl_(std::make_shared<Timeline>(this, obs_id_)),
      worker_([this] { worker_loop(); }) {
  g_workers.fetch_add(1, std::memory_order_relaxed);
}

Stream::~Stream() {
  {
    std::lock_guard lock(tl_->m);
    stop_ = true;
  }
  cv_worker_.notify_all();
  worker_.join();
  g_workers.fetch_sub(1, std::memory_order_relaxed);
  // Joining the drained worker is a host-side ordering of the whole stream.
  check::on_stream_destroyed(this, tail_);
  // Events may outlive the stream; they stop naming it to the checker,
  // which may see the address again for a new stream.
  std::lock_guard lock(tl_->m);
  tl_->stream = nullptr;
}

std::uint64_t Stream::enqueue(const char* label, std::function<void()> task) {
  Task t;
  t.fn = std::move(task);
  t.label = label != nullptr ? label : "task";
  return enqueue_task(std::move(t));
}

std::uint64_t Stream::enqueue(const char* label, check::TaskEffects effects,
                              std::function<void()> task) {
  Task t;
  t.fn = std::move(task);
  t.label = label != nullptr ? label : "task";
#if FTH_CHECK_ENABLED
  t.effects = effects;
  t.has_effects = true;
#else
  (void)effects;  // declarations evaporate in Release (empty TaskEffects)
#endif
  return enqueue_task(std::move(t));
}

std::uint64_t Stream::enqueue_task(Task&& t) {
  FTH_CHECK(t.fn != nullptr, "stream task must be callable");
  const char* label = t.label;
  std::uint64_t ticket = 0;
  {
    std::lock_guard lock(tl_->m);
    ticket = tail_.load(std::memory_order_relaxed) + 1;
    t.ticket = ticket;
    queue_.push_back(std::move(t));
    tail_.store(ticket, std::memory_order_release);
    const std::uint64_t depth = ticket - tl_->retired;  // queued + executing
    if (depth > peak_depth_) peak_depth_ = depth;
    obs::detail::enqueue(obs_id_, ticket, label, static_cast<double>(depth));
  }
  cv_worker_.notify_one();
  return ticket;
}

void Stream::synchronize(std::source_location loc) {
  // The wait's cause is the newest ticket at entry. Recorded even when the
  // queue is already drained — a zero-duration wait keeps the DAG's node
  // counts (and the profile's call counts) deterministic.
  (void)record().reach(std::chrono::nanoseconds::max(), "synchronize", loc);
  std::lock_guard lock(tl_->m);
  if (pending_error_) {
    const std::exception_ptr e = pending_error_;
    pending_error_ = nullptr;
    std::rethrow_exception(e);
  }
}

Event Stream::record() {
  Event e;
  e.tl_ = tl_;
  std::lock_guard lock(tl_->m);
  e.ticket_ = tail_.load(std::memory_order_relaxed);
  return e;
}

void Stream::wait_event(const Event& e) {
  // Not labeled "event_wait": that name means a *host* wait to the profiler;
  // the worker stalling on a cross-stream event is device-busy time.
  enqueue("dev.wait_event", FTH_TASK_EFFECTS(), [e] { e.wait(); });
}

bool Stream::idle() const {
  std::lock_guard lock(tl_->m);
  return tl_->retired == tail_;
}

std::uint64_t Stream::tasks_executed() const {
  std::lock_guard lock(tl_->m);
  return tl_->retired;
}

std::uint64_t Stream::peak_queue_depth() const {
  std::lock_guard lock(tl_->m);
  return peak_depth_;
}

void Stream::reset_peak_queue_depth() {
  std::lock_guard lock(tl_->m);
  peak_depth_ = tail_ - tl_->retired;
}

void Stream::set_task_hook(std::function<void(std::uint64_t)> hook) {
  std::lock_guard lock(tl_->m);
  task_hook_ = std::move(hook);
}

void Stream::kill() {
  {
    std::lock_guard lock(tl_->m);
    if (tl_->killed_at != kNever) return;
    tl_->killed_at = tl_->retired;
  }
  cv_worker_.notify_all();
}

bool Stream::killed() const {
  std::lock_guard lock(tl_->m);
  return tl_->killed_at != kNever;
}

void Stream::worker_loop() {
  obs::set_thread_name("device-stream");
  const int dev_ordinal = device_ != nullptr ? device_->ordinal() : -1;
  obs::detail::set_device_ordinal(dev_ordinal);
  std::uint64_t taken = 0;  // newest ticket popped; the queue is empty iff tail_ == taken
  for (;;) {
    Task task;
    std::function<void(std::uint64_t)> hook;
    bool dead = false;
    {
      // Spin for the next enqueue before parking (hybrid/spin.hpp).
      (void)detail::spin_until(handoff_window(), [&] {
        return tail_.load(std::memory_order_acquire) != taken ||
               stop_.load(std::memory_order_relaxed);
      });
      std::unique_lock lock(tl_->m);
      cv_worker_.wait(lock, [&] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stop_) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
      taken = task.ticket;
      dead = tl_->killed_at != kNever;
      if (!dead) hook = task_hook_;
    }
    // A killed stream discards work instead of running it; the discarded
    // task is still recorded, and retires like any other (see kill()).
    std::exception_ptr error;
    if (obs::TaskSpan span(task.label, obs_id_, task.ticket); !dead) {
      try {
#if FTH_CHECK_ENABLED
        check::TaskScope scope(this, task.label, task.ticket,
                               task.has_effects ? &task.effects : nullptr,
                               dev_ordinal);
#else
        check::TaskScope scope(this, task.label, task.ticket, nullptr, dev_ordinal);
#endif
        task.fn();
      } catch (...) {
        error = std::current_exception();
      }
    }
    if (hook) {
      // Invoked between tasks, so the hook owns the device memory for the
      // duration of the call — same discipline as a task body.
      try {
        check::TaskScope scope(this, "task_hook", task.ticket, nullptr, dev_ordinal);
        hook(task.ticket - 1);
      } catch (...) {
        if (!error) error = std::current_exception();
      }
    }
    bool wake = false;
    {
      std::lock_guard lock(tl_->m);
      // Keep only the first error; later tasks still run (matching the
      // "stream keeps executing" semantics of real runtimes).
      if (error && !pending_error_) pending_error_ = error;
      tl_->retired.store(task.ticket, std::memory_order_release);
      obs::counter("stream.queue_depth", static_cast<double>(queue_.size()));
      wake = task.ticket >= tl_->wake_at;
      if (wake) tl_->wake_at = kNever;
    }
    // Outside the lock, so a woken waiter does not block on it at once.
    if (wake) tl_->cv.notify_all();
  }
}

}  // namespace fth::hybrid
