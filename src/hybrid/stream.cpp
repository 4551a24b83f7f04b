#include "hybrid/stream.hpp"

#include <algorithm>
#include <atomic>
#include <limits>
#include <mutex>
#include <optional>

#include "check/access.hpp"
#include "hybrid/device.hpp"
#include "common/error.hpp"
#include "obs/trace.hpp"

namespace fth::hybrid {

namespace {

constexpr std::uint64_t kNever = std::numeric_limits<std::uint64_t>::max();

/// DAG identities are never reused, unlike `this` pointers (see obs_id()).
std::atomic<std::uint64_t> g_next_stream_obs_id{1};

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
  std::uint64_t retired = 0;       ///< every ticket ≤ this has retired
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
    std::unique_lock lock(tl.m);
    while (!(done = tl.retired >= ticket_) && timeout > std::chrono::nanoseconds::zero()) {
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
      worker_([this] { worker_loop(); }) {}

Stream::~Stream() {
  {
    std::lock_guard lock(tl_->m);
    stop_ = true;
  }
  cv_worker_.notify_all();
  worker_.join();
  // Joining the drained worker is a host-side ordering of the whole stream.
  check::on_stream_destroyed(this, next_ticket_ - 1);
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
    ticket = next_ticket_++;
    t.ticket = ticket;
    queue_.push_back(std::move(t));
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
  e.ticket_ = next_ticket_ - 1;
  return e;
}

void Stream::wait_event(const Event& e) {
  // Not labeled "event_wait": that name means a *host* wait to the profiler;
  // the worker stalling on a cross-stream event is device-busy time.
  enqueue("dev.wait_event", FTH_TASK_EFFECTS(), [e] { e.wait(); });
}

bool Stream::idle() const {
  std::lock_guard lock(tl_->m);
  return tl_->retired == next_ticket_ - 1;
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
  peak_depth_ = next_ticket_ - 1 - tl_->retired;
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
  // While this stream has work it holds the device's kernel team, whose
  // helpers then keep spinning for the next fork rather than parking soon
  // (the idle policy in hybrid/team.hpp).
  Team* team = device_ != nullptr ? &device_->team() : nullptr;
  bool holding = false;
  for (;;) {
    Task task;
    std::function<void(std::uint64_t)> hook;
    bool dead = false;
    {
      std::unique_lock lock(tl_->m);
      if (holding && queue_.empty()) {
        team->release();
        holding = false;
      }
      cv_worker_.wait(lock, [&] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stop_) return;
        continue;
      }
      if (team != nullptr && !holding) {
        team->hold();
        holding = true;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
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
      tl_->retired = task.ticket;
      obs::counter("stream.queue_depth", static_cast<double>(queue_.size()));
      wake = task.ticket >= tl_->wake_at;
      if (wake) tl_->wake_at = kNever;
    }
    // Outside the lock, so a woken waiter does not block on it at once.
    if (wake) tl_->cv.notify_all();
  }
}

}  // namespace fth::hybrid
