#include "hybrid/stream.hpp"

#include <atomic>
#include <cstring>

#include "check/access.hpp"
#include "hybrid/device.hpp"
#include "common/error.hpp"
#include "obs/trace.hpp"

namespace fth::hybrid {

namespace {

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

bool Event::ready() const {
  if (!state_) return true;  // default-constructed event is trivially ready
  bool done = false;
  {
    std::lock_guard lock(state_->m);
    done = state_->done;
  }
  if (done) note_event_observed(state_->stream, state_->ticket);
  return done;
}

void Event::wait(std::source_location loc) const {
  if (!state_) return;
  {
    // Named after its call site ("event_wait@file:line"): the profiler
    // splits its wait phases by site, and the DAG attributes blocking to it.
    obs::WaitSpan span("event_wait", loc, state_->stream_obs_id, state_->ticket);
    std::unique_lock lock(state_->m);
    state_->cv.wait(lock, [&] { return state_->done; });
  }
  note_event_observed(state_->stream, state_->ticket);
}

bool Event::wait_for(std::chrono::nanoseconds timeout, std::source_location loc) const {
  if (!state_) return true;
  bool done = false;
  {
    obs::WaitSpan span("event_wait", loc, state_->stream_obs_id, state_->ticket);
    std::unique_lock lock(state_->m);
    done = state_->cv.wait_for(lock, timeout, [&] { return state_->done; });
  }
  // A timed-out wait observed nothing: no happens-before edge, transfers
  // covered by this event stay in flight (the race detector stays sound
  // when the caller takes the loss-detection branch).
  if (done) note_event_observed(state_->stream, state_->ticket);
  return done;
}

Stream::Stream(Device* device)
    : device_(device),
      obs_id_(g_next_stream_obs_id.fetch_add(1, std::memory_order_relaxed)),
      worker_([this] { worker_loop(); }) {}

Stream::~Stream() {
  {
    std::lock_guard lock(m_);
    stop_ = true;
  }
  cv_worker_.notify_all();
  worker_.join();
  // Joining the drained worker is a host-side ordering of the whole stream.
  check::on_stream_destroyed(this, next_ticket_ - 1);
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
    std::lock_guard lock(m_);
    ticket = next_ticket_++;
    t.ticket = ticket;
    queue_.push_back(std::move(t));
    const std::uint64_t depth = queue_.size() + (busy_ ? 1 : 0);
    if (depth > peak_depth_) peak_depth_ = depth;
    obs::detail::enqueue(obs_id_, ticket, label, static_cast<double>(depth));
  }
  cv_worker_.notify_one();
  return ticket;
}

void Stream::synchronize(std::source_location loc) {
  std::uint64_t tail = 0;
  {
    std::unique_lock lock(m_);
    // The wait's cause is the newest ticket at entry (same value on exit:
    // the hybrid drivers are single-host-threaded). Recorded even when the
    // queue is already drained — a zero-duration wait keeps the DAG's node
    // counts (and the profile's call counts) deterministic.
    tail = next_ticket_ - 1;
    obs::WaitSpan span("synchronize", loc, obs_id_, tail);
    cv_idle_.wait(lock, [&] { return queue_.empty() && !busy_; });
  }
  check::on_host_ordered(this, tail);
  std::lock_guard lock(m_);
  if (pending_error_) {
    const std::exception_ptr e = pending_error_;
    pending_error_ = nullptr;
    std::rethrow_exception(e);
  }
}

Event Stream::record() {
  Event e;
  e.state_ = std::make_shared<Event::State>();
  auto state = e.state_;
  // Pure marker: touches no matrix memory, so it declares the empty set.
  const std::uint64_t ticket = enqueue("event_record", FTH_TASK_EFFECTS(), [state] {
    {
      std::lock_guard lock(state->m);
      state->done = true;
    }
    state->cv.notify_all();
  });
  // Nobody else can observe the Event before record() returns, so filling
  // in the checker identity after the enqueue is race-free (the marker
  // task itself never reads these fields).
  state->stream = this;
  state->ticket = ticket;
  state->stream_obs_id = obs_id_;
  return e;
}

void Stream::wait_event(const Event& e) {
  // Not labeled "event_wait": that name means a *host* wait to the profiler;
  // the worker stalling on a cross-stream event is device-busy time.
  enqueue("dev.wait_event", FTH_TASK_EFFECTS(), [e] { e.wait(); });
}

bool Stream::idle() const {
  std::lock_guard lock(m_);
  return queue_.empty() && !busy_;
}

std::uint64_t Stream::tail_ticket() const {
  std::lock_guard lock(m_);
  return next_ticket_ - 1;
}

std::uint64_t Stream::tasks_executed() const {
  std::lock_guard lock(m_);
  return executed_;
}

std::uint64_t Stream::peak_queue_depth() const {
  std::lock_guard lock(m_);
  return peak_depth_;
}

void Stream::reset_peak_queue_depth() {
  std::lock_guard lock(m_);
  peak_depth_ = queue_.size() + (busy_ ? 1 : 0);
}

void Stream::set_task_hook(std::function<void(std::uint64_t)> hook) {
  std::lock_guard lock(m_);
  task_hook_ = std::move(hook);
}

void Stream::kill() {
  {
    std::lock_guard lock(m_);
    if (dead_) return;
    dead_ = true;
  }
  cv_worker_.notify_all();
}

bool Stream::killed() const {
  std::lock_guard lock(m_);
  return dead_;
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
    bool dead = false;
    {
      std::unique_lock lock(m_);
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
      busy_ = true;
      dead = dead_;
    }
    // A killed stream discards work instead of running it, but still
    // completes event_record markers so host waits observe doom instead of
    // hanging (see kill()). A discarded task is still recorded.
    const bool run_task = !dead || std::strcmp(task.label, "event_record") == 0;
    if (obs::TaskSpan span(task.label, obs_id_, task.ticket); run_task) {
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
        std::lock_guard lock(m_);
        // Keep only the first error; later tasks still run (matching the
        // "stream keeps executing" semantics of real runtimes).
        if (!pending_error_) pending_error_ = std::current_exception();
      }
    }
    std::function<void(std::uint64_t)> hook;
    std::uint64_t task_index;
    {
      std::lock_guard lock(m_);
      hook = task_hook_;
      task_index = executed_;
    }
    if (hook && !dead) {
      // Invoked between tasks, so the hook owns the device memory for the
      // duration of the call — same discipline as a task body.
      try {
        check::TaskScope scope(this, "task_hook", task.ticket, nullptr, dev_ordinal);
        hook(task_index);
      } catch (...) {
        std::lock_guard lock(m_);
        if (!pending_error_) pending_error_ = std::current_exception();
      }
    }
    {
      std::lock_guard lock(m_);
      busy_ = false;
      ++executed_;
      obs::counter("stream.queue_depth", static_cast<double>(queue_.size()));
      if (queue_.empty()) cv_idle_.notify_all();
    }
  }
}

}  // namespace fth::hybrid
