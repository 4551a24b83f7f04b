#include "hybrid/team.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/flops.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace fth::hybrid {

// Fork/join protocol. state_ holds (generation << 1) | open. The dispatcher
// writes the job (fn_, arg_, chunks_, ctx_) while the job is closed and no
// helper is inside, then opens generation g. A helper that sees a new open
// generation enters (inside_++) and re-reads state_: only if it is still
// the same open generation does it read the job and claim chunks through
// next_. When done_ reaches chunks_ the dispatcher closes the job and waits
// for inside_ to drain, so a helper that woke late either sees the job
// closed or is waited for — it never reads a job being rewritten. Both
// handshakes (state_ store vs inside_ load, parked_ vs state_.wait) are
// seq_cst Dekker pairs.

namespace {

constexpr std::uint64_t kOpen = 1;

// Idle policy, as time since a helper's last chunk (or wake-up): while a
// stream of the device has work the helper spins up to kBusySpin for the
// next fork, after the device drained up to kIdleSpin, then it parks. A
// busy device's kernels follow each other faster than a futex wake-up; a
// helper spinning longer only takes a core from the host and the worker
// (on 4 cores, 3 spinning helpers + host + worker oversubscribe the box).
constexpr std::chrono::microseconds kBusySpin{50};
constexpr std::chrono::microseconds kIdleSpin{10};

// Helper threads, and a dispatcher while it runs chunks: a nested run()
// executes inline instead of forking again.
thread_local bool t_in_team = false;

inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#else
  std::this_thread::yield();
#endif
}

}  // namespace

Team::Team(int size) : size_(std::max(1, size)) {}

Team::~Team() {
  stop_.store(true, std::memory_order_seq_cst);
  state_.fetch_add(2, std::memory_order_seq_cst);  // wake parked helpers to see stop_
  state_.notify_all();
  for (std::thread& t : threads_) t.join();
}

int Team::size_for(int cores, int devices) noexcept {
  return std::max(1, std::max(1, cores) / std::max(1, devices));
}

int Team::default_size(int devices) noexcept {
  return size_for(static_cast<int>(std::thread::hardware_concurrency()), devices);
}

int Team::helpers_started() const {
  std::lock_guard lock(dispatch_m_);
  return static_cast<int>(threads_.size());
}

void Team::run_impl(index_t chunks, ChunkFn fn, void* arg) {
  if (chunks <= 0) return;
  std::unique_lock lock(dispatch_m_, std::defer_lock);
  if (size_ == 1 || chunks == 1 || t_in_team || !lock.try_lock()) {
    for (index_t c = 0; c < chunks; ++c) fn(arg, c);
    return;
  }
  if (threads_.empty()) {
    threads_.reserve(static_cast<std::size_t>(size_ - 1));
    for (int h = 1; h < size_; ++h) threads_.emplace_back([this] { helper_loop(); });
  }

  fn_ = fn;
  arg_ = arg;
  chunks_ = chunks;
  ctx_ = check::current_context();
  error_ = nullptr;
  next_.store(0, std::memory_order_relaxed);
  done_.store(0, std::memory_order_relaxed);
  credit_.store(0, std::memory_order_relaxed);
  const std::uint64_t gen = (state_.load(std::memory_order_relaxed) >> 1) + 1;
  state_.store((gen << 1) | kOpen, std::memory_order_seq_cst);
  if (parked_.load(std::memory_order_seq_cst) > 0) state_.notify_all();
  forks_.fetch_add(1, std::memory_order_relaxed);

  t_in_team = true;
  work();
  t_in_team = false;
  while (done_.load(std::memory_order_acquire) < chunks) cpu_relax();
  state_.store(gen << 1, std::memory_order_seq_cst);
  while (inside_.load(std::memory_order_seq_cst) != 0) cpu_relax();

  flops::credit_thread(credit_.load(std::memory_order_relaxed));
  if (error_) std::rethrow_exception(std::exchange(error_, nullptr));
}

void Team::work() {
  for (;;) {
    const index_t c = next_.fetch_add(1, std::memory_order_relaxed);
    if (c >= chunks_) return;
    try {
      fn_(arg_, c);
    } catch (...) {
      std::lock_guard lock(error_m_);
      if (!error_) error_ = std::current_exception();
    }
    done_.fetch_add(1, std::memory_order_release);
  }
}

void Team::helper_loop() {
  t_in_team = true;
  std::uint64_t seen = 0;  // generation this helper last joined
  for (;;) {
    std::uint64_t s = state_.load(std::memory_order_acquire);
    auto spin_from = std::chrono::steady_clock::now();
    while ((s & kOpen) == 0 || (s >> 1) == seen) {
      if (stop_.load(std::memory_order_relaxed)) return;
      const auto limit = holders_.load(std::memory_order_relaxed) > 0 ? kBusySpin : kIdleSpin;
      if (std::chrono::steady_clock::now() - spin_from < limit) {
        cpu_relax();
      } else {
        parked_.fetch_add(1, std::memory_order_seq_cst);
        state_.wait(s, std::memory_order_seq_cst);
        parked_.fetch_sub(1, std::memory_order_relaxed);
        spin_from = std::chrono::steady_clock::now();
      }
      s = state_.load(std::memory_order_acquire);
    }
    seen = s >> 1;
    inside_.fetch_add(1, std::memory_order_seq_cst);
    if (state_.load(std::memory_order_seq_cst) == s) {
      const check::ContextScope scope(ctx_);
      const std::uint64_t before = flops::thread_count();
      work();
      credit_.fetch_add(flops::thread_count() - before, std::memory_order_relaxed);
    }
    inside_.fetch_sub(1, std::memory_order_release);
  }
}

}  // namespace fth::hybrid
