// Kernel team: the threads a simulated device runs one kernel on.
//
// A Team is a persistent fork/join group owned by a hybrid::Device: the
// thread that calls run() (the device's stream worker, inside a task) is
// member 0, and size()−1 helper threads, started on the first fork, take
// the other chunks. Device kernels (dev_blas.cpp, hybrid::par) split one
// BLAS call into chunks whose results do not depend on which member runs
// them, so a kernel's output is bit-identical for every team size.
//
// Idle policy (hybrid/spin.hpp, the same rule the stream worker and host
// waiters follow): a helper spins for the next fork for 50 µs after its
// last chunk, then parks on a futex — so a busy device forks without a
// wake-up, and an idle one leaves the cores to the host and the stream
// worker. There is no environment knob; the team size is a DeviceConfig
// field whose default comes from the core count (default_size()).
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "check/hooks.hpp"
#include "common/types.hpp"

namespace fth::hybrid {

class Team {
 public:
  /// A team of `size` ≥ 1 members: the dispatching thread plus size−1
  /// helpers (started lazily, so a device that never forks starts none).
  explicit Team(int size);
  ~Team();

  Team(const Team&) = delete;
  Team& operator=(const Team&) = delete;

  [[nodiscard]] int size() const noexcept { return size_; }

  /// Team size for each of `devices` devices sharing a box with `cores`
  /// hardware threads: the cores divided evenly, at least one each.
  [[nodiscard]] static int size_for(int cores, int devices) noexcept;

  /// size_for(detail::cores(), devices): the cores this process may run
  /// on (hybrid/spin.hpp), which a cpuset or `taskset` can narrow.
  [[nodiscard]] static int default_size(int devices = 1) noexcept;

  /// Run body(c) for every chunk c in [0, chunks) and return when all have
  /// finished. The caller runs chunks too. Runs every chunk inline on the
  /// caller when the team has one member, when called from inside a chunk,
  /// or while another thread is forking this team. Helpers inherit the
  /// caller's fth::check task context, and their FLOPs are credited to the
  /// caller's per-thread counter (flops::thread_count). The first exception
  /// a chunk throws is rethrown here after the join.
  template <class F>
  void run(index_t chunks, F&& body) {
    using Body = std::remove_reference_t<F>;
    run_impl(chunks, [](void* f, index_t c) { (*static_cast<Body*>(f))(c); },
             const_cast<void*>(static_cast<const void*>(&body)));
  }

  /// Number of run() calls that were spread over helpers (not inline).
  [[nodiscard]] std::uint64_t forks() const noexcept {
    return forks_.load(std::memory_order_relaxed);
  }

  /// Helper threads started so far (0 until the first fork).
  [[nodiscard]] int helpers_started() const;

 private:
  using ChunkFn = void (*)(void*, index_t);

  void run_impl(index_t chunks, ChunkFn fn, void* arg);
  void work();  // claim and run chunks of the open job until none are left
  void helper_loop();

  const int size_;
  mutable std::mutex dispatch_m_;  ///< one fork at a time; guards threads_
  std::vector<std::thread> threads_;

  // The open job. Written by the dispatcher only while the job is closed
  // and no helper is inside it (see state_ / inside_ in team.cpp).
  ChunkFn fn_ = nullptr;
  void* arg_ = nullptr;
  index_t chunks_ = 0;
  check::TaskContext ctx_{};
  std::exception_ptr error_;
  std::mutex error_m_;  ///< guards error_

  std::atomic<std::uint64_t> state_{0};  ///< (generation << 1) | open
  std::atomic<index_t> next_{0};         ///< next unclaimed chunk
  std::atomic<index_t> done_{0};         ///< chunks finished
  std::atomic<int> inside_{0};           ///< helpers between entry check and exit
  std::atomic<int> parked_{0};           ///< helpers blocked in state_.wait
  std::atomic<std::uint64_t> credit_{0};  ///< helpers' FLOPs of the open job
  std::atomic<std::uint64_t> forks_{0};
  std::atomic<bool> stop_{false};
};

}  // namespace fth::hybrid
