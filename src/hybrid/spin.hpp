// Spin-then-park: the one idle rule of the simulated device.
//
// Every thread of the software device that waits for another one spins on
// the counter it needs for a bounded window, then parks on the locked or
// futex protocol it would have used anyway (DESIGN.md §3.1 "Idle policy"):
// kernel-team helpers waiting for the next fork (team.cpp), the stream
// worker waiting for the next task, and a host thread waiting for a ticket
// to retire (stream.cpp). The spin only reads what the park reads, so it is
// a lock-free pre-check: a waiter that outlasts its window parks exactly as
// it did without one. A handoff faster than the window skips two futex
// calls, the park and the wake-up, which is most of a panel column's
// round trip in Algorithm 2 at small n. A spin only pays while the thread
// it waits for has a core of its own: on fewer cores than spinners it takes
// that core instead, and each handoff costs the whole window (spin_window()).
#pragma once

#include <algorithm>
#include <chrono>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif
#if defined(__linux__)
#include <sched.h>
#endif

namespace fth::hybrid::detail {

/// How long a waiter spins before it parks. A longer window only takes a
/// core from the threads doing the work: on 4 cores a device's worker and
/// 3 helpers plus the host already fill the box.
inline constexpr std::chrono::microseconds kSpinWindow{50};

/// The cores this process may run on: its CPU affinity mask where the
/// platform has one (a cpuset or `taskset` narrows it; hardware_concurrency()
/// does not see either), else hardware_concurrency(). At least 1.
inline int cores() noexcept {
  static const int n = [] {
#if defined(__linux__)
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof set, &set) == 0) return std::max(1, CPU_COUNT(&set));
#endif
    return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  }();
  return n;
}

/// The window of a waiter among `spinners` threads that may spin at once
/// on `cores` cores: kSpinWindow while each has a core, else zero — park
/// at once, leaving the core to the thread being waited for.
constexpr std::chrono::nanoseconds spin_window(int spinners, int cores) noexcept {
  return spinners <= cores ? std::chrono::nanoseconds(kSpinWindow)
                           : std::chrono::nanoseconds::zero();
}

inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#else
  std::this_thread::yield();
#endif
}

/// Spin until `done()` holds or `window` has passed, and return done()'s
/// last value. `done` is called at least once; a window ≤ 0 only checks.
template <class Done>
bool spin_until(std::chrono::nanoseconds window, Done&& done) {
  if (done()) return true;
  if (window <= std::chrono::nanoseconds::zero()) return false;
  const auto until = std::chrono::steady_clock::now() + window;
  do {
    cpu_relax();
    if (done()) return true;
  } while (std::chrono::steady_clock::now() < until);
  return false;
}

}  // namespace fth::hybrid::detail
