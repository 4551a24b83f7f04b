// fth::check inline hook layer — the only checker header the hot layers
// (la views, hybrid runtime) include.
//
// Every hook compiles to nothing when FTH_CHECK_ENABLED is 0 (the default
// for Release builds), so the checker is provably zero-overhead where the
// benches run. When compiled in (Debug builds, or -DFTH_CHECKER=ON), each
// hook is a relaxed atomic load on its fast path and only drops into
// src/check/access.cpp when there is actually something to cross-check
// (a live async transfer, or device memory registered). Activation is
// runtime-controlled: on by default when compiled in, overridable with
// FTH_CHECK=0/1 in the environment or check::set_active().
//
// The full checker API (violation reports, happens-before bookkeeping,
// seeded-violation test support) lives in check/access.hpp.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "common/types.hpp"

#ifndef FTH_CHECK_ENABLED
#ifdef NDEBUG
#define FTH_CHECK_ENABLED 0
#else
#define FTH_CHECK_ENABLED 1
#endif
#endif

namespace fth::check {

/// True when the checker code is present in this build at all. Release
/// builds return false unless configured with -DFTH_CHECKER=ON; the
/// run_benches.sh zero-overhead guard asserts this via tools/fth_checkinfo.
constexpr bool compiled_in() noexcept { return FTH_CHECK_ENABLED != 0; }

class TaskEffects;  // declared-effect set (check/effects.hpp)

#if FTH_CHECK_ENABLED

namespace detail {
// Fast-path gates, written only by access.cpp.
extern std::atomic<bool> g_active;            ///< runtime on/off
extern std::atomic<std::uint32_t> g_live_transfers;  ///< async transfers not yet host-ordered
extern std::atomic<std::uint32_t> g_device_allocs;   ///< registered device allocations

/// Per-thread execution context: non-zero depth means the thread is a
/// stream worker currently inside a task (or a between-task hook), i.e.
/// "device code" in the paper's model. Maintained by hybrid::Stream via
/// check::TaskScope.
struct ThreadCtx {
  const void* stream = nullptr;
  const char* task_label = nullptr;
  std::uint64_t ticket = 0;
  int depth = 0;
  /// Declared effects of the task this worker is executing (null when the
  /// task declared none, and always null in between-task hooks — a hook
  /// must not inherit the finished task's declaration). Checked by
  /// require_task_context when FTH_CHECK_EFFECTS=1.
  const TaskEffects* effects = nullptr;
  /// Ordinal of the device whose stream this worker serves (-1 for
  /// free-standing streams). Device allocations carry the same id, and
  /// require_task_context flags a CrossDeviceAccess when a task unwraps
  /// another device's memory — each pool member is its own memory space.
  int device = -1;
};
inline thread_local ThreadCtx t_ctx;

// Slow paths (access.cpp). `elem` is sizeof(element); geometry is the
// column-major rectangle {rows, cols, ld} in elements.
void host_view_slow(const void* p, std::size_t elem, index_t rows, index_t cols,
                    index_t ld, bool write) noexcept;
void host_touch_slow(const void* p, std::size_t elem, index_t rows, index_t cols,
                     index_t ld, bool write) noexcept;
}  // namespace detail

/// True when the checker is compiled in and runtime-active.
inline bool active() noexcept {
  return detail::g_active.load(std::memory_order_relaxed);
}

/// True when the calling thread is a stream worker inside a task, a
/// between-task hook, or a transfer — the contexts allowed to touch
/// device memory.
inline bool in_task_context() noexcept { return detail::t_ctx.depth > 0; }

/// Stream / ticket of the task the calling worker thread is executing
/// (null/0 on host threads). Used to attribute cross-stream Event waits.
inline const void* current_stream() noexcept { return detail::t_ctx.stream; }
inline std::uint64_t current_ticket() noexcept { return detail::t_ctx.ticket; }

/// Host-space view constructed over raw storage (MatrixView/VectorView
/// constructor, and whole-extent access via .data()). Validates that the
/// range is not device memory (unless in task context) and does not race a
/// live async transfer.
inline void note_host_view(const void* p, std::size_t elem, index_t rows,
                           index_t cols, index_t ld, bool write) noexcept {
  if (p == nullptr || !active()) return;
  if (detail::g_device_allocs.load(std::memory_order_relaxed) == 0 &&
      detail::g_live_transfers.load(std::memory_order_relaxed) == 0)
    return;
  detail::host_view_slow(p, elem, rows, cols, ld, write);
}

/// Element-granular host access (operator() / operator[]). Only checks the
/// transfer happens-before window: device-memory access is caught at view
/// construction and at .data(), so the per-element fast path stays a single
/// relaxed load while no async transfer is in flight.
inline void note_host_touch(const void* p, std::size_t elem, index_t rows,
                            index_t cols, index_t ld, bool write) noexcept {
  if (!active()) return;
  if (detail::g_live_transfers.load(std::memory_order_relaxed) == 0) return;
  detail::host_touch_slow(p, elem, rows, cols, ld, write);
}

/// Snapshot of a thread's task context. A hybrid::Team helper runs its
/// chunks of a kernel inside the dispatching worker's context, so to the
/// checker the helper is part of the same task (same stream, ticket,
/// declared effects and device).
using TaskContext = detail::ThreadCtx;
inline TaskContext current_context() noexcept { return detail::t_ctx; }

/// RAII: make `ctx` the calling thread's task context for the scope.
class ContextScope {
 public:
  explicit ContextScope(const TaskContext& ctx) noexcept : prev_(detail::t_ctx) {
    detail::t_ctx = ctx;
  }
  ~ContextScope() { detail::t_ctx = prev_; }
  ContextScope(const ContextScope&) = delete;
  ContextScope& operator=(const ContextScope&) = delete;

 private:
  TaskContext prev_;
};

#else  // !FTH_CHECK_ENABLED — every hook vanishes.

struct TaskContext {};
inline TaskContext current_context() noexcept { return {}; }
class ContextScope {
 public:
  explicit ContextScope(const TaskContext&) noexcept {}
};

inline constexpr bool active() noexcept { return false; }
inline constexpr bool in_task_context() noexcept { return false; }
inline constexpr const void* current_stream() noexcept { return nullptr; }
inline constexpr std::uint64_t current_ticket() noexcept { return 0; }
inline void note_host_view(const void*, std::size_t, index_t, index_t, index_t,
                           bool) noexcept {}
inline void note_host_touch(const void*, std::size_t, index_t, index_t, index_t,
                            bool) noexcept {}

#endif  // FTH_CHECK_ENABLED

// Device-deref gate, called by MatrixView/VectorView unwrap methods (see
// la/matrix.hpp). Out-of-line even on the fast path: unwraps happen once
// per task body, never per element. No-op stub when compiled out.
#if FTH_CHECK_ENABLED
void require_task_context(const void* p, std::size_t bytes,
                          const char* what) noexcept;
#else
inline void require_task_context(const void*, std::size_t, const char*) noexcept {}
#endif

}  // namespace fth::check
