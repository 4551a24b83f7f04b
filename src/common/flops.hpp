// Global floating-point-operation accounting.
//
// The Section V analysis of the paper bounds the resilience overhead by
// counting extra FLOPs; bench_overhead_model validates that bound against
// these counters. Counting happens at kernel granularity (one atomic add
// per BLAS call), so the instrumentation itself is free at scale.
#pragma once

#include <atomic>
#include <cstdint>

#include "common/types.hpp"

namespace fth::flops {

namespace detail {
inline std::atomic<std::uint64_t> g_count{0};
inline std::atomic<bool> g_enabled{false};
// Per-thread shadow of g_count, sampled by the profiler at span boundaries
// so FLOPs are attributed to the phase (and thread) that executed them —
// the global total alone cannot separate concurrent host and device work.
inline thread_local std::uint64_t t_count = 0;
}  // namespace detail

/// Enable or disable counting. Disabled by default (zero overhead path
/// still performs one relaxed load per kernel).
inline void enable(bool on) noexcept { detail::g_enabled.store(on, std::memory_order_relaxed); }

/// Whether counting is currently enabled.
inline bool enabled() noexcept { return detail::g_enabled.load(std::memory_order_relaxed); }

/// Record `n` floating point operations (no-op when disabled).
inline void add(std::uint64_t n) noexcept {
  if (enabled()) {
    detail::g_count.fetch_add(n, std::memory_order_relaxed);
    detail::t_count += n;
  }
}

/// Current counter value.
inline std::uint64_t count() noexcept { return detail::g_count.load(std::memory_order_relaxed); }

/// FLOPs recorded by the calling thread (monotonic, never reset — consumers
/// take deltas). Plain thread-local, so it is cheaper than the global add.
inline std::uint64_t thread_count() noexcept { return detail::t_count; }

/// Attribute `n` FLOPs, already in the global count, to the calling thread.
/// A device kernel team's dispatcher credits its helpers' work this way, so
/// per-thread attribution sees the whole kernel on the worker that ran it.
inline void credit_thread(std::uint64_t n) noexcept { detail::t_count += n; }

/// Reset the counter to zero.
inline void reset() noexcept { detail::g_count.store(0, std::memory_order_relaxed); }

/// RAII scope that enables counting and captures the delta on destruction.
class Scope {
 public:
  Scope() : start_(count()) { was_enabled_ = enabled(); enable(true); }
  ~Scope() { enable(was_enabled_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  /// FLOPs recorded since this scope began.
  [[nodiscard]] std::uint64_t delta() const noexcept { return count() - start_; }

 private:
  std::uint64_t start_;
  bool was_enabled_;
};

// --- Standard FLOP models (LAWN 41 conventions) -----------------------------

/// FLOPs of C = alpha*op(A)*op(B) + beta*C with op(A) m×k.
constexpr std::uint64_t gemm(index_t m, index_t n, index_t k) noexcept {
  return 2ull * static_cast<std::uint64_t>(m) * static_cast<std::uint64_t>(n) *
         static_cast<std::uint64_t>(k);
}

/// FLOPs of y = alpha*op(A)*x + beta*y with A m×n.
constexpr std::uint64_t gemv(index_t m, index_t n) noexcept {
  return 2ull * static_cast<std::uint64_t>(m) * static_cast<std::uint64_t>(n);
}

/// FLOPs of a Hessenberg reduction of an n×n matrix (~10/3 n^3).
constexpr double gehrd(index_t n) noexcept {
  const double dn = static_cast<double>(n);
  return 10.0 / 3.0 * dn * dn * dn;
}

}  // namespace fth::flops
