// hybrid::Event semantics: record/wait ordering against the FIFO stream,
// idempotent waits, waiting before the recorded position has retired,
// doom on a killed stream, cross-stream edges via wait_event, the
// spin-then-park wait (hybrid/spin.hpp) bounded by the caller's timeout,
// and the deterministic U2-race reproduction — the
// missing-Event bug from DESIGN.md §7 expressed as a checker violation, not
// as a timing-dependent data corruption.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "check/access.hpp"
#include "hybrid/device.hpp"
#include "hybrid/spin.hpp"
#include "hybrid/stream.hpp"

namespace fth::hybrid {
namespace {

using std::chrono::steady_clock;

/// Fastest of `tries` timed calls of `f`. One call that no other thread
/// preempted is enough to show a bound that holds on every call.
template <class F>
steady_clock::duration fastest_of(int tries, F&& f) {
  auto best = steady_clock::duration::max();
  for (int i = 0; i < tries; ++i) {
    const auto t0 = steady_clock::now();
    f();
    best = std::min(best, steady_clock::now() - t0);
  }
  return best;
}

TEST(Event, DefaultConstructedIsTriviallyReady) {
  Event e;
  EXPECT_TRUE(e.ready());
  e.wait();  // returns immediately, no stream attached
  e.wait();
}

TEST(Event, WaitObservesEveryTaskEnqueuedBeforeRecord) {
  Device dev;
  Stream& s = dev.stream();
  std::atomic<int> done{0};
  for (int i = 0; i < 8; ++i)
    s.enqueue("tick", [&done] { done.fetch_add(1); });
  Event e = s.record();
  e.wait();
  // The event's ticket is the eighth task's: it retires after all eight.
  EXPECT_EQ(done.load(), 8);
  s.synchronize();
}

TEST(Event, WaitBeforeMarkerRunsBlocksUntilRecorded) {
  Device dev;
  Stream& s = dev.stream();
  std::atomic<bool> release{false};
  std::atomic<bool> task_ran{false};
  s.enqueue("gate", [&] {
    while (!release.load()) std::this_thread::yield();
    task_ran.store(true);
  });
  Event e = s.record();  // the gated task's ticket
  EXPECT_FALSE(e.ready()) << "the gated task cannot have retired while the gate blocks";

  std::atomic<bool> waiter_done{false};
  std::thread waiter([&] {
    e.wait();
    // The wait returning proves the gated task finished first.
    EXPECT_TRUE(task_ran.load());
    waiter_done.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_FALSE(waiter_done.load()) << "wait() must block until the gated task retires";
  release.store(true);
  waiter.join();
  EXPECT_TRUE(waiter_done.load());
  s.synchronize();
}

TEST(Event, DoubleWaitAndReadyAreIdempotent) {
  Device dev;
  Stream& s = dev.stream();
  std::atomic<int> runs{0};
  s.enqueue("once", [&runs] { runs.fetch_add(1); });
  Event e = s.record();
  e.wait();
  e.wait();  // second wait is a no-op, not a hang or re-execution
  EXPECT_TRUE(e.ready());
  EXPECT_TRUE(e.ready());
  EXPECT_EQ(runs.load(), 1);
  // A copy shares the recorded state.
  Event copy = e;
  EXPECT_TRUE(copy.ready());
  copy.wait();
  s.synchronize();
}

TEST(Event, RecordEnqueuesNothing) {
  Device dev;
  Stream& s = dev.stream();
  Event before = s.record();  // ticket 0: nothing enqueued yet
  EXPECT_TRUE(before.ready());
  s.enqueue("tick", [] {});
  for (int i = 0; i < 4; ++i) (void)s.record();
  s.synchronize();
  EXPECT_EQ(s.tasks_executed(), 1u) << "an Event is a ticket, not a task";
}

TEST(Event, OutlivesItsStream) {
  Event e;
  {
    Stream s;
    s.enqueue("tick", [] {});
    e = s.record();
  }
  EXPECT_TRUE(e.ready());
  EXPECT_TRUE(e.wait_for(std::chrono::seconds(0)));
  EXPECT_FALSE(e.doomed());
}

TEST(Event, DoomedOnlyWhenKilledBeforeItsTicketRetired) {
  Device dev;
  Stream& s = dev.stream();
  s.enqueue("done", [] {});
  const Event retired = s.record();
  retired.wait();
  std::atomic<bool> release{false};
  std::atomic<int> ran{0};
  s.enqueue("gate", [&] {
    while (!release.load()) std::this_thread::yield();
  });
  const Event gated = s.record();
  s.enqueue("discarded", [&] { ran.fetch_add(1); });
  const Event queued = s.record();
  s.kill();  // the gate is executing, the next task is still queued
  release.store(true);
  EXPECT_TRUE(queued.wait_for(std::chrono::seconds(10)));
  EXPECT_TRUE(gated.ready());
  EXPECT_EQ(ran.load(), 0) << "a killed stream discards queued work";
  EXPECT_FALSE(retired.doomed()) << "its ticket retired before the kill";
  EXPECT_TRUE(gated.doomed()) << "the kill came before the gate retired";
  EXPECT_TRUE(queued.doomed());
  EXPECT_FALSE(Event{}.doomed());
  s.synchronize();
}

TEST(Event, WaitEventOrdersAcrossStreams) {
  Device dev;
  Stream& a = dev.stream();
  Stream b(&dev);
  std::atomic<int> value{0};
  std::atomic<bool> release{false};
  a.enqueue("producer", [&] {
    while (!release.load()) std::this_thread::yield();
    value.store(7);
  });
  Event produced = a.record();
  b.wait_event(produced);
  std::atomic<int> seen{-1};
  b.enqueue("consumer", [&] { seen.store(value.load()); });
  release.store(true);
  b.synchronize();
  EXPECT_EQ(seen.load(), 7) << "wait_event must delay the consumer stream";
  a.synchronize();
}

// ---- spin-then-park ----------------------------------------------------------

TEST(Event, WaitForShorterThanTheSpinWindowTimesOutWithoutAnEdge) {
  if (check::compiled_in()) check::set_active(true);
  Device dev;
  Stream& s = dev.stream();
  DeviceMatrix<double> d_a(dev, 4, 4, "event_test.d_a");
  Matrix<double> a(4, 4);
  std::atomic<bool> release{false};
  s.enqueue("gate", [&release] {
    while (!release.load()) std::this_thread::yield();
  });
  copy_h2d_async(s, a.view(), d_a.view());  // in flight behind the gate
  const Event shipped = s.record();
  // A waiter that spun the whole window would take at least that long on
  // every call; one bounded by its timeout returns sooner on most.
  bool any = false;
  const auto fastest = fastest_of(20, [&] {
    any = any || shipped.wait_for(std::chrono::microseconds(1));
  });
  EXPECT_FALSE(any);
  EXPECT_LT(fastest, detail::kSpinWindow / 2);
  if (check::compiled_in()) {
    // No edge: the transfer is still in flight, so touching its source races.
    check::ExpectViolations ex;
    a(0, 0) = 1.0;
    const auto vs = ex.taken();
    ASSERT_FALSE(vs.empty());
    EXPECT_EQ(vs[0].kind, check::ViolationKind::TransferRace);
  }
  release.store(true);
  s.synchronize();
}

TEST(Event, ReadyOnAnUnretiredTicketReturnsAtOnce) {
  Device dev;
  Stream& s = dev.stream();
  std::atomic<bool> release{false};
  s.enqueue("gate", [&release] {
    while (!release.load()) std::this_thread::yield();
  });
  const Event gated = s.record();
  bool any = false;
  const auto fastest = fastest_of(20, [&] { any = any || gated.ready(); });
  EXPECT_FALSE(any);
  EXPECT_LT(fastest, detail::kSpinWindow / 2) << "ready() must not spin";
  release.store(true);
  gated.wait();
  EXPECT_TRUE(gated.ready());
  s.synchronize();
}

// ---- the U2 race, reproduced deterministically ------------------------------

TEST(Event, MissingWaitIsACheckerViolationNotATimingBug) {
  if (!check::compiled_in()) GTEST_SKIP() << "checker compiled out of this build";
  check::set_active(true);
  Device dev;
  Stream& s = dev.stream();
  DeviceMatrix<double> d_u2(dev, 16, 16, "event_test.d_u2");
  Matrix<double> pivots(16, 16);

  // Buggy shape (the original U2 race): ship the operand, then update the
  // host copy without waiting. Flagged on every run — the transfer stays
  // live until the host observes an ordering edge, so detection does not
  // depend on whether the worker already finished the memcpy.
  copy_h2d_async(s, pivots.view(), d_u2.view());
  {
    check::ExpectViolations ex;
    pivots(0, 0) = 1.0;
    const auto vs = ex.taken();
    ASSERT_FALSE(vs.empty());
    EXPECT_EQ(vs[0].kind, check::ViolationKind::TransferRace);
    EXPECT_STREQ(vs[0].task_label, "h2d");
    EXPECT_STREQ(vs[0].alloc_site, "event_test.d_u2");
  }
  s.synchronize();

  // Fixed shape (ft_gebrd's operands_shipped pattern): record + wait, then
  // the host write is ordered after the transfer and nothing fires.
  copy_h2d_async(s, pivots.view(), d_u2.view());
  Event operands_shipped = s.record();
  operands_shipped.wait();
  const auto before = check::violation_count();
  pivots(0, 0) = 2.0;
  EXPECT_EQ(check::violation_count(), before);
  s.synchronize();
}

}  // namespace
}  // namespace fth::hybrid
