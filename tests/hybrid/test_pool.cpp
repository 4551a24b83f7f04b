// DevicePool: D independent simulated devices with cross-device Event
// edges, per-ordinal memory identity, and the mark_lost quarantine the
// device-loss recovery protocol builds on (DESIGN.md §13).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include "check/access.hpp"
#include "hybrid/pool.hpp"

namespace fth::hybrid {
namespace {

using namespace std::chrono_literals;

TEST(DevicePool, MembersAreIndependentDevicesWithTheirOwnOrdinals) {
  DevicePool pool({.devices = 3});
  ASSERT_EQ(pool.size(), 3);
  for (int d = 0; d < 3; ++d) {
    EXPECT_EQ(pool.device(d).config().ordinal, d);
    EXPECT_FALSE(pool.lost(d));
  }
  EXPECT_NE(&pool.stream(0), &pool.stream(1));
  EXPECT_EQ(pool.lost_count(), 0);
}

TEST(DevicePool, MembersRunConcurrentlyNotSerialized) {
  // Two members blocked on each other's side channel deadlock if the pool
  // shares one worker; with independent workers both tasks finish.
  DevicePool pool({.devices = 2});
  std::mutex m;
  std::condition_variable cv;
  int arrived = 0;
  auto rendezvous = [&] {
    std::unique_lock<std::mutex> lk(m);
    ++arrived;
    cv.notify_all();
    cv.wait(lk, [&] { return arrived == 2; });
  };
  pool.stream(0).enqueue("test.rendezvous", rendezvous);
  pool.stream(1).enqueue("test.rendezvous", rendezvous);
  pool.stream(0).synchronize();
  pool.stream(1).synchronize();
  EXPECT_EQ(arrived, 2);
}

TEST(DevicePool, CrossDeviceWaitEventOrdersConsumerAfterProducer) {
  DevicePool pool({.devices = 2});
  std::atomic<int> stage{0};
  pool.stream(0).enqueue("test.producer", [&] {
    std::this_thread::sleep_for(20ms);
    stage.store(1);
  });
  const Event done = pool.stream(0).record();
  pool.stream(1).wait_event(done);
  int seen = -1;
  pool.stream(1).enqueue("test.consumer", [&] { seen = stage.load(); });
  pool.stream(1).synchronize();
  EXPECT_EQ(seen, 1) << "consumer ran before the producer's Event";
  pool.stream(0).synchronize();
}

TEST(DevicePool, WaitForTimesOutOnABusyStreamThenSucceeds) {
  DevicePool pool({.devices = 1});
  std::mutex m;
  std::condition_variable cv;
  bool release = false;
  pool.stream(0).enqueue("test.slow", [&] {
    std::unique_lock<std::mutex> lk(m);
    cv.wait(lk, [&] { return release; });
  });
  const Event done = pool.stream(0).record();
  EXPECT_FALSE(done.wait_for(10ms)) << "timeout must not claim the edge";
  {
    std::lock_guard<std::mutex> lk(m);
    release = true;
  }
  cv.notify_all();
  EXPECT_TRUE(done.wait_for(5s));
  pool.stream(0).synchronize();
}

TEST(DevicePool, MarkLostDiscardsQueuedWorkButCompletesEventMarkers) {
  DevicePool pool({.devices = 2});
  std::mutex m;
  std::condition_variable cv;
  bool release = false;
  std::atomic<int> ran{0};
  Stream& s = pool.stream(1);
  s.enqueue("test.gate", [&] {
    std::unique_lock<std::mutex> lk(m);
    cv.wait(lk, [&] { return release; });
  });
  s.enqueue("test.doomed", [&] { ran.fetch_add(1); });
  const Event queued = s.record();
  pool.mark_lost(1);
  {
    std::lock_guard<std::mutex> lk(m);
    release = true;
  }
  cv.notify_all();
  // The Event must complete (host waits cannot hang on a dead member) and
  // read doomed…
  EXPECT_TRUE(queued.wait_for(5s));
  EXPECT_TRUE(queued.doomed());
  // …while the queued compute task was discarded, and the ledger updated.
  EXPECT_EQ(ran.load(), 0);
  EXPECT_TRUE(pool.lost(1));
  EXPECT_EQ(pool.lost_count(), 1);
  // Quarantine is idempotent and future work is refused silently.
  pool.mark_lost(1);
  s.enqueue("test.after_death", [&] { ran.fetch_add(1); });
  s.synchronize();
  EXPECT_EQ(ran.load(), 0);
  EXPECT_FALSE(pool.lost(0)) << "quarantine must not leak across members";
}

// ---- per-ordinal memory identity (fth::check) -------------------------------

#define SKIP_UNLESS_CHECKED()                               \
  do {                                                      \
    if (!fth::check::compiled_in())                         \
      GTEST_SKIP() << "checker compiled out of this build"; \
    fth::check::set_active(true);                           \
  } while (0)

TEST(DevicePoolChecker, TaskUnwrappingAnotherOrdinalsMemoryIsFlagged) {
  SKIP_UNLESS_CHECKED();
  DevicePool pool({.devices = 2});
  DeviceMatrix<double> other(pool.device(1), 4, 4, "pool_test.d_other");

  check::ExpectViolations ex;
  pool.stream(0).enqueue("pool_test.cross", [dv = other.view()] {
    (void)dv.in_task()(0, 0);  // device 0 task touching device 1's shard
  });
  pool.stream(0).synchronize();
  const auto vs = ex.taken();
  bool cross = false;
  for (const auto& v : vs)
    if (v.kind == check::ViolationKind::CrossDeviceAccess) cross = true;
  EXPECT_TRUE(cross) << "CrossDeviceAccess not reported";
}

TEST(DevicePoolChecker, SameOrdinalUnwrapStaysViolationFree) {
  SKIP_UNLESS_CHECKED();
  DevicePool pool({.devices = 2});
  DeviceMatrix<double> mine(pool.device(1), 4, 4, "pool_test.d_mine");

  check::ExpectViolations ex;
  pool.stream(1).enqueue("pool_test.local", [dv = mine.view()] {
    dv.in_task()(0, 0) = 1.0;
  });
  pool.stream(1).synchronize();
  EXPECT_TRUE(ex.taken().empty());
}

}  // namespace
}  // namespace fth::hybrid
