// Stream/event semantics: FIFO ordering, synchronization, exceptions,
// cross-stream dependencies, and the worker's spin-then-park idle wait
// (hybrid/spin.hpp): it spins only while every spinner has a core, parked
// past its window it still wakes, and kill() or the destructor during a
// spin still drain and join.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "hybrid/spin.hpp"
#include "hybrid/stream.hpp"

namespace fth::hybrid {
namespace {

TEST(Stream, ExecutesTasksInOrder) {
  Stream s;
  std::vector<int> order;
  for (int i = 0; i < 100; ++i) {
    s.enqueue([&order, i] { order.push_back(i); });
  }
  s.synchronize();
  ASSERT_EQ(order.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  EXPECT_EQ(s.tasks_executed(), 100u);
}

TEST(Stream, SynchronizeWaitsForCompletion) {
  Stream s;
  std::atomic<bool> done{false};
  s.enqueue([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    done = true;
  });
  s.synchronize();
  EXPECT_TRUE(done.load());
}

TEST(Stream, SynchronizeRethrowsFirstTaskError) {
  Stream s;
  s.enqueue([] { throw std::runtime_error("first"); });
  s.enqueue([] { throw std::runtime_error("second"); });
  try {
    s.synchronize();
    FAIL() << "expected exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "first");
  }
  // Error is cleared; subsequent synchronizes succeed.
  s.enqueue([] {});
  EXPECT_NO_THROW(s.synchronize());
}

TEST(Stream, TasksAfterErrorStillRun) {
  Stream s;
  std::atomic<bool> later_ran{false};
  s.enqueue([] { throw std::logic_error("boom"); });
  s.enqueue([&] { later_ran = true; });
  EXPECT_THROW(s.synchronize(), std::logic_error);
  EXPECT_TRUE(later_ran.load());
}

TEST(Stream, NullTaskRejected) {
  Stream s;
  EXPECT_THROW(s.enqueue(nullptr), fth::precondition_error);
}

TEST(Event, DefaultEventIsReady) {
  Event e;
  EXPECT_TRUE(e.ready());
  e.wait();  // must not block
}

TEST(Event, RecordsCompletionPoint) {
  Stream s;
  std::atomic<int> stage{0};
  s.enqueue([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    stage = 1;
  });
  Event e = s.record();
  EXPECT_FALSE(e.ready());  // the sleeping task has not retired yet
  e.wait();
  EXPECT_EQ(stage.load(), 1);
  EXPECT_TRUE(e.ready());
  // A bounded waiter that outlasts its spin window is woken just the same.
  s.enqueue([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    stage = 2;
  });
  ASSERT_TRUE(s.record().wait_for(std::chrono::seconds(10)));
  EXPECT_EQ(stage.load(), 2);
}

TEST(Event, CrossStreamDependency) {
  Stream producer;
  Stream consumer;
  std::atomic<int> value{0};
  producer.enqueue([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    value = 42;
  });
  Event ready = producer.record();
  consumer.wait_event(ready);
  int seen = -1;
  consumer.enqueue([&] { seen = value.load(); });
  consumer.synchronize();
  EXPECT_EQ(seen, 42);
}

TEST(Stream, HostOverlapsWithStreamWork) {
  // The FT driver's pattern: enqueue device work, do host work, then wait
  // on an event — host work must not be serialized behind the stream.
  Stream s;
  std::atomic<bool> device_running{false};
  std::atomic<bool> host_saw_device_running{false};
  s.enqueue([&] {
    device_running = true;
    std::this_thread::sleep_for(std::chrono::milliseconds(80));
    device_running = false;
  });
  Event e = s.record();
  // Host-side "overlapped" work.
  for (int spin = 0; spin < 1000 && !device_running.load(); ++spin) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  if (device_running.load()) host_saw_device_running = true;
  e.wait();
  EXPECT_TRUE(host_saw_device_running.load());
}

TEST(Stream, DestructorDrainsCleanly) {
  std::atomic<int> count{0};
  {
    Stream s;
    for (int i = 0; i < 10; ++i) s.enqueue([&] { ++count; });
    s.synchronize();
  }  // destructor joins
  EXPECT_EQ(count.load(), 10);
}

TEST(Stream, ManySmallTasksStress) {
  Stream s;
  std::atomic<long> sum{0};
  constexpr int kTasks = 5000;
  for (int i = 0; i < kTasks; ++i) s.enqueue([&sum, i] { sum += i; });
  s.synchronize();
  EXPECT_EQ(sum.load(), static_cast<long>(kTasks) * (kTasks - 1) / 2);
}

TEST(Stream, HandoffSpinsOnlyWhileEverySpinnerHasACore) {
  EXPECT_EQ(detail::spin_window(2, 4), detail::kSpinWindow) << "1 worker + host on 4 cores";
  EXPECT_EQ(detail::spin_window(4, 4), detail::kSpinWindow) << "3 workers + host on 4 cores";
  EXPECT_EQ(detail::spin_window(4, 2), std::chrono::nanoseconds::zero());
  EXPECT_EQ(detail::spin_window(2, 1), std::chrono::nanoseconds::zero());
  EXPECT_GE(detail::cores(), 1);
}

TEST(Stream, WorkerParkedPastItsSpinWindowWakesOnEnqueue) {
  Stream s;
  std::atomic<int> runs{0};
  for (int i = 0; i < 5; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));  // the worker parks
    s.enqueue("tick", [&runs] { runs.fetch_add(1); });
    ASSERT_TRUE(s.record().wait_for(std::chrono::seconds(10)))
        << "a parked worker missed the enqueue";
  }
  EXPECT_EQ(runs.load(), 5);
  s.synchronize();
}

TEST(Stream, KillAndDestroyWhileTheWorkerSpins) {
  // Right after a synchronize() the worker spins for the next task.
  for (int i = 0; i < 50; ++i) {
    std::atomic<int> runs{0};
    {
      Stream s;
      s.enqueue("tick", [&runs] { runs.fetch_add(1); });
      s.synchronize();
      if (i % 2 == 1) {
        s.kill();
        s.enqueue("discarded", [&runs] { runs.fetch_add(1); });
        ASSERT_TRUE(s.record().wait_for(std::chrono::seconds(10)));
      }
    }  // the destructor stops the spin and joins
    EXPECT_EQ(runs.load(), 1);
  }
}

TEST(Stream, KillAndDestroyWhileAWaiterSpins) {
  // A host thread spins on a ticket while the stream is killed and
  // destroyed under it: the worker drains, the ticket retires, the waiter
  // returns.
  for (int i = 0; i < 50; ++i) {
    auto s = std::make_unique<Stream>();
    s->enqueue("busy", [] {
      const auto until = std::chrono::steady_clock::now() + std::chrono::microseconds(20);
      while (std::chrono::steady_clock::now() < until) {
      }
    });
    s->enqueue("queued", [] {});
    const Event e = s->record();
    std::atomic<bool> answered{false};
    std::thread waiter([&] { answered.store(e.wait_for(std::chrono::seconds(10))); });
    if (i % 2 == 0) s->kill();
    s.reset();
    waiter.join();
    EXPECT_TRUE(answered.load());
    EXPECT_TRUE(e.ready());
    if (i % 2 == 1) {
      EXPECT_FALSE(e.doomed()) << "only a kill dooms an Event";
    }
  }
}

}  // namespace
}  // namespace fth::hybrid
