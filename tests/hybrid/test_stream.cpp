// Stream/event semantics: FIFO ordering, synchronization, exceptions,
// cross-stream dependencies.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "common/error.hpp"
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

}  // namespace
}  // namespace fth::hybrid
