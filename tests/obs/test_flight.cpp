// fth::obs flight recorder: bounded per-thread rings (newest events win),
// multi-thread capacity enforcement, and the automatic dump when a
// recovery escalates to a structured abort (recovery_error). Dumps are
// parsed back with the repo's json reader and checked against the trace
// format the post-mortem tools expect.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/json.hpp"
#include "fault/injector.hpp"
#include "ft/ft_gehrd.hpp"
#include "la/generate.hpp"
#include "obs/trace.hpp"
#include "test_utils.hpp"

namespace fth {
namespace {

std::string temp_path(const char* name) { return ::testing::TempDir() + name; }

/// Arm FTH_FLIGHT_PATH for one test and clean up the previous dump.
void set_dump_path(const std::string& path) {
  ::setenv("FTH_FLIGHT_PATH", path.c_str(), 1);
  std::remove(path.c_str());
}

struct DumpSummary {
  std::map<double, std::size_t> events_per_tid;  // non-metadata, non-"flight"
  std::string reason;
  std::vector<std::string> names;  // in file order
};

DumpSummary parse_dump(const std::string& path) {
  DumpSummary out;
  const json::Value root = json::parse_file(path);
  const json::Value& events = root.at("traceEvents");
  double last_ts = -1.0;
  for (const json::Value& ev : events.as_array()) {
    const std::string& ph = ev.at("ph").as_string();
    if (ph == "M") continue;
    const double ts = ev.at("ts").as_number();
    EXPECT_GE(ts, last_ts) << "dump must be sorted by timestamp";
    last_ts = ts;
    if (ph != "E" && ev.find("cat") != nullptr && ev.at("cat").as_string() == "flight") {
      out.reason = ev.at("name").as_string();
      continue;
    }
    out.events_per_tid[ev.at("tid").as_number()]++;
    if (ph != "E") out.names.push_back(ev.at("name").as_string());
  }
  return out;
}

TEST(Flight, RingKeepsOnlyNewestEvents) {
  constexpr std::size_t kCapacity = 32;
  const std::string path = temp_path("fth_flight_wrap.json");
  set_dump_path(path);
  obs::flight_start(kCapacity);
  ASSERT_TRUE(obs::flight_active());
  ASSERT_TRUE(obs::trace_enabled()) << "an armed flight ring is a live sink";

  constexpr int kEvents = 200;  // > capacity: the ring must wrap repeatedly
  for (int i = 0; i < kEvents; ++i) {
    obs::instant("test", obs::intern_name("e" + std::to_string(i)));
  }
  const std::string dumped = obs::flight_dump("wrap-test");
  obs::flight_stop();
  EXPECT_FALSE(obs::flight_active());
  ASSERT_EQ(dumped, path);

  const DumpSummary sum = parse_dump(path);
  EXPECT_EQ(sum.reason, "wrap-test");
  ASSERT_EQ(sum.events_per_tid.size(), 1u);
  EXPECT_EQ(sum.events_per_tid.begin()->second, kCapacity);
  // Newest-wins: exactly the last kCapacity instants, oldest-first.
  ASSERT_EQ(sum.names.size(), kCapacity);
  for (std::size_t i = 0; i < kCapacity; ++i) {
    EXPECT_EQ(sum.names[i], "e" + std::to_string(kEvents - kCapacity + i));
  }
}

TEST(Flight, PerThreadCapacityUnderConcurrency) {
  constexpr std::size_t kCapacity = 50;
  constexpr int kThreads = 3, kSpans = 100;  // 200 events per thread
  const std::string path = temp_path("fth_flight_mt.json");
  set_dump_path(path);
  obs::flight_start(kCapacity);

  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([] {
      for (int i = 0; i < kSpans; ++i) {
        obs::TraceSpan span("test", "mt-span");
      }
    });
  }
  for (auto& w : workers) w.join();

  const std::string dumped = obs::flight_dump("mt-test");
  obs::flight_stop();
  ASSERT_EQ(dumped, path);

  const DumpSummary sum = parse_dump(path);
  EXPECT_EQ(sum.reason, "mt-test");
  // Every worker filled its ring; no track may exceed the per-thread bound.
  EXPECT_GE(sum.events_per_tid.size(), static_cast<std::size_t>(kThreads));
  for (const auto& [tid, count] : sum.events_per_tid) {
    EXPECT_LE(count, kCapacity) << "tid " << tid << " exceeded its ring capacity";
    EXPECT_GT(count, 0u);
  }
}

TEST(Flight, CapacityIsClampedToMinimum) {
  const std::string path = temp_path("fth_flight_clamp.json");
  set_dump_path(path);
  obs::flight_start(1);  // clamped up to 16: a 1-slot ring is useless
  for (int i = 0; i < 40; ++i) {
    obs::instant("test", obs::intern_name("c" + std::to_string(i)));
  }
  ASSERT_EQ(obs::flight_dump("clamp-test"), path);
  obs::flight_stop();
  const DumpSummary sum = parse_dump(path);
  EXPECT_EQ(sum.events_per_tid.begin()->second, 16u);
}

TEST(Flight, DumpWithoutArmedRingIsEmpty) {
  const test::PauseEnvFlight paused;
  ASSERT_FALSE(obs::flight_active());
  EXPECT_EQ(obs::flight_dump("nothing-armed"), "");
}

// The acceptance scenario: a recovery that escalates to a structured abort
// must leave a flight dump behind, without the caller doing anything —
// recovery_error's constructor triggers it.
TEST(Flight, RecoveryAbortAutoDumpsTheRing) {
  const std::string path = temp_path("fth_flight_abort.json");
  set_dump_path(path);
  obs::flight_start(2048);

  // The rectangle pattern: two equal-magnitude faults whose row/column
  // deltas pair both ways, which locate() provably cannot resolve
  // (tests/ft/test_recovery_escalation.cpp studies the escalation itself).
  const index_t n = 96, nb = 32;
  Matrix<double> a0 = random_matrix(n, n, 401);
  std::vector<fault::FaultSpec> specs(2);
  specs[0].row = 50;
  specs[0].col = 60;
  specs[1].row = 70;
  specs[1].col = 80;
  for (auto& s : specs) {
    s.boundary = 1;
    s.magnitude = 1000.0;
    s.relative = false;
  }
  fault::Injector inj(specs, 7);

  hybrid::Device dev;
  Matrix<double> a(a0.cview());
  std::vector<double> tau(static_cast<std::size_t>(n - 1));
  ft::FtOptions opt;
  opt.nb = nb;
  opt.max_retries = 3;
  bool threw = false;
  try {
    ft::ft_gehrd(dev, a.view(), VectorView<double>(tau.data(), n - 1), opt, &inj, nullptr);
  } catch (const recovery_error&) {
    threw = true;
  }
  obs::flight_stop();
  ASSERT_TRUE(threw) << "rectangle pattern must escalate to recovery_error";

  // The dump exists, parses as trace JSON, names its trigger, and holds the
  // FT machinery's last actions before the abort.
  DumpSummary sum;
  ASSERT_NO_THROW(sum = parse_dump(path));
  EXPECT_EQ(sum.reason, "recovery_error");
  std::size_t total = 0;
  bool saw_ft = false;
  for (const auto& [tid, count] : sum.events_per_tid) total += count;
  for (const auto& name : sum.names) {
    if (name == "detection" || name == "rollback" || name == "locate") saw_ft = true;
  }
  EXPECT_GT(total, 0u);
  EXPECT_TRUE(saw_ft) << "the ring should hold the detection/recovery events leading up "
                         "to the abort";
}

}  // namespace
}  // namespace fth
