// Multi-device sharded Hessenberg reduction (ft::pool_gehrd): clean runs
// must match the host reference at every pool size, a single device loss
// of any kind must be absorbed by the coded redundancy group without
// rollback, and losses beyond the correction radius must escalate
// deterministically (ISSUE 7).
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "fault/fault_plane.hpp"
#include "ft/pool_gehrd.hpp"
#include "obs/health.hpp"
#include "la/generate.hpp"
#include "la/norms.hpp"
#include "lapack/gehrd.hpp"
#include "lapack/verify.hpp"
#include "test_utils.hpp"

namespace fth::ft {
namespace {

VectorView<double> tau_view(std::vector<double>& tau) {
  return VectorView<double>(tau.data(), static_cast<index_t>(tau.size()));
}
VectorView<const double> tau_cview(const std::vector<double>& tau) {
  return VectorView<const double>(tau.data(), static_cast<index_t>(tau.size()));
}

// ---- clean runs across pool geometries --------------------------------------

class PoolParam : public ::testing::TestWithParam<std::tuple<index_t, index_t, int>> {};

TEST_P(PoolParam, MatchesHostReduction) {
  const auto [n, nb, devices] = GetParam();
  hybrid::DevicePool pool({.devices = devices});
  Matrix<double> a = random_matrix(n, n, 3 * static_cast<std::uint64_t>(n) + devices);
  Matrix<double> orig(a.cview());
  Matrix<double> host(a.cview());

  std::vector<double> tau_h(static_cast<std::size_t>(n - 1));
  lapack::gehrd(host.view(), tau_view(tau_h), {.nb = nb, .nx = nb});

  std::vector<double> tau(static_cast<std::size_t>(n - 1));
  PoolGehrdReport rep;
  pool_gehrd(pool, a.view(), tau_view(tau), {.nb = nb, .nx = nb}, &rep);

  EXPECT_EQ(rep.outcome.status, RecoveryStatus::Clean);
  EXPECT_EQ(rep.devices, devices);
  EXPECT_EQ(rep.data_shards, devices > 1 ? devices - 1 : 1);
  EXPECT_EQ(rep.losses, 0);
  EXPECT_FALSE(rep.degraded);
  // Same panel math as the host algorithm: agreement to reassociation
  // roundoff, like hybrid_gehrd.
  EXPECT_LT(max_abs_diff(a.cview(), host.cview()), 1e-10);
  auto v = lapack::verify_reduction(orig.cview(), a.cview(), tau_cview(tau));
  EXPECT_TRUE(v.hessenberg);
  EXPECT_LT(v.residual, 1e-14);
  EXPECT_LT(v.orthogonality, 1e-13);
}

INSTANTIATE_TEST_SUITE_P(SizesBlocksDevices, PoolParam,
                         ::testing::Values(std::tuple<index_t, index_t, int>{96, 16, 1},
                                           std::tuple<index_t, index_t, int>{96, 16, 3},
                                           std::tuple<index_t, index_t, int>{130, 16, 2},
                                           std::tuple<index_t, index_t, int>{130, 32, 4},
                                           std::tuple<index_t, index_t, int>{250, 32, 3}));

TEST(PoolGehrd, SmallMatrixFallsBackToHost) {
  hybrid::DevicePool pool({.devices = 3});
  const index_t n = 24;
  Matrix<double> a = random_matrix(n, n, 9);
  Matrix<double> orig(a.cview());
  std::vector<double> tau(static_cast<std::size_t>(n - 1));
  PoolGehrdReport rep;
  pool_gehrd(pool, a.view(), tau_view(tau), {.nb = 32, .nx = 128}, &rep);
  EXPECT_EQ(rep.outcome.status, RecoveryStatus::Clean);
  auto v = lapack::verify_reduction(orig.cview(), a.cview(), tau_cview(tau));
  EXPECT_LT(v.residual, 1e-14);
}

// ---- single-loss recovery ---------------------------------------------------

/// Where the driver catches the loss, which fixes the expected
/// panel_retries: a loss caught during the panel/Y-top phase restarts the
/// iteration from its checkpoint once; one caught at the update boundary
/// needs no retry. Every kind is caught by the first wait or verify task
/// queued behind the struck task: a hard death dooms the Events covering
/// it, so the phase is the same on every run.
enum class CaughtIn { Panel, Boundary };

struct LossCase {
  fault::LossKind kind;
  int device;               ///< pool ordinal struck (2 = parity at D=3)
  std::uint32_t countdown;  ///< post-encode tasks on that member before firing
  CaughtIn caught;          ///< phase that detects the loss
};

/// The case's test name, e.g. HardDeath_m0_c9_Panel: loss kind, struck
/// member, countdown, and the phase that catches the loss.
std::string loss_case_name(const ::testing::TestParamInfo<LossCase>& info) {
  const LossCase& lc = info.param;
  const char* kind = lc.kind == fault::LossKind::HardDeath      ? "HardDeath"
                     : lc.kind == fault::LossKind::PoisonOutput ? "PoisonOutput"
                                                                : "SilentStall";
  return std::string(kind) + "_m" + std::to_string(lc.device) + "_c" +
         std::to_string(lc.countdown) + (lc.caught == CaughtIn::Panel ? "_Panel" : "_Boundary");
}

class PoolLoss : public ::testing::TestWithParam<LossCase> {};

TEST_P(PoolLoss, OneLossIsAbsorbedWithoutRollback) {
  const LossCase lc = GetParam();
  const index_t n = 160;
  hybrid::DevicePool pool({.devices = 3});
  Matrix<double> a = random_matrix(n, n, 42);
  Matrix<double> orig(a.cview());
  Matrix<double> host(a.cview());
  std::vector<double> tau_h(static_cast<std::size_t>(n - 1));
  lapack::gehrd(host.view(), tau_view(tau_h), {.nb = 16, .nx = 16});

  fault::FaultPlane plane(0xD15EA5Eull);
  plane.arm_device_loss({.kind = lc.kind, .device = lc.device, .countdown = lc.countdown});

  std::vector<double> tau(static_cast<std::size_t>(n - 1));
  PoolGehrdReport rep;
  PoolGehrdOptions opt{.nb = 16, .nx = 16, .plane = &plane};
  if (lc.kind == fault::LossKind::SilentStall) opt.timeout_ms = 250.0;
  pool_gehrd(pool, a.view(), tau_view(tau), opt, &rep);

  ASSERT_EQ(plane.fired_losses().size(), 1u) << "the strike never fired";
  EXPECT_EQ(rep.outcome.status, RecoveryStatus::Recovered);
  EXPECT_EQ(rep.losses, 1);
  EXPECT_TRUE(rep.degraded);
  EXPECT_EQ(rep.lost_device, lc.device);
  EXPECT_EQ(rep.panel_retries, lc.caught == CaughtIn::Panel ? 1 : 0);
  if (lc.device == 2) {
    // Parity member: nothing to reconstruct, the group just degrades.
    EXPECT_EQ(rep.reconstructions, 0);
    EXPECT_EQ(rep.remaps, 0);
  } else {
    EXPECT_EQ(rep.reconstructions, 1);
    EXPECT_EQ(rep.remaps, 1);
  }

  // The survivors + code gave back the exact factorization: same bar as a
  // clean run, no fault-shaped error left behind.
  EXPECT_LT(max_abs_diff(a.cview(), host.cview()), 1e-10);
  auto v = lapack::verify_reduction(orig.cview(), a.cview(), tau_cview(tau));
  EXPECT_TRUE(v.hessenberg);
  EXPECT_LT(v.residual, 1e-14);
}

// CI repeats the HardDeath cases 20 times by parameter index (0, 1, 7, 8):
// keep them at these positions.
INSTANTIATE_TEST_SUITE_P(
    KindsAndMembers, PoolLoss,
    ::testing::Values(LossCase{fault::LossKind::HardDeath, 0, 9, CaughtIn::Panel},
                      LossCase{fault::LossKind::HardDeath, 2, 4, CaughtIn::Panel},
                      LossCase{fault::LossKind::PoisonOutput, 1, 7, CaughtIn::Panel},
                      LossCase{fault::LossKind::PoisonOutput, 0, 25, CaughtIn::Panel},
                      LossCase{fault::LossKind::SilentStall, 1, 12, CaughtIn::Panel},
                      LossCase{fault::LossKind::SilentStall, 2, 6, CaughtIn::Boundary},
                      LossCase{fault::LossKind::PoisonOutput, 2, 12, CaughtIn::Boundary},
                      LossCase{fault::LossKind::HardDeath, 0, 65, CaughtIn::Boundary},
                      LossCase{fault::LossKind::HardDeath, 2, 13, CaughtIn::Boundary}),
    loss_case_name);

// ---- health plane: slow-but-alive is never a loss ---------------------------

// ISSUE 8 satellite: a member whose tasks land just under the timeout must
// NOT be declared lost — the health monitor reads it as Degraded (a
// near-miss) and the run stays Clean. Member 1 stalls 80 ms on every 32nd
// task against a 150 ms allowance, so several host waits land in the
// near-miss band (≥ 30% of the allowance) without ever timing out. Runs
// under FTH_CHECK=1 with the rest of the Debug suite.
TEST(PoolHealth, SlowButAliveMemberIsDegradedNotLost) {
  const index_t n = 96;
  const int devices = 3;
  hybrid::DevicePool pool({.devices = devices});
  pool.stream(1).set_task_hook([](std::uint64_t idx) {
    if (idx % 32 == 0) std::this_thread::sleep_for(std::chrono::milliseconds(80));
  });

  obs::HealthConfig hc;
  hc.base_timeout_ms = 150.0;  // the 80 ms stall stays under the allowance
  hc.adaptive = false;         // pin it: the near-miss band must be exact
  hc.degraded_frac = 0.3;      // stalled waits (~80 ms ≥ 45 ms) are near-misses
  hc.degraded_hold = 1 << 20;  // keep Degraded sticky for the final assertion
  obs::HealthMonitor health(devices, hc);

  Matrix<double> a = random_matrix(n, n, 1234);
  Matrix<double> orig(a.cview());
  std::vector<double> tau(static_cast<std::size_t>(n - 1));
  PoolGehrdReport rep;
  PoolGehrdOptions opt{.nb = 16, .nx = 16};
  opt.health = &health;
  pool_gehrd(pool, a.view(), tau_view(tau), opt, &rep);

  EXPECT_EQ(rep.outcome.status, RecoveryStatus::Clean) << "a slow member is not a loss";
  EXPECT_EQ(rep.losses, 0);
  EXPECT_FALSE(rep.degraded) << "the redundancy group keeps its parity member";
  EXPECT_NE(health.state(1), obs::DeviceState::Lost);
  EXPECT_EQ(health.state(1), obs::DeviceState::Degraded);
  EXPECT_GE(health.snapshot(1).near_misses, 1u);
  EXPECT_EQ(health.state(0), obs::DeviceState::Healthy);
  EXPECT_EQ(health.snapshot(1).timeouts, 0u);
  ASSERT_EQ(rep.health.size(), static_cast<std::size_t>(devices));
  EXPECT_EQ(rep.health[1].state, obs::DeviceState::Degraded);

  auto v = lapack::verify_reduction(orig.cview(), a.cview(), tau_cview(tau));
  EXPECT_TRUE(v.hessenberg);
  EXPECT_LT(v.residual, 1e-14);
}

// ---- escalation beyond the correction radius --------------------------------

TEST(PoolLossEscalation, TwoLossesInOneGroupEscalateDeterministically) {
  const index_t n = 130;
  hybrid::DevicePool pool({.devices = 3});
  Matrix<double> a = random_matrix(n, n, 77);
  fault::FaultPlane plane;
  plane.arm_device_loss({.kind = fault::LossKind::HardDeath, .device = 0, .countdown = 8});
  plane.arm_device_loss({.kind = fault::LossKind::HardDeath, .device = 1, .countdown = 30});

  std::vector<double> tau(static_cast<std::size_t>(n - 1));
  PoolGehrdReport rep;
  EXPECT_THROW(
      pool_gehrd(pool, a.view(), tau_view(tau), {.nb = 16, .nx = 16, .plane = &plane}, &rep),
      recovery_error);
  EXPECT_EQ(rep.outcome.status, RecoveryStatus::Unrecoverable);
  EXPECT_EQ(rep.outcome.reason, AbortReason::DeviceLost);
  EXPECT_GE(rep.losses, 1);
}

TEST(PoolLossEscalation, SingleDevicePoolHasNoRedundancyToSpend) {
  const index_t n = 96;
  hybrid::DevicePool pool({.devices = 1});
  Matrix<double> a = random_matrix(n, n, 5);
  fault::FaultPlane plane;
  plane.arm_device_loss({.kind = fault::LossKind::HardDeath, .device = 0, .countdown = 6});

  std::vector<double> tau(static_cast<std::size_t>(n - 1));
  PoolGehrdReport rep;
  EXPECT_THROW(
      pool_gehrd(pool, a.view(), tau_view(tau), {.nb = 16, .nx = 16, .plane = &plane}, &rep),
      recovery_error);
  EXPECT_EQ(rep.outcome.reason, AbortReason::DeviceLost);
}

}  // namespace
}  // namespace fth::ft
