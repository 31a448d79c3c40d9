#include "sim/faults.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace fela::sim {
namespace {

TEST(NoFaultsTest, InactiveAndAlwaysUp) {
  NoFaults none;
  EXPECT_FALSE(none.Active());
  EXPECT_FALSE(none.IsDownAt(0.0, 0));
  EXPECT_FALSE(none.IsDownAt(1e9, 7));
  EXPECT_EQ(none.NextTransitionAfter(0.0), kNeverTime);
  EXPECT_FALSE(none.DropControl(42));
  EXPECT_FALSE(none.DuplicateControl(42));
}

TEST(ScriptedCrashesTest, HalfOpenDownInterval) {
  ScriptedCrashes faults({CrashEvent{2, 5.0, 10.0}});
  EXPECT_TRUE(faults.Active());
  EXPECT_FALSE(faults.IsDownAt(4.999, 2));
  EXPECT_TRUE(faults.IsDownAt(5.0, 2));
  EXPECT_TRUE(faults.IsDownAt(9.999, 2));
  EXPECT_FALSE(faults.IsDownAt(10.0, 2));
  EXPECT_FALSE(faults.IsDownAt(7.0, 3));  // other workers unaffected
}

TEST(ScriptedCrashesTest, FailStopNeverRecovers) {
  ScriptedCrashes faults({CrashEvent{1, 3.0, kNeverTime}});
  EXPECT_TRUE(faults.IsDownAt(3.0, 1));
  EXPECT_TRUE(faults.IsDownAt(1e12, 1));
  EXPECT_EQ(faults.NextReachableAfter(4.0, 1, 1), kNeverTime);
}

TEST(ScriptedCrashesTest, TransitionsCoverCrashAndRecover) {
  ScriptedCrashes faults({CrashEvent{0, 5.0, 10.0}, CrashEvent{1, 7.0, 8.0}});
  EXPECT_DOUBLE_EQ(faults.NextTransitionAfter(0.0), 5.0);
  EXPECT_DOUBLE_EQ(faults.NextTransitionAfter(5.0), 7.0);
  EXPECT_DOUBLE_EQ(faults.NextTransitionAfter(7.0), 8.0);
  EXPECT_DOUBLE_EQ(faults.NextTransitionAfter(8.0), 10.0);
  EXPECT_EQ(faults.NextTransitionAfter(10.0), kNeverTime);
}

TEST(ScriptedCrashesTest, DerivedHelpers) {
  // Anchored on the worker itself, reachability is just being up.
  ScriptedCrashes faults({CrashEvent{4, 5.0, 10.0}});
  EXPECT_TRUE(faults.AnyUnreachableDuring(0.0, 6.0, 4, 4));
  EXPECT_TRUE(faults.AnyUnreachableDuring(6.0, 7.0, 4, 4));
  EXPECT_FALSE(faults.AnyUnreachableDuring(0.0, 4.0, 4, 4));
  EXPECT_FALSE(faults.AnyUnreachableDuring(10.0, 20.0, 4, 4));
  EXPECT_FALSE(faults.AnyUnreachableDuring(0.0, 20.0, 5, 5));
  EXPECT_DOUBLE_EQ(faults.NextReachableAfter(7.0, 4, 4), 10.0);
  EXPECT_DOUBLE_EQ(faults.NextReachableAfter(2.0, 4, 4), 2.0);  // already up
}

TEST(NetworkPartitionTest, CutWorkerIsUnreachableUntilTheHeal) {
  // Workers 2 and 3 are cut off from the anchor (worker 0) during
  // [5, 10); nobody is ever down.
  NetworkPartition faults({PartitionEvent{5.0, 10.0, {2, 3}}});
  EXPECT_FALSE(faults.AnyUnreachableDuring(0.0, 4.0, 2, 0));
  EXPECT_TRUE(faults.AnyUnreachableDuring(0.0, 6.0, 2, 0));
  EXPECT_TRUE(faults.AnyUnreachableDuring(6.0, 7.0, 2, 0));
  EXPECT_TRUE(faults.AnyUnreachableDuring(9.999, 9.999, 2, 0));
  EXPECT_FALSE(faults.AnyUnreachableDuring(10.0, 20.0, 2, 0));
  EXPECT_DOUBLE_EQ(faults.NextReachableAfter(7.0, 2, 0), 10.0);
  EXPECT_DOUBLE_EQ(faults.NextReachableAfter(2.0, 2, 0), 2.0);
  // The same side of the cut, and the worker itself, stay reachable.
  EXPECT_FALSE(faults.AnyUnreachableDuring(0.0, 20.0, 2, 3));
  EXPECT_FALSE(faults.AnyUnreachableDuring(0.0, 20.0, 2, 2));
  EXPECT_DOUBLE_EQ(faults.NextReachableAfter(7.0, 2, 2), 7.0);
}

TEST(RandomCrashesTest, DeterministicInSeed) {
  RandomCrashes a(8, 0.3, 10.0, 15.0, 123);
  RandomCrashes b(8, 0.3, 10.0, 15.0, 123);
  RandomCrashes c(8, 0.3, 10.0, 15.0, 124);
  int diff = 0;
  for (int w = 0; w < 8; ++w) {
    for (int k = 0; k < 200; ++k) {
      const SimTime t = 0.5 * k;
      EXPECT_EQ(a.IsDownAt(t, w), b.IsDownAt(t, w));
      if (a.IsDownAt(t, w) != c.IsDownAt(t, w)) ++diff;
    }
  }
  EXPECT_GT(diff, 0) << "different seeds should differ somewhere";
}

TEST(RandomCrashesTest, SparesTokenServerHostByDefault) {
  RandomCrashes faults(8, 1.0, 10.0, 5.0, 7);
  for (int k = 0; k < 100; ++k) {
    EXPECT_FALSE(faults.IsDownAt(1.0 * k, 0));
  }
  // p = 1: every other worker is down at every window start.
  EXPECT_TRUE(faults.IsDownAt(0.0, 1));
  EXPECT_TRUE(faults.IsDownAt(10.0, 5));
}

TEST(RandomCrashesTest, ZeroProbabilityNeverCrashes) {
  RandomCrashes faults(8, 0.0, 10.0, 5.0, 7, 0);
  for (int w = 0; w < 8; ++w) {
    for (int k = 0; k < 100; ++k) EXPECT_FALSE(faults.IsDownAt(2.5 * k, w));
  }
  EXPECT_EQ(faults.NextTransitionAfter(0.0), kNeverTime);
}

TEST(RandomCrashesTest, CrashRateTracksProbability) {
  const double p = 0.2;
  RandomCrashes faults(2, p, 10.0, 5.0, 99);
  int crashed_windows = 0;
  const int kWindows = 2000;
  for (int k = 0; k < kWindows; ++k) {
    // Down exactly at the window start iff the window crashed (the 5s
    // downtime cannot spill into the next 10s window).
    if (faults.IsDownAt(10.0 * k, 1)) ++crashed_windows;
  }
  const double rate = static_cast<double>(crashed_windows) / kWindows;
  EXPECT_NEAR(rate, p, 0.05);
}

TEST(RandomCrashesTest, TransitionsNeverMissed) {
  // Walk transitions and cross-check each flip against IsDownAt.
  RandomCrashes faults(4, 0.3, 5.0, 7.0, 42);
  SimTime t = 0.0;
  int flips = 0;
  for (int i = 0; i < 200; ++i) {
    const SimTime next = faults.NextTransitionAfter(t);
    ASSERT_GT(next, t);
    if (next == kNeverTime) break;
    // No state change strictly inside (t, next).
    for (int w = 1; w < 4; ++w) {
      const bool at_t = faults.IsDownAt(t, w);
      EXPECT_EQ(faults.IsDownAt(t + 0.5 * (next - t), w), at_t)
          << "missed a transition for worker " << w << " in (" << t << ", "
          << next << ")";
      if (faults.IsDownAt(next, w) != at_t) ++flips;
    }
    t = next;
  }
  EXPECT_GT(flips, 0);
}

TEST(LossyControlPlaneTest, DeterministicAndRoughlyCalibrated) {
  LossyControlPlane a(0.1, 0.05, 11);
  LossyControlPlane b(0.1, 0.05, 11);
  int drops = 0, dups = 0;
  const int kMsgs = 5000;
  for (uint64_t s = 0; s < kMsgs; ++s) {
    EXPECT_EQ(a.DropControl(s), b.DropControl(s));
    EXPECT_EQ(a.DuplicateControl(s), b.DuplicateControl(s));
    if (a.DropControl(s)) ++drops;
    if (a.DuplicateControl(s)) ++dups;
  }
  EXPECT_NEAR(drops / static_cast<double>(kMsgs), 0.1, 0.02);
  EXPECT_NEAR(dups / static_cast<double>(kMsgs), 0.05, 0.02);
  EXPECT_FALSE(a.IsDownAt(100.0, 3));
}

TEST(CompositeFaultsTest, OrComposition) {
  std::vector<std::unique_ptr<FaultSchedule>> parts;
  parts.push_back(
      std::make_unique<ScriptedCrashes>(
          std::vector<CrashEvent>{CrashEvent{1, 5.0, 10.0}}));
  parts.push_back(std::make_unique<LossyControlPlane>(0.5, 0.0, 3));
  CompositeFaults faults(std::move(parts));
  EXPECT_TRUE(faults.Active());
  EXPECT_TRUE(faults.IsDownAt(6.0, 1));
  EXPECT_FALSE(faults.IsDownAt(6.0, 2));
  int drops = 0;
  for (uint64_t s = 0; s < 100; ++s) {
    if (faults.DropControl(s)) ++drops;
  }
  EXPECT_GT(drops, 0);  // the lossy part's drops surface through composition
  EXPECT_FALSE(faults.DuplicateControl(0));
  EXPECT_DOUBLE_EQ(faults.NextTransitionAfter(0.0), 5.0);
}

TEST(FaultMonitorTest, ReportsCrashAndRecoveryAtScheduledTimes) {
  Simulator sim;
  ScriptedCrashes faults({CrashEvent{2, 5.0, 10.0}});
  std::vector<std::pair<SimTime, int>> crashes, recoveries;
  FaultMonitor::Callbacks cbs;
  cbs.on_crash = [&](int w) { crashes.emplace_back(sim.now(), w); };
  cbs.on_recover = [&](int w) { recoveries.emplace_back(sim.now(), w); };
  FaultMonitor monitor(&sim, &faults, 4, std::move(cbs));
  monitor.Start();
  sim.Run();
  ASSERT_EQ(crashes.size(), 1u);
  EXPECT_DOUBLE_EQ(crashes[0].first, 5.0);
  EXPECT_EQ(crashes[0].second, 2);
  ASSERT_EQ(recoveries.size(), 1u);
  EXPECT_DOUBLE_EQ(recoveries[0].first, 10.0);
  EXPECT_EQ(recoveries[0].second, 2);
  EXPECT_FALSE(monitor.IsDown(2));
}

TEST(FaultMonitorTest, ReportsAlreadyDownWorkerOnStart) {
  Simulator sim;
  ScriptedCrashes faults({CrashEvent{0, 0.0, 4.0}});
  int crash_count = 0;
  FaultMonitor::Callbacks cbs;
  cbs.on_crash = [&](int) { ++crash_count; };
  cbs.on_recover = [](int) {};
  FaultMonitor monitor(&sim, &faults, 2, std::move(cbs));
  monitor.Start();
  EXPECT_EQ(crash_count, 1);
  EXPECT_TRUE(monitor.IsDown(0));
  sim.Run();
  EXPECT_FALSE(monitor.IsDown(0));
}

TEST(FaultMonitorTest, StopCancelsPendingWakeups) {
  Simulator sim;
  ScriptedCrashes faults({CrashEvent{1, 100.0, 200.0}});
  FaultMonitor::Callbacks cbs;
  cbs.on_crash = [](int) {};
  cbs.on_recover = [](int) {};
  FaultMonitor monitor(&sim, &faults, 2, std::move(cbs));
  monitor.Start();
  EXPECT_FALSE(sim.idle());  // a wakeup is pending at t=100
  monitor.Stop();
  sim.Run();
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);  // nothing left to run
}

}  // namespace
}  // namespace fela::sim
