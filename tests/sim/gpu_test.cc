#include "sim/gpu.h"

#include <gtest/gtest.h>

#include <vector>

namespace fela::sim {
namespace {

TEST(GpuTest, TasksRunFifo) {
  Simulator sim;
  GpuDevice gpu(&sim, 0);
  SimTime a = 0.0, b = 0.0;
  gpu.Enqueue(1.0, [&] { a = sim.now(); });
  gpu.Enqueue(2.0, [&] { b = sim.now(); });
  sim.Run();
  EXPECT_DOUBLE_EQ(a, 1.0);
  EXPECT_DOUBLE_EQ(b, 3.0);
}

TEST(GpuTest, BusyTimeAccumulates) {
  Simulator sim;
  GpuDevice gpu(&sim, 0);
  gpu.Enqueue(1.5, [] {});
  gpu.Enqueue(0.5, [] {});
  sim.Run();
  EXPECT_DOUBLE_EQ(gpu.busy_time(), 2.0);
}

TEST(GpuTest, LateSubmissionStartsAtNow) {
  Simulator sim;
  GpuDevice gpu(&sim, 0);
  SimTime done = 0.0;
  sim.Schedule(5.0, [&] {
    gpu.Enqueue(1.0, [&] { done = sim.now(); });
  });
  sim.Run();
  EXPECT_DOUBLE_EQ(done, 6.0);
  EXPECT_DOUBLE_EQ(gpu.busy_time(), 1.0);  // idle gap not counted
}

TEST(GpuTest, BlockUntilDelaysSubsequentWork) {
  Simulator sim;
  GpuDevice gpu(&sim, 0);
  gpu.BlockUntil(2.0);
  SimTime done = 0.0;
  gpu.Enqueue(1.0, [&] { done = sim.now(); });
  sim.Run();
  EXPECT_DOUBLE_EQ(done, 3.0);
  EXPECT_DOUBLE_EQ(gpu.injected_sleep(), 2.0);
  EXPECT_DOUBLE_EQ(gpu.busy_time(), 1.0);
}

TEST(GpuTest, BlockUntilPastTimeIsNoOp) {
  Simulator sim;
  GpuDevice gpu(&sim, 0);
  gpu.Enqueue(5.0, [] {});
  gpu.BlockUntil(1.0);  // device already busy past 1.0
  EXPECT_DOUBLE_EQ(gpu.injected_sleep(), 0.0);
  EXPECT_DOUBLE_EQ(gpu.free_at(), 5.0);
}

TEST(GpuTest, BlockExtendsBusyDevice) {
  Simulator sim;
  GpuDevice gpu(&sim, 0);
  gpu.Enqueue(1.0, [] {});
  gpu.BlockUntil(4.0);
  SimTime done = 0.0;
  gpu.Enqueue(1.0, [&] { done = sim.now(); });
  sim.Run();
  EXPECT_DOUBLE_EQ(done, 5.0);
  EXPECT_DOUBLE_EQ(gpu.injected_sleep(), 3.0);
}

TEST(GpuTest, ZeroDurationTaskAllowed) {
  Simulator sim;
  GpuDevice gpu(&sim, 0);
  bool fired = false;
  gpu.Enqueue(0.0, [&] { fired = true; });
  sim.Run();
  EXPECT_TRUE(fired);
}

TEST(GpuTest, ResetStatsClears) {
  Simulator sim;
  GpuDevice gpu(&sim, 0);
  gpu.BlockUntil(1.0);
  gpu.Enqueue(1.0, [] {});
  sim.Run();
  gpu.ResetStats();
  EXPECT_DOUBLE_EQ(gpu.busy_time(), 0.0);
  EXPECT_DOUBLE_EQ(gpu.injected_sleep(), 0.0);
}

// GPipe enqueues a stage's whole micro-batch stream at once. The queued
// completions wait behind one another, not in the event heap.
TEST(GpuTest, QueuedKernelsHoldOneHeapEntry) {
  Simulator sim;
  GpuDevice gpu(&sim, 0);
  std::vector<int> order;
  for (int i = 0; i < 512; ++i) {
    gpu.Enqueue(1e-3, [&order, i] { order.push_back(i); });
  }
  EXPECT_EQ(sim.heap_entries(), 1u);
  sim.Run();
  ASSERT_EQ(order.size(), 512u);
  for (int i = 0; i < 512; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

// Completions that tie across devices fire in the order they were
// enqueued, whichever device's chain holds them.
TEST(GpuTest, EqualTimeCompletionsOnTwoDevicesFireInEnqueueOrder) {
  Simulator sim;
  GpuDevice a(&sim, 0);
  GpuDevice b(&sim, 1);
  std::vector<int> order;
  const auto record = [&order](int label) {
    return [&order, label] { order.push_back(label); };
  };
  a.Enqueue(1.0, record(0));  // both devices finish at 1, 2 and 3 s
  b.Enqueue(1.0, record(1));
  b.Enqueue(1.0, record(2));  // b's second task is enqueued before a's
  a.Enqueue(1.0, record(3));
  a.Enqueue(1.0, record(4));
  b.Enqueue(1.0, record(5));
  EXPECT_EQ(sim.heap_entries(), 2u);
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

// The busy total so far leaves out compute still queued to run, and
// does not count a blocked interval between kernels as compute.
TEST(GpuTest, BusyTimeSoFarLeavesOutQueuedCompute) {
  Simulator sim;
  GpuDevice gpu(&sim, 0);
  gpu.Enqueue(0.5, [] {});  // computes 0 .. 0.5
  gpu.BlockUntil(1.0);      // blocked 0.5 .. 1
  gpu.Enqueue(0.5, [] {});  // computes 1 .. 1.5
  EXPECT_DOUBLE_EQ(gpu.busy_time(), 1.0);
  EXPECT_DOUBLE_EQ(gpu.BusyTimeSoFar(), 0.0);
  sim.RunUntil(0.25);
  EXPECT_DOUBLE_EQ(gpu.BusyTimeSoFar(), 0.25);
  sim.RunUntil(0.75);
  EXPECT_DOUBLE_EQ(gpu.BusyTimeSoFar(), 0.5);
  sim.RunUntil(1.25);
  EXPECT_DOUBLE_EQ(gpu.BusyTimeSoFar(), 0.75);
  sim.Run();
  EXPECT_DOUBLE_EQ(gpu.BusyTimeSoFar(), 1.0);

  GpuDevice never_blocked(&sim, 1);
  never_blocked.Enqueue(1.0, [] {});  // computes now .. now + 1
  sim.RunUntil(sim.now() + 0.25);
  EXPECT_DOUBLE_EQ(never_blocked.BusyTimeSoFar(), 0.25);
}

TEST(GpuDeathTest, NegativeDurationAborts) {
  Simulator sim;
  GpuDevice gpu(&sim, 0);
  EXPECT_DEATH(gpu.Enqueue(-1.0, [] {}), "Check failed");
}

}  // namespace
}  // namespace fela::sim
