#include "sim/fabric.h"

#include <gtest/gtest.h>

#include <vector>

#include "sim/faults.h"

namespace fela::sim {
namespace {

/// Duplicates every control message; never crashes or drops.
class AlwaysDuplicate final : public FaultSchedule {
 public:
  bool IsDownAt(SimTime, int) const override { return false; }
  SimTime NextTransitionAfter(SimTime) const override { return kNeverTime; }
  bool DuplicateControl(uint64_t) const override { return true; }
  std::string ToString() const override { return "always-dup"; }
};

Calibration TestCal() {
  Calibration cal;
  cal.nic_bandwidth_bytes_per_sec = 1e9;  // 1 GB/s for round numbers
  cal.message_latency_sec = 1e-3;
  cal.control_message_bytes = 1000;
  return cal;
}

class FabricTest : public ::testing::Test {
 protected:
  FabricTest() : fabric_(&sim_, 4, TestCal()) {}
  Simulator sim_;
  Fabric fabric_;
};

TEST_F(FabricTest, TransferTimeIsLatencyPlusWire) {
  SimTime done = 0.0;
  fabric_.Transfer(0, 1, 1e9, [&] { done = sim_.now(); });
  sim_.Run();
  EXPECT_NEAR(done, 1.0 + 1e-3, 1e-12);
}

TEST_F(FabricTest, LocalTransferIsFreeAndInstant) {
  SimTime done = -1.0;
  fabric_.Transfer(2, 2, 1e9, [&] { done = sim_.now(); });
  sim_.Run();
  EXPECT_DOUBLE_EQ(done, 0.0);
  EXPECT_DOUBLE_EQ(fabric_.total_data_bytes(), 0.0);
}

TEST_F(FabricTest, ZeroByteTransferCompletesImmediately) {
  SimTime done = -1.0;
  fabric_.Transfer(0, 1, 0.0, [&] { done = sim_.now(); });
  sim_.Run();
  EXPECT_DOUBLE_EQ(done, 0.0);
}

TEST_F(FabricTest, SameSourceSerializesOnOutboundLink) {
  SimTime first = 0.0, second = 0.0;
  fabric_.Transfer(0, 1, 1e9, [&] { first = sim_.now(); });
  fabric_.Transfer(0, 2, 1e9, [&] { second = sim_.now(); });
  sim_.Run();
  EXPECT_NEAR(first, 1.001, 1e-9);
  EXPECT_NEAR(second, 2.002, 1e-9);  // queued behind the first
}

// A sender's queued transfers wait behind one another, not in the event
// heap, and complete in the order they were sent.
TEST_F(FabricTest, QueuedTransfersOfOneSenderHoldOneHeapEntry) {
  std::vector<int> order;
  for (int i = 0; i < 300; ++i) {
    fabric_.Transfer(0, 1 + i % 3, 1e6, [&order, i] { order.push_back(i); });
  }
  EXPECT_EQ(sim_.heap_entries(), 1u);
  sim_.Run();
  ASSERT_EQ(order.size(), 300u);
  for (int i = 0; i < 300; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST_F(FabricTest, SameDestinationSerializesOnInboundLink) {
  SimTime first = 0.0, second = 0.0;
  fabric_.Transfer(0, 3, 1e9, [&] { first = sim_.now(); });
  fabric_.Transfer(1, 3, 1e9, [&] { second = sim_.now(); });
  sim_.Run();
  EXPECT_NEAR(first, 1.001, 1e-9);
  EXPECT_NEAR(second, 2.002, 1e-9);
}

TEST_F(FabricTest, DisjointPairsRunInParallel) {
  SimTime a = 0.0, b = 0.0;
  fabric_.Transfer(0, 1, 1e9, [&] { a = sim_.now(); });
  fabric_.Transfer(2, 3, 1e9, [&] { b = sim_.now(); });
  sim_.Run();
  EXPECT_NEAR(a, 1.001, 1e-9);
  EXPECT_NEAR(b, 1.001, 1e-9);  // not queued; different links
}

TEST_F(FabricTest, ControlMessagesBypassDataQueue) {
  // Saturate the 0->1 path with bulk data, then send a control message;
  // it must not wait for the bulk transfer.
  fabric_.Transfer(0, 1, 10e9, [] {});
  SimTime ctrl = 0.0;
  fabric_.SendControl(0, 1, [&] { ctrl = sim_.now(); });
  sim_.Run();
  EXPECT_LT(ctrl, 0.01);
}

TEST_F(FabricTest, ControlLoopbackIsImmediate) {
  SimTime t = -1.0;
  fabric_.SendControl(1, 1, [&] { t = sim_.now(); });
  sim_.Run();
  EXPECT_DOUBLE_EQ(t, 0.0);
  EXPECT_EQ(fabric_.control_message_count(), 1u);
}

TEST_F(FabricTest, DuplicatedControlArrivesOnceNormallyOnceLate) {
  AlwaysDuplicate faults;
  fabric_.SetFaults(&faults, nullptr);
  std::vector<SimTime> deliveries;
  fabric_.SendControl(0, 1, [&] { deliveries.push_back(sim_.now()); });
  sim_.Run();
  const double wire = 1000 / 1e9;  // control_message_bytes / bandwidth
  ASSERT_EQ(deliveries.size(), 2u);
  EXPECT_NEAR(deliveries[0], 1e-3 + wire, 1e-12);
  EXPECT_NEAR(deliveries[1], 2e-3 + wire, 1e-12);
  EXPECT_EQ(fabric_.control_duplicated_count(), 1u);
}

// Regression: a duplicated loopback message used to deliver both copies
// at the same timestamp, while a duplicated remote message paid one
// extra latency — so the dup penalty silently vanished whenever the two
// roles were co-located. The retransmitted copy must lag by one message
// latency on loopback too.
TEST_F(FabricTest, DuplicatedLoopbackPaysRetransmitLatency) {
  AlwaysDuplicate faults;
  fabric_.SetFaults(&faults, nullptr);
  std::vector<SimTime> deliveries;
  fabric_.SendControl(2, 2, [&] { deliveries.push_back(sim_.now()); });
  sim_.Run();
  ASSERT_EQ(deliveries.size(), 2u);
  EXPECT_DOUBLE_EQ(deliveries[0], 0.0);
  EXPECT_NEAR(deliveries[1], 1e-3, 1e-12);
  EXPECT_EQ(fabric_.control_duplicated_count(), 1u);
}

TEST_F(FabricTest, StatisticsTrackBytesAndCounts) {
  fabric_.Transfer(0, 1, 5e8, [] {});
  fabric_.Transfer(1, 0, 25e7, [] {});
  sim_.Run();
  EXPECT_DOUBLE_EQ(fabric_.total_data_bytes(), 7.5e8);
  EXPECT_DOUBLE_EQ(fabric_.bytes_sent(0), 5e8);
  EXPECT_DOUBLE_EQ(fabric_.bytes_received(0), 25e7);
  EXPECT_DOUBLE_EQ(fabric_.bytes_sent(1), 25e7);
  EXPECT_DOUBLE_EQ(fabric_.bytes_received(1), 5e8);
  EXPECT_EQ(fabric_.data_transfer_count(), 2u);
}

TEST_F(FabricTest, LinkBusyAccounting) {
  fabric_.Transfer(0, 1, 1e9, [] {});
  sim_.Run();
  EXPECT_NEAR(fabric_.out_link_busy(0), 1.001, 1e-9);
  EXPECT_NEAR(fabric_.in_link_busy(1), 1.001, 1e-9);
  EXPECT_DOUBLE_EQ(fabric_.out_link_busy(1), 0.0);
}

TEST_F(FabricTest, ResetStatsClearsCounters) {
  fabric_.Transfer(0, 1, 1e9, [] {});
  sim_.Run();
  fabric_.ResetStats();
  EXPECT_DOUBLE_EQ(fabric_.total_data_bytes(), 0.0);
  EXPECT_EQ(fabric_.data_transfer_count(), 0u);
  EXPECT_DOUBLE_EQ(fabric_.out_link_busy(0), 0.0);
}

TEST_F(FabricTest, NextFreeTimeReflectsQueue) {
  EXPECT_DOUBLE_EQ(fabric_.NextFreeTime(0, 1), 0.0);
  fabric_.Transfer(0, 1, 1e9, [] {});
  EXPECT_NEAR(fabric_.NextFreeTime(0, 1), 1.001, 1e-9);
  EXPECT_NEAR(fabric_.NextFreeTime(0, 2), 1.001, 1e-9);  // src busy
  EXPECT_NEAR(fabric_.NextFreeTime(2, 1), 1.001, 1e-9);  // dst busy
  EXPECT_DOUBLE_EQ(fabric_.NextFreeTime(2, 3), 0.0);
}

TEST_F(FabricTest, InvalidNodeAborts) {
  EXPECT_DEATH(fabric_.Transfer(0, 7, 1.0, [] {}), "node");
  EXPECT_DEATH(fabric_.Transfer(-1, 0, 1.0, [] {}), "node");
}

/// Inflates control latency 3x at every endpoint and duplicates every
/// message: exercises the unified retransmit path under gray delay.
class GrayAndDuplicate final : public FaultSchedule {
 public:
  bool IsDownAt(SimTime, int) const override { return false; }
  SimTime NextTransitionAfter(SimTime) const override { return kNeverTime; }
  bool DuplicateControl(uint64_t) const override { return true; }
  double ControlDelayFactor(SimTime, int) const override { return 3.0; }
  std::string ToString() const override { return "gray-dup"; }
};

// Regression for the SendControl rewrite that unified the loopback and
// remote duplicate paths: the retransmitted copy must lag the original
// by exactly one (gray-inflated) message latency on BOTH paths, instead
// of the loopback special case drifting from the remote one.
TEST_F(FabricTest, DuplicateRetransmitLagScalesWithGrayDelayOnEveryPath) {
  GrayAndDuplicate faults;
  fabric_.SetFaults(&faults, nullptr);
  const double wire = 1000 / 1e9;
  std::vector<SimTime> remote;
  fabric_.SendControl(0, 1, [&] { remote.push_back(sim_.now()); });
  sim_.Run();
  ASSERT_EQ(remote.size(), 2u);
  EXPECT_NEAR(remote[0], 3e-3 + wire, 1e-12);
  EXPECT_NEAR(remote[1] - remote[0], 3e-3, 1e-12);

  std::vector<SimTime> loop;
  fabric_.SendControl(2, 2, [&] { loop.push_back(sim_.now()); });
  sim_.Run();
  ASSERT_EQ(loop.size(), 2u);
  EXPECT_NEAR(loop[1] - loop[0], 3e-3, 1e-12);  // same lag as remote
}

// Regression: with a zero-latency calibration both copies of a
// duplicated message land at the same instant; the rewrite schedules the
// original first so FIFO tie-break delivers original-then-copy, and both
// must still be delivered (the copy must not be lost to the tie).
TEST(FabricDupOrderTest, ZeroLatencyDuplicateDeliversBothCopies) {
  Calibration cal = TestCal();
  cal.message_latency_sec = 0.0;
  Simulator sim;
  Fabric fabric(&sim, 2, cal);
  AlwaysDuplicate faults;
  fabric.SetFaults(&faults, nullptr);
  int deliveries = 0;
  fabric.SendControl(1, 1, [&] { ++deliveries; });
  sim.Run();
  EXPECT_EQ(deliveries, 2);
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
}

// ---- Hierarchical (racked) topology ------------------------------------

Calibration RackedCal() {
  Calibration cal = TestCal();
  // 2-node racks, 0.5 GB/s uplinks (slower than the 1 GB/s NICs), 1 ms
  // per ToR<->aggregation hop.
  cal.topology = Topology::Racked(2, 5e8, 1e-3);
  return cal;
}

class RackedFabricTest : public ::testing::Test {
 protected:
  RackedFabricTest() : fabric_(&sim_, 4, RackedCal()) {}
  Simulator sim_;
  Fabric fabric_;
};

TEST_F(RackedFabricTest, IntraRackTransferMatchesFlatStar) {
  SimTime done = 0.0;
  fabric_.Transfer(0, 1, 1e9, [&] { done = sim_.now(); });  // same rack
  sim_.Run();
  EXPECT_NEAR(done, 1.0 + 1e-3, 1e-12);  // NIC rate, no rack hops
  EXPECT_EQ(fabric_.cross_rack_transfer_count(), 0u);
}

TEST_F(RackedFabricTest, CrossRackTransferPaysUplinkAndHops) {
  SimTime done = 0.0;
  fabric_.Transfer(0, 2, 1e9, [&] { done = sim_.now(); });  // rack 0 -> 1
  sim_.Run();
  // Clocked at the 0.5 GB/s uplink, plus base latency and two rack hops.
  EXPECT_NEAR(done, 2.0 + 1e-3 + 2e-3, 1e-12);
  EXPECT_EQ(fabric_.cross_rack_transfer_count(), 1u);
  EXPECT_DOUBLE_EQ(fabric_.cross_rack_bytes(), 1e9);
}

TEST_F(RackedFabricTest, CrossRackFlowsSerializeOnRackUplink) {
  // Distinct node pairs (0->2 and 1->3) that would run in parallel on
  // the flat star must serialize on rack 0's uplink channel.
  SimTime a = 0.0, b = 0.0;
  fabric_.Transfer(0, 2, 5e8, [&] { a = sim_.now(); });
  fabric_.Transfer(1, 3, 5e8, [&] { b = sim_.now(); });
  sim_.Run();
  const double one = 1.0 + 1e-3 + 2e-3;  // 5e8 B at the 5e8 B/s uplink
  EXPECT_NEAR(a, one, 1e-12);
  EXPECT_NEAR(b, 2 * one, 1e-12);
}

TEST_F(RackedFabricTest, CrossRackControlPaysHopLatency) {
  const double wire = 1000 / 1e9;
  SimTime intra = 0.0, cross = 0.0;
  fabric_.SendControl(0, 1, [&] { intra = sim_.now(); });
  fabric_.SendControl(0, 2, [&] { cross = sim_.now(); });
  sim_.Run();
  EXPECT_NEAR(intra, 1e-3 + wire, 1e-12);
  EXPECT_NEAR(cross, 1e-3 + 2e-3 + wire, 1e-12);
}

TEST_F(RackedFabricTest, CrossRackDuplicateLagsByCrossRackLatency) {
  AlwaysDuplicate faults;
  fabric_.SetFaults(&faults, nullptr);
  std::vector<SimTime> deliveries;
  fabric_.SendControl(0, 2, [&] { deliveries.push_back(sim_.now()); });
  sim_.Run();
  ASSERT_EQ(deliveries.size(), 2u);
  // The retransmit timeout covers the full one-way latency incl. hops.
  EXPECT_NEAR(deliveries[1] - deliveries[0], 1e-3 + 2e-3, 1e-12);
}

TEST_F(RackedFabricTest, ResetStatsClearsCrossRackCounters) {
  fabric_.Transfer(0, 2, 1e9, [] {});
  sim_.Run();
  fabric_.ResetStats();
  EXPECT_EQ(fabric_.cross_rack_transfer_count(), 0u);
  EXPECT_DOUBLE_EQ(fabric_.cross_rack_bytes(), 0.0);
}

TEST(TopologyTest, RackMathAndFlatDefault) {
  const Topology flat = Topology::Flat();
  EXPECT_FALSE(flat.hierarchical());
  EXPECT_EQ(flat.RackOf(7), 0);
  EXPECT_EQ(flat.NumRacks(1024), 1);
  const Topology racked = Topology::Racked(32, 5e9, 5e-6);
  EXPECT_TRUE(racked.hierarchical());
  EXPECT_EQ(racked.RackOf(31), 0);
  EXPECT_EQ(racked.RackOf(32), 1);
  EXPECT_EQ(racked.NumRacks(1024), 32);
  EXPECT_EQ(racked.NumRacks(33), 2);  // partial trailing rack
}

}  // namespace
}  // namespace fela::sim
