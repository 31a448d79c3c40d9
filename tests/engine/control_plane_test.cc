// Control-plane survivability: Token Server checkpoint/failover, network
// partitions (park-and-heal), gray failures absorbed by backoff, lease
// reclaim under duplicated-and-dropped reports, and the validation that
// rejects malformed fault schedules.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "baselines/dp_engine.h"
#include "common/rng.h"
#include "common/units.h"
#include "core/fela_config.h"
#include "core/fela_engine.h"
#include "model/partition.h"
#include "model/profile.h"
#include "model/zoo.h"
#include "runtime/cluster.h"
#include "sim/faults.h"
#include "sim/topology.h"

namespace fela::core {
namespace {

std::unique_ptr<runtime::Cluster> FaultyCluster(
    std::unique_ptr<sim::FaultSchedule> faults, int n = 8) {
  return std::make_unique<runtime::Cluster>(
      n, sim::Calibration::Default(),
      std::make_unique<sim::NoStragglers>(), std::move(faults));
}

FelaConfig PaperConfig() {
  FelaConfig cfg = FelaConfig::Defaults(3, 8);
  cfg.weights = {1, 2, 4};
  return cfg;
}

runtime::RunStats CleanFelaStats(int iterations, double batch) {
  auto cluster = runtime::Cluster::MakeDefault(8);
  FelaEngine engine(cluster.get(), model::zoo::Vgg19(), PaperConfig(), batch);
  return engine.Run(iterations);
}

/// The cross-incarnation conservation identity plus the live server's
/// own ledger must both hold after any fault scenario.
void ExpectFailoverInvariantsHold(const FelaEngine& engine) {
  const std::vector<std::string> violations = engine.CheckFailoverInvariants();
  EXPECT_TRUE(violations.empty())
      << "first violation: " << violations.front();
}

TEST(ControlPlaneTest, TsCrashFailsOverAndCompletes) {
  const int kIters = 6;
  const double kBatch = 512.0;
  const auto clean = CleanFelaStats(kIters, kBatch);

  // Kill worker 0 — the initial TS host — mid-iteration 2; it returns
  // one iteration after the standby took over and rejoins as a plain
  // worker.
  const auto& it2 = clean.iterations[2];
  const double it_len = it2.end - it2.start;
  const double crash = it2.start + 0.3 * it_len;
  auto cluster = FaultyCluster(std::make_unique<sim::ScriptedCrashes>(
      std::vector<sim::CrashEvent>{
          {0, crash, crash + kTsFailoverTimeoutSec + it_len}}));
  FelaEngine engine(cluster.get(), model::zoo::Vgg19(), PaperConfig(),
                    kBatch);
  const auto stats = engine.Run(kIters);

  EXPECT_EQ(stats.iteration_count(), kIters);
  EXPECT_FALSE(stats.stalled);
  EXPECT_EQ(stats.faults.ts_failovers, 1u);
  EXPECT_NE(engine.ts_node(), 0);  // a standby took over
  EXPECT_EQ(engine.ts_incarnation(), 1);
  EXPECT_GT(stats.faults.ts_checkpoints, 0u);
  EXPECT_TRUE(engine.admitted(0));  // rejoined after recovery
  ExpectFailoverInvariantsHold(engine);

  // Cumulative ledger balances across both incarnations: nothing is left
  // leased at run end, so grants + restored == completions + reclaimed.
  const TokenServer::Stats ts = engine.CumulativeTsStats();
  EXPECT_EQ(ts.grants + ts.leases_restored,
            ts.completions + ts.tokens_reclaimed);
  EXPECT_EQ(stats.faults.leases_restored, ts.leases_restored);
}

TEST(ControlPlaneTest, TsFailStopCompletesWhereDpStalls) {
  const int kIters = 4;
  const double kBatch = 512.0;
  const model::Model vgg = model::zoo::Vgg19();
  const double fela_clean = CleanFelaStats(kIters, kBatch).total_time;
  const double crash = 0.3 * fela_clean;

  auto fela_cluster = FaultyCluster(std::make_unique<sim::ScriptedCrashes>(
      std::vector<sim::CrashEvent>{{0, crash, sim::kNeverTime}}));
  FelaEngine fela(fela_cluster.get(), vgg, PaperConfig(), kBatch);
  const auto fela_stats = fela.Run(kIters);
  EXPECT_FALSE(fela_stats.stalled);
  EXPECT_EQ(fela_stats.iteration_count(), kIters);
  EXPECT_EQ(fela_stats.faults.ts_failovers, 1u);
  EXPECT_FALSE(fela.admitted(0));  // scaled in around the dead host
  ExpectFailoverInvariantsHold(fela);

  auto dp_cluster = FaultyCluster(std::make_unique<sim::ScriptedCrashes>(
      std::vector<sim::CrashEvent>{{0, crash, sim::kNeverTime}}));
  baselines::DpEngine dp(dp_cluster.get(), vgg, kBatch);
  const auto dp_stats = dp.Run(kIters);
  EXPECT_TRUE(dp_stats.stalled);  // barrier waits for node 0 forever
}

// Regression (fuzz seed 190): with CTD active (|S| < cluster), workers
// outside S never receive communication-intensive tokens. A crashed
// subset worker therefore must not wait for the iteration boundary to
// rejoin — once only comm tokens remain, the boundary never comes and
// the survivors retry forever. Recovery re-admits S members at once.
TEST(ControlPlaneTest, CtdSubsetWorkerRecoveryReAdmitsImmediately) {
  const int kIters = 2;
  const double kBatch = 128.0;
  FelaConfig cfg = FelaConfig::Defaults(3, 2);
  cfg.weights = {1, 1, 1};
  cfg.ctd_subset_size = 1;  // S = {0}: only worker 0 trains comm levels
  // Recovery lands mid-failover: 1.2 s after the crash, well inside
  // kTsFailoverTimeoutSec.
  auto cluster = FaultyCluster(
      std::make_unique<sim::ScriptedCrashes>(
          std::vector<sim::CrashEvent>{{0, 1.6, 2.8}}),
      2);
  FelaEngine engine(cluster.get(), model::zoo::Vgg19(), cfg, kBatch);
  const auto stats = engine.Run(kIters);
  EXPECT_EQ(stats.iteration_count(), kIters);
  EXPECT_FALSE(stats.stalled);
  EXPECT_TRUE(engine.admitted(0));
  EXPECT_GT(stats.faults.readmissions, 0u);
  ExpectFailoverInvariantsHold(engine);
}

// The fail-stop variant of the same wedge: when every subset worker is
// down, the Token Server relaxes the CTD scoping (liveness valve) so
// survivors can drain communication-intensive tokens instead of waiting
// forever for workers that never return.
TEST(ControlPlaneTest, CtdValveDrainsCommTokensWhenSubsetFailStops) {
  const int kIters = 2;
  const double kBatch = 128.0;
  FelaConfig cfg = FelaConfig::Defaults(3, 2);
  cfg.weights = {1, 1, 1};
  cfg.ctd_subset_size = 1;
  auto cluster = FaultyCluster(
      std::make_unique<sim::ScriptedCrashes>(
          std::vector<sim::CrashEvent>{{0, 1.6, sim::kNeverTime}}),
      2);
  FelaEngine engine(cluster.get(), model::zoo::Vgg19(), cfg, kBatch);
  const auto stats = engine.Run(kIters);
  EXPECT_EQ(stats.iteration_count(), kIters);
  EXPECT_FALSE(stats.stalled);
  EXPECT_EQ(stats.faults.ts_failovers, 1u);
  EXPECT_EQ(engine.ts_node(), 1);
  EXPECT_FALSE(engine.admitted(0));  // scaled in around the dead host
  ExpectFailoverInvariantsHold(engine);
}

TEST(ControlPlaneTest, PartitionParksMinorityAndHealsWithoutCrashes) {
  const int kIters = 6;
  const double kBatch = 512.0;
  const auto clean = CleanFelaStats(kIters, kBatch);

  // Cut workers {6, 7} away from the TS side for a mid-run window. The
  // processes never die: no crash events, only cuts and heals.
  sim::PartitionEvent ev;
  ev.start = clean.iterations[1].start;
  ev.end = clean.iterations[3].end;
  ev.side_a = {0, 1, 2, 3, 4, 5};
  auto cluster = FaultyCluster(std::make_unique<sim::NetworkPartition>(
      std::vector<sim::PartitionEvent>{ev}));
  FelaEngine engine(cluster.get(), model::zoo::Vgg19(), PaperConfig(), kBatch);
  const auto stats = engine.Run(kIters);

  EXPECT_EQ(stats.iteration_count(), kIters);
  EXPECT_FALSE(stats.stalled);
  EXPECT_EQ(stats.faults.crashes, 0u);
  EXPECT_EQ(stats.faults.partition_cuts, 2u);
  EXPECT_EQ(stats.faults.partition_heals, 2u);
  EXPECT_EQ(stats.faults.ts_failovers, 0u);  // TS kept its majority
  EXPECT_TRUE(engine.admitted(6));
  EXPECT_TRUE(engine.admitted(7));
  ExpectFailoverInvariantsHold(engine);
}

TEST(ControlPlaneTest, MinorityTsLosesQuorumAndFailsOver) {
  const int kIters = 6;
  const double kBatch = 512.0;
  const auto clean = CleanFelaStats(kIters, kBatch);

  // Strand the TS host with one companion; the six-worker majority
  // elects a standby on its side rather than park for the whole window.
  sim::PartitionEvent ev;
  ev.start = clean.iterations[1].start;
  ev.end = 0.9 * clean.total_time;
  ev.side_a = {0, 1};
  auto cluster = FaultyCluster(std::make_unique<sim::NetworkPartition>(
      std::vector<sim::PartitionEvent>{ev}));
  FelaEngine engine(cluster.get(), model::zoo::Vgg19(), PaperConfig(), kBatch);
  const auto stats = engine.Run(kIters);

  EXPECT_EQ(stats.iteration_count(), kIters);
  EXPECT_FALSE(stats.stalled);
  EXPECT_GE(stats.faults.ts_failovers, 1u);
  EXPECT_GE(engine.ts_node(), 2);  // promoted on the majority side
  ExpectFailoverInvariantsHold(engine);
}

TEST(ControlPlaneTest, GrayFailureAbsorbedByBackoff) {
  const int kIters = 5;
  const double kBatch = 256.0;
  const auto clean = CleanFelaStats(kIters, kBatch);

  // Worker 4's control latency inflates 8x for most of the run. Nothing
  // reports it down; leases and backoff must absorb the slowness.
  auto cluster = FaultyCluster(std::make_unique<sim::GrayFailures>(
      std::vector<sim::GrayEvent>{
          {4, clean.iterations[1].start, 0.9 * clean.total_time, 8.0}}));
  FelaEngine engine(cluster.get(), model::zoo::Vgg19(), PaperConfig(), kBatch);
  const auto stats = engine.Run(kIters);

  EXPECT_EQ(stats.iteration_count(), kIters);
  EXPECT_FALSE(stats.stalled);
  EXPECT_EQ(stats.faults.crashes, 0u);
  EXPECT_EQ(stats.faults.ts_failovers, 0u);
  ExpectFailoverInvariantsHold(engine);
  const TokenServer::Stats& ts = engine.ts_stats();
  EXPECT_EQ(ts.grants, ts.completions + ts.tokens_reclaimed);
}

TEST(ControlPlaneTest, BackoffDelaysGrowAndCap) {
  // The worker-side retry schedule itself: exponential with deterministic
  // stretch-only jitter, capped at the given maximum. The nominal
  // sequence is 1, 2, 4, 6(cap), 6, ... and jitter lands each delay in
  // [nominal, 1.5 * nominal) — never earlier than the un-jittered
  // schedule (the inert-schedule byte-identity guarantee leans on this).
  const double base = 1.0, mult = 2.0, max = 6.0;
  const uint64_t seed = 0x5eedULL;
  double prev = 0.0;
  for (int attempt = 0; attempt < 8; ++attempt) {
    const double d =
        common::JitteredBackoffSec(base, mult, max, attempt, seed,
                                   /*stream=*/3);
    if (attempt >= 3) {
      // Capped: in [max, 1.5 * max).
      EXPECT_GE(d, max);
      EXPECT_LT(d, 1.5 * max);
    } else {
      EXPECT_GT(d, prev);  // pre-cap the sequence grows strictly
    }
    // Deterministic: same (seed, stream, attempt) -> same delay.
    EXPECT_EQ(d, common::JitteredBackoffSec(base, mult, max, attempt, seed, 3));
    prev = d;
  }
}

/// Drops one contiguous band of control messages and duplicates another,
/// deterministically — so one run exercises lease expiry -> reclaim ->
/// regrant (the dropped completion report) AND duplicate-report
/// absorption, with exact replayability.
class DropAndDupBands final : public sim::FaultSchedule {
 public:
  bool IsDownAt(sim::SimTime, int) const override { return false; }
  sim::SimTime NextTransitionAfter(sim::SimTime) const override {
    return sim::kNeverTime;
  }
  bool DropControl(uint64_t seq) const override {
    return seq >= 60 && seq < 70;
  }
  bool DuplicateControl(uint64_t seq) const override {
    return seq >= 20 && seq < 40;
  }
  std::string ToString() const override { return "drop[60,70)+dup[20,40)"; }
};

TEST(ControlPlaneTest, DroppedAndDuplicatedReportsInOneRun) {
  const int kIters = 4;
  auto cluster = FaultyCluster(std::make_unique<DropAndDupBands>());
  FelaEngine engine(cluster.get(), model::zoo::Vgg19(), PaperConfig(), 256);
  const auto stats = engine.Run(kIters);

  EXPECT_EQ(stats.iteration_count(), kIters);
  EXPECT_FALSE(stats.stalled);
  EXPECT_GT(stats.faults.control_dropped, 0u);
  EXPECT_GT(stats.faults.control_duplicated, 0u);
  EXPECT_GT(stats.faults.duplicate_reports, 0u);

  // A dropped completion report leaves its lease dangling; the timeout
  // reclaims it and the token is re-granted. Counter identity: every
  // regrant consumed a reclaim, every reclaim-by-silence is an expiry.
  const TokenServer::Stats& ts = engine.ts_stats();
  EXPECT_GE(ts.lease_expirations, 1u);
  EXPECT_GE(ts.regrants, 1u);
  EXPECT_LE(ts.regrants, ts.tokens_reclaimed);
  EXPECT_LE(ts.lease_expirations, ts.tokens_reclaimed);
  EXPECT_EQ(ts.grants, ts.completions + ts.tokens_reclaimed);
  EXPECT_EQ(stats.faults.tokens_reclaimed, ts.tokens_reclaimed);
  EXPECT_EQ(stats.faults.regrants, ts.regrants);
  ExpectFailoverInvariantsHold(engine);
}

TEST(ControlPlaneTest, FailoverRunReplaysByteIdentically) {
  const int kIters = 5;
  const double kBatch = 512.0;
  const double clean_total = CleanFelaStats(kIters, kBatch).total_time;

  auto run = [&](std::string* trace_out) {
    std::vector<std::unique_ptr<sim::FaultSchedule>> parts;
    parts.push_back(std::make_unique<sim::ScriptedCrashes>(
        std::vector<sim::CrashEvent>{
            {0, 0.25 * clean_total, 0.7 * clean_total}}));
    sim::PartitionEvent ev;
    ev.start = 0.45 * clean_total;
    ev.end = 0.6 * clean_total;
    ev.side_a = {0, 1, 2, 3};
    parts.push_back(std::make_unique<sim::NetworkPartition>(
        std::vector<sim::PartitionEvent>{ev}));
    parts.push_back(std::make_unique<sim::GrayFailures>(
        std::vector<sim::GrayEvent>{
            {5, 0.1 * clean_total, 0.5 * clean_total, 4.0}}));
    auto cluster = FaultyCluster(std::make_unique<sim::CompositeFaults>(
        std::move(parts)));
    cluster->trace().set_enabled(true);
    FelaEngine engine(cluster.get(), model::zoo::Vgg19(), PaperConfig(),
                      kBatch);
    const auto stats = engine.Run(kIters);
    *trace_out = cluster->trace().ToString();
    return stats;
  };

  std::string trace1, trace2;
  const auto s1 = run(&trace1);
  const auto s2 = run(&trace2);
  EXPECT_GE(s1.faults.ts_failovers, 1u);  // the scenario actually fired
  EXPECT_FALSE(s1.stalled);
  EXPECT_DOUBLE_EQ(s1.total_time, s2.total_time);
  EXPECT_EQ(s1.faults.ts_failovers, s2.faults.ts_failovers);
  EXPECT_EQ(s1.faults.leases_restored, s2.faults.leases_restored);
  EXPECT_EQ(trace1, trace2);
  EXPECT_FALSE(trace1.empty());
}

TEST(ControlPlaneTest, CheckpointRestoreRoundTripMidIteration) {
  // Drive a real engine, snapshot its TS mid-run via the engine's own
  // checkpoint machinery (a TS crash forces restore), and confirm the
  // successor finished the plan from the snapshot rather than a redo:
  // the restored incarnation inherits leases instead of re-granting
  // everything from scratch.
  const int kIters = 4;
  const double kBatch = 1024.0;
  const auto clean = CleanFelaStats(kIters, kBatch);
  const auto& it1 = clean.iterations[1];
  // At this batch an iteration outlasts the checkpoint interval, so a
  // periodic checkpoint (one every kTsCheckpointIntervalSec from the run
  // start) lands inside iteration 1. The TS host dies 1% of an iteration
  // later, while the leases that checkpoint recorded are still live.
  const double it_len = it1.end - it1.start;
  ASSERT_GT(it_len, kTsCheckpointIntervalSec);
  const double checkpoint = kTsCheckpointIntervalSec *
                            std::ceil(it1.start / kTsCheckpointIntervalSec);
  auto cluster = FaultyCluster(std::make_unique<sim::ScriptedCrashes>(
      std::vector<sim::CrashEvent>{
          {0, checkpoint + 0.01 * it_len, sim::kNeverTime}}));
  FelaEngine engine(cluster.get(), model::zoo::Vgg19(), PaperConfig(),
                    kBatch);
  const auto stats = engine.Run(kIters);

  EXPECT_EQ(stats.iteration_count(), kIters);
  EXPECT_EQ(stats.faults.ts_failovers, 1u);
  EXPECT_GE(stats.faults.ts_checkpoints, 2u);
  EXPECT_GE(stats.faults.leases_restored, 1u);
  ExpectFailoverInvariantsHold(engine);
}

// Regression: a one-shard server on a racked 32-worker cluster loses its
// host (worker 0) mid-run and gets it back later. The failover must keep
// the retained server's dependency map consistent under a lossy control
// plane (a rebuilt-from-snapshot server granted a token whose dependency
// it had no record of) and must not wedge when the crash is the only
// fault (a rebuilt server's replay never finished the run).
TEST(ControlPlaneTest, OneShardTsCrashOnRackedClusterFailsOverOnce) {
  const int kWorkers = 32;
  const int kIters = 4;
  const model::Model vgg = model::zoo::Vgg19();
  const int levels = static_cast<int>(
      model::BinPartitioner()
          .Partition(vgg, model::ProfileRepository::Default())
          .size());
  for (const bool lossy : {true, false}) {
    SCOPED_TRACE(lossy ? "crash + lossy control plane" : "crash alone");
    std::vector<std::unique_ptr<sim::FaultSchedule>> parts;
    parts.push_back(std::make_unique<sim::ScriptedCrashes>(
        std::vector<sim::CrashEvent>{{0, 32.0, 50.0}}));
    if (lossy) {
      parts.push_back(std::make_unique<sim::LossyControlPlane>(
          0.01, 0.01, 8259124590384263074ULL));
    }
    sim::Calibration cal = sim::Calibration::Default();
    cal.topology =
        sim::Topology::Racked(16, common::GbpsToBytesPerSec(40.0), 5e-6);
    runtime::Cluster cluster(
        kWorkers, cal, std::make_unique<sim::NoStragglers>(),
        std::make_unique<sim::CompositeFaults>(std::move(parts)));
    FelaConfig cfg = FelaConfig::Defaults(levels, kWorkers);
    cfg.ts_shards = 1;
    FelaEngine engine(&cluster, vgg, cfg, 16.0 * kWorkers);
    const auto stats = engine.Run(kIters);

    ASSERT_EQ(engine.ts_shard_count(), 1);
    EXPECT_EQ(stats.iteration_count(), kIters);
    EXPECT_FALSE(stats.stalled);
    EXPECT_EQ(stats.faults.ts_failovers, 1u);
    ExpectFailoverInvariantsHold(engine);
  }
}

TEST(ControlPlaneTest, FaultScheduleValidationRejectsOutOfRangeWorkers) {
  // Scripted crash of a worker the cluster does not have.
  // (Negative ids are rejected at construction by FELA_CHECK; Validate
  // guards the cluster-size mismatch the constructor cannot know.)
  EXPECT_FALSE(sim::ScriptedCrashes(
                   std::vector<sim::CrashEvent>{{8, 1.0, 2.0}})
                   .Validate(8)
                   .ok());
  // Partition naming a ghost node.
  sim::PartitionEvent ev;
  ev.start = 1.0;
  ev.end = 2.0;
  ev.side_a = {0, 9};
  EXPECT_FALSE(sim::NetworkPartition(std::vector<sim::PartitionEvent>{ev})
                   .Validate(8)
                   .ok());
  // Gray failure on a ghost node (sub-unity factors are rejected at
  // construction by FELA_CHECK).
  EXPECT_FALSE(sim::GrayFailures(
                   std::vector<sim::GrayEvent>{{12, 1.0, 2.0, 3.0}})
                   .Validate(8)
                   .ok());
  // Composite propagates the inner rejection.
  std::vector<std::unique_ptr<sim::FaultSchedule>> parts;
  parts.push_back(std::make_unique<sim::ScriptedCrashes>(
      std::vector<sim::CrashEvent>{{8, 1.0, 2.0}}));
  EXPECT_FALSE(
      sim::CompositeFaults(std::move(parts)).Validate(8).ok());
  // And the valid versions pass.
  EXPECT_TRUE(sim::ScriptedCrashes(
                  std::vector<sim::CrashEvent>{{7, 1.0, 2.0}})
                  .Validate(8)
                  .ok());
}

// --- Sharded control plane (per-rack Token Server sub-distributors) ---
// A racked fabric auto-shards the server: one sub-distributor per rack,
// coordinated by a thin root on shard 0's host. These chaos tests pin
// the blast-radius story: a shard-host fail-stop scopes the outage to
// its own rack, a rack-isolating partition parks exactly that rack, and
// the per-incarnation conservation ledger survives repeated failovers.

std::unique_ptr<runtime::Cluster> RackedFaultyCluster(
    std::unique_ptr<sim::FaultSchedule> faults, int n = 8, int rack = 4) {
  sim::Calibration cal = sim::Calibration::Default();
  cal.topology = sim::Topology::Racked(rack, 5e9, 5e-6);
  return std::make_unique<runtime::Cluster>(
      n, cal, std::make_unique<sim::NoStragglers>(), std::move(faults));
}

runtime::RunStats CleanRackedFelaStats(int iterations, double batch) {
  auto cluster = RackedFaultyCluster(nullptr);
  FelaEngine engine(cluster.get(), model::zoo::Vgg19(), PaperConfig(), batch);
  return engine.Run(iterations);
}

TEST(ShardedControlPlaneTest, ShardHostFailStopScopesOutageToItsRack) {
  const int kIters = 5;
  const double kBatch = 512.0;
  const double clean_total = CleanRackedFelaStats(kIters, kBatch).total_time;
  const double crash = 0.3 * clean_total;

  // Sharded: kill worker 4 — rack 1's sub-distributor host — for good.
  // Only shard 1 fences; rack 0's sub-distributor never stops granting.
  auto sharded_cluster =
      RackedFaultyCluster(std::make_unique<sim::ScriptedCrashes>(
          std::vector<sim::CrashEvent>{{4, crash, sim::kNeverTime}}));
  FelaEngine sharded(sharded_cluster.get(), model::zoo::Vgg19(),
                     PaperConfig(), kBatch);
  const auto sharded_stats = sharded.Run(kIters);
  ASSERT_EQ(sharded.ts_shard_count(), 2);
  EXPECT_EQ(sharded_stats.iteration_count(), kIters);
  EXPECT_FALSE(sharded_stats.stalled);
  EXPECT_EQ(sharded_stats.faults.ts_failovers, 1u);
  EXPECT_EQ(sharded.ts_shard_host(1), 5);  // in-rack standby promoted
  EXPECT_EQ(sharded.ts_shard_incarnation(1), 1);
  EXPECT_TRUE(sharded.ts_shard_active(1));
  EXPECT_EQ(sharded.ts_shard_host(0), 0);  // the root never noticed
  EXPECT_EQ(sharded.ts_shard_incarnation(0), 0);
  EXPECT_FALSE(sharded.admitted(4));  // scaled in around the dead host
  EXPECT_GT(sharded.token_server().shard_stats(0).grants, 0u);
  ExpectFailoverInvariantsHold(sharded);
  const TokenServer::Stats cum = sharded.CumulativeTsStats();
  EXPECT_EQ(cum.grants + cum.leases_restored,
            cum.completions + cum.tokens_reclaimed);

  // Whole-TS fail-stop on the same fabric: ts_shards=1 collapses the
  // server back to a monolith, so losing its host (worker 0) darkens
  // the entire control plane for the failover window. Both runs lose
  // one worker forever and fail over exactly once; the sharded run must
  // retain strictly more throughput because seven workers — not zero —
  // kept draining tokens while the fence was up.
  FelaConfig mono = PaperConfig();
  mono.ts_shards = 1;
  auto mono_cluster =
      RackedFaultyCluster(std::make_unique<sim::ScriptedCrashes>(
          std::vector<sim::CrashEvent>{{0, crash, sim::kNeverTime}}));
  FelaEngine whole(mono_cluster.get(), model::zoo::Vgg19(), mono, kBatch);
  const auto mono_stats = whole.Run(kIters);
  ASSERT_EQ(whole.ts_shard_count(), 1);
  EXPECT_FALSE(mono_stats.stalled);
  EXPECT_EQ(mono_stats.faults.ts_failovers, 1u);
  EXPECT_LT(sharded_stats.total_time, mono_stats.total_time);
}

TEST(ShardedControlPlaneTest, RackIsolatingPartitionParksOnlyThatRack) {
  const int kIters = 6;
  const double kBatch = 512.0;
  const auto clean = CleanRackedFelaStats(kIters, kBatch);

  // Cut rack 1 (workers 4..7) away from rack 0 for a mid-run window.
  // Rack 1 keeps its own sub-distributor host, so its shard holds local
  // quorum and nothing fails over — the rack simply parks until the
  // heal while rack 0 keeps training.
  sim::PartitionEvent ev;
  ev.start = clean.iterations[1].start;
  ev.end = clean.iterations[3].end;
  ev.side_a = {0, 1, 2, 3};
  auto cluster = RackedFaultyCluster(std::make_unique<sim::NetworkPartition>(
      std::vector<sim::PartitionEvent>{ev}));
  FelaEngine engine(cluster.get(), model::zoo::Vgg19(), PaperConfig(), kBatch);
  const auto stats = engine.Run(kIters);

  ASSERT_EQ(engine.ts_shard_count(), 2);
  EXPECT_EQ(stats.iteration_count(), kIters);
  EXPECT_FALSE(stats.stalled);
  EXPECT_EQ(stats.faults.crashes, 0u);
  EXPECT_EQ(stats.faults.partition_cuts, 4u);  // exactly rack 1
  EXPECT_EQ(stats.faults.partition_heals, 4u);
  EXPECT_EQ(stats.faults.ts_failovers, 0u);  // both hosts kept quorum
  for (int s = 0; s < 2; ++s) {
    EXPECT_EQ(engine.ts_shard_incarnation(s), 0) << "shard " << s;
    EXPECT_TRUE(engine.ts_shard_active(s)) << "shard " << s;
  }
  for (int w = 4; w < 8; ++w) {
    EXPECT_TRUE(engine.admitted(w)) << "worker " << w;  // healed + rejoined
  }
  EXPECT_GT(stats.faults.readmissions, 0u);
  // Both sub-distributors granted: rack 0 throughout, rack 1 around the
  // window.
  EXPECT_GT(engine.token_server().shard_stats(0).grants, 0u);
  EXPECT_GT(engine.token_server().shard_stats(1).grants, 0u);
  ExpectFailoverInvariantsHold(engine);
}

TEST(ShardedControlPlaneTest, LedgerSurvivesTwoSuccessiveShardFailovers) {
  const int kIters = 6;
  const double kBatch = 512.0;
  const double clean_total = CleanRackedFelaStats(kIters, kBatch).total_time;

  // Shard 1 loses two hosts in a row: worker 4 (the original), then
  // worker 5 (the first standby) after its promotion has completed. The
  // second crash is pinned past crash1 + kTsFailoverTimeoutSec so it is
  // guaranteed to hit host 5's live incarnation, not the fence window.
  const double crash1 = 0.25 * clean_total;
  const double crash2 = crash1 + kTsFailoverTimeoutSec + 0.25 * clean_total;
  auto cluster = RackedFaultyCluster(std::make_unique<sim::ScriptedCrashes>(
      std::vector<sim::CrashEvent>{{4, crash1, sim::kNeverTime},
                                   {5, crash2, sim::kNeverTime}}));
  FelaEngine engine(cluster.get(), model::zoo::Vgg19(), PaperConfig(), kBatch);
  const auto stats = engine.Run(kIters);

  ASSERT_EQ(engine.ts_shard_count(), 2);
  EXPECT_EQ(stats.iteration_count(), kIters);
  EXPECT_FALSE(stats.stalled);
  EXPECT_EQ(stats.faults.ts_failovers, 2u);
  EXPECT_EQ(engine.ts_shard_host(1), 6);  // second standby in line
  EXPECT_EQ(engine.ts_shard_incarnation(1), 2);
  EXPECT_TRUE(engine.ts_shard_active(1));
  EXPECT_EQ(engine.ts_shard_incarnation(0), 0);  // root untouched
  ExpectFailoverInvariantsHold(engine);

  // The cross-incarnation ledger: every incarnation's archived stats
  // plus the live server's must balance cluster-wide — nothing stays
  // leased at run end, so grants + restored == completions + reclaimed.
  const TokenServer::Stats cum = engine.CumulativeTsStats();
  EXPECT_EQ(cum.grants + cum.leases_restored,
            cum.completions + cum.tokens_reclaimed);
  EXPECT_EQ(stats.faults.leases_restored, cum.leases_restored);
}

}  // namespace
}  // namespace fela::core
