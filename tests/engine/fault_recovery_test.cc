// Fault-tolerance integration tests: token reclamation, elastic
// re-admission, the DP fail-stop contrast, liveness under a lossy
// control plane, and bit-identical replay of faulty runs.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>

#include "baselines/dp_engine.h"
#include "baselines/ps_engine.h"
#include "core/fela_engine.h"
#include "model/zoo.h"
#include "runtime/cluster.h"
#include "sim/faults.h"

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

/// Clean-run iteration timings; faulty runs replay these exactly up to
/// the first fault event, so crash instants computed from them land at a
/// known spot of the faulty run too.
runtime::RunStats CleanFelaStats(int iterations, double batch) {
  auto cluster = runtime::Cluster::MakeDefault(8);
  FelaEngine engine(cluster.get(), model::zoo::Vgg19(), PaperConfig(), batch);
  return engine.Run(iterations);
}

TEST(FaultRecoveryTest, CrashMidIterationReclaimsTokensAndCompletes) {
  const int kIters = 6;
  const double kBatch = 512.0;
  const auto clean = CleanFelaStats(kIters, kBatch);

  // Crash worker 3 shortly after iteration 2 starts (its STB grant is in
  // flight or computing), recover it mid-run.
  const auto& it2 = clean.iterations[2];
  const double crash = it2.start + 0.2 * (it2.end - it2.start);
  const double recover = 0.6 * clean.total_time;
  auto cluster = FaultyCluster(std::make_unique<sim::ScriptedCrashes>(
      std::vector<sim::CrashEvent>{{3, crash, recover}}));
  FelaEngine engine(cluster.get(), model::zoo::Vgg19(), PaperConfig(), kBatch);
  const auto stats = engine.Run(kIters);

  EXPECT_EQ(stats.iteration_count(), kIters);
  EXPECT_FALSE(stats.stalled);
  EXPECT_GT(stats.total_time, clean.total_time);  // degradation, not free
  EXPECT_EQ(stats.faults.crashes, 1u);
  EXPECT_EQ(stats.faults.recoveries, 1u);
  EXPECT_GE(stats.faults.readmissions, 1u);
  EXPECT_TRUE(engine.admitted(3));  // back in the fold at the end

  // Token accounting balances: every grant either completed or was
  // reclaimed, and the crash reclaimed the in-flight grant.
  const auto& ts = engine.ts_stats();
  EXPECT_EQ(ts.grants, ts.completions + ts.tokens_reclaimed);
  EXPECT_GE(ts.tokens_reclaimed, 1u);
  EXPECT_EQ(stats.faults.tokens_reclaimed, ts.tokens_reclaimed);

  // Crash-only fault model: nothing trains without a live grant, and no
  // accepted completion lacks a trained token.
  uint64_t trained = 0;
  for (int w = 0; w < 8; ++w) trained += engine.worker(w).tokens_trained();
  EXPECT_GE(trained, ts.completions);
  EXPECT_LE(trained, ts.grants);
}

TEST(FaultRecoveryTest, FailStopCrashStallsDpButNotFela) {
  const int kIters = 4;
  const double kBatch = 512.0;
  const model::Model vgg = model::zoo::Vgg19();

  double dp_clean = 0.0;
  {
    auto cluster = runtime::Cluster::MakeDefault(8);
    baselines::DpEngine dp(cluster.get(), vgg, kBatch);
    dp_clean = dp.Run(kIters).total_time;
  }
  const double fela_clean = CleanFelaStats(kIters, kBatch).total_time;
  // Early enough to land mid-run for both engines.
  const double crash = 0.4 * std::min(dp_clean, fela_clean);
  auto schedule = [crash] {
    return std::make_unique<sim::ScriptedCrashes>(
        std::vector<sim::CrashEvent>{{5, crash, sim::kNeverTime}});
  };

  auto dp_cluster = FaultyCluster(schedule());
  baselines::DpEngine dp(dp_cluster.get(), vgg, kBatch);
  const auto dp_stats = dp.Run(kIters);
  EXPECT_TRUE(dp_stats.stalled);  // barrier waits for worker 5 forever
  EXPECT_LT(dp_stats.iteration_count(), kIters);
  EXPECT_GE(dp_stats.faults.crashes, 1u);

  auto fela_cluster = FaultyCluster(schedule());
  FelaEngine fela(fela_cluster.get(), vgg, PaperConfig(), kBatch);
  const auto fela_stats = fela.Run(kIters);
  EXPECT_FALSE(fela_stats.stalled);
  EXPECT_EQ(fela_stats.iteration_count(), kIters);
  EXPECT_EQ(fela_stats.faults.crashes, 1u);
  EXPECT_EQ(fela_stats.faults.recoveries, 0u);
  EXPECT_FALSE(fela.admitted(5));  // scaled in around the dead worker
  const auto& ts = fela.ts_stats();
  EXPECT_EQ(ts.grants, ts.completions + ts.tokens_reclaimed);
}

TEST(FaultRecoveryTest, FailStopCrashAbortsPs) {
  const int kIters = 4;
  const double kBatch = 512.0;
  const model::Model vgg = model::zoo::Vgg19();
  double ps_clean = 0.0;
  {
    auto cluster = runtime::Cluster::MakeDefault(8);
    baselines::PsDpEngine ps(cluster.get(), vgg, kBatch);
    ps_clean = ps.Run(kIters).total_time;
  }
  auto cluster = FaultyCluster(std::make_unique<sim::ScriptedCrashes>(
      std::vector<sim::CrashEvent>{{5, 0.4 * ps_clean, sim::kNeverTime}}));
  baselines::PsDpEngine ps(cluster.get(), vgg, kBatch);
  const auto stats = ps.Run(kIters);
  EXPECT_TRUE(stats.stalled);
  EXPECT_LT(stats.iteration_count(), kIters);
}

TEST(FaultRecoveryTest, LossyControlPlaneRecoversViaLeasesAndRetries) {
  const int kIters = 4;
  auto cluster = FaultyCluster(
      std::make_unique<sim::LossyControlPlane>(0.08, 0.05, 77));
  FelaEngine engine(cluster.get(), model::zoo::Vgg19(), PaperConfig(), 256);
  const auto stats = engine.Run(kIters);

  EXPECT_EQ(stats.iteration_count(), kIters);
  EXPECT_FALSE(stats.stalled);
  EXPECT_GT(stats.faults.control_dropped, 0u);
  const auto& ts = engine.ts_stats();
  EXPECT_EQ(ts.grants, ts.completions + ts.tokens_reclaimed);
  // Dropped messages surface as retries and/or expired leases; the run
  // must have exercised at least one recovery mechanism.
  EXPECT_GT(stats.faults.request_retries + ts.lease_expirations, 0u);
}

TEST(FaultRecoveryTest, SameFaultSeedReplaysByteIdentically) {
  const int kIters = 5;
  const double kBatch = 512.0;
  const double clean_total = CleanFelaStats(kIters, kBatch).total_time;

  // Scale the crash windows to the run so faults actually fire.
  auto schedule = [clean_total] {
    return std::make_unique<sim::RandomCrashes>(
        8, /*crash_prob=*/0.5, /*window_sec=*/clean_total / 6.0,
        /*down_sec=*/clean_total / 8.0, /*seed=*/20200420);
  };

  auto run = [&](std::string* trace_out) {
    auto cluster = FaultyCluster(schedule());
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
  EXPECT_GE(s1.faults.crashes, 1u);  // the schedule was not a no-op
  EXPECT_DOUBLE_EQ(s1.total_time, s2.total_time);
  EXPECT_EQ(s1.control_messages, s2.control_messages);
  EXPECT_EQ(s1.faults.crashes, s2.faults.crashes);
  EXPECT_EQ(s1.faults.tokens_reclaimed, s2.faults.tokens_reclaimed);
  EXPECT_EQ(trace1, trace2);
  EXPECT_FALSE(trace1.empty());
}

TEST(FaultRecoveryTest, CleanRunUnchangedByFaultPlumbing) {
  // NoFaults must not alter the event sequence: a cluster built with an
  // explicit NoFaults equals the default cluster, trace-for-trace.
  auto run = [](std::unique_ptr<sim::FaultSchedule> faults,
                std::string* trace_out) {
    auto cluster = FaultyCluster(std::move(faults));
    cluster->trace().set_enabled(true);
    FelaEngine engine(cluster.get(), model::zoo::Vgg19(), PaperConfig(), 256);
    const auto stats = engine.Run(3);
    *trace_out = cluster->trace().ToString();
    return stats;
  };
  std::string t1, t2;
  const auto s1 = run(nullptr, &t1);
  const auto s2 = run(std::make_unique<sim::NoFaults>(), &t2);
  EXPECT_DOUBLE_EQ(s1.total_time, s2.total_time);
  EXPECT_EQ(t1, t2);
  EXPECT_FALSE(s1.faults.any());
  EXPECT_FALSE(s1.stalled);
}

}  // namespace
}  // namespace fela::core
