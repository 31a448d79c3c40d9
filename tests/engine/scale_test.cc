// Scale-out regression suite for the hierarchical fabric + SoA worker
// state: (1) every engine's transcript stays byte-identical run-to-run
// under the composite chaos spec (TS crash + partition + gray latency +
// lossy control plane) — the restructured per-worker hot state must not
// perturb event order; (2) a 1k-worker racked run conserves tokens and
// samples and produces attribution fractions that sum to one; (3) sync
// transfer counts grow linearly, not quadratically, with worker count.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "core/fela_engine.h"
#include "model/partition.h"
#include "model/profile.h"
#include "model/zoo.h"
#include "runtime/determinism.h"
#include "sim/faults.h"
#include "sim/topology.h"
#include "suite/suite.h"

namespace fela::runtime {
namespace {

ExperimentSpec ChaosSpec() {
  ExperimentSpec spec;
  spec.total_batch = 256;
  spec.iterations = 4;
  spec.num_workers = 8;
  return spec;
}

/// The control-plane chaos bench's hardest determinism case, plus a
/// seeded lossy control plane so dropped and duplicated messages (the
/// rewritten SendControl retransmit path) are in the transcript too.
FaultFactory CompositeChaos() {
  return [](int n) -> std::unique_ptr<sim::FaultSchedule> {
    std::vector<std::unique_ptr<sim::FaultSchedule>> parts;
    parts.push_back(std::make_unique<sim::ScriptedCrashes>(
        std::vector<sim::CrashEvent>{{/*worker=*/0, 2.0, 12.0}}));
    sim::PartitionEvent ev;
    ev.start = 4.0;
    ev.end = 8.0;
    for (int w = 0; w < n / 2; ++w) ev.side_a.push_back(w);
    parts.push_back(std::make_unique<sim::NetworkPartition>(
        std::vector<sim::PartitionEvent>{ev}));
    parts.push_back(std::make_unique<sim::GrayFailures>(
        std::vector<sim::GrayEvent>{{/*worker=*/3, 5.0, 30.0, 4.0}}));
    parts.push_back(std::make_unique<sim::LossyControlPlane>(
        /*drop_prob=*/0.05, /*dup_prob=*/0.05, /*seed=*/11));
    return std::make_unique<sim::CompositeFaults>(std::move(parts));
  };
}

void ExpectChaosDeterministic(const EngineFactory& factory,
                              ExperimentSpec spec = ChaosSpec()) {
  const DeterminismReport report = VerifyDeterminism(
      spec, factory, NoStragglerFactory(), CompositeChaos());
  EXPECT_TRUE(report.deterministic) << report.ToString();
  EXPECT_NE(report.hash_first, 0u);
}

int Vgg19Levels() {
  return static_cast<int>(
      model::BinPartitioner()
          .Partition(model::zoo::Vgg19(), model::ProfileRepository::Default())
          .size());
}

TEST(ScaleChaosDeterminism, FelaEngine) {
  ExpectChaosDeterministic(suite::FelaFactory(
      model::zoo::Vgg19(), core::FelaConfig::Defaults(Vgg19Levels(), 8)));
}

TEST(ScaleChaosDeterminism, DpEngine) {
  ExpectChaosDeterministic(suite::DpFactory(model::zoo::Vgg19()));
}

TEST(ScaleChaosDeterminism, PsDpEngine) {
  ExpectChaosDeterministic(suite::PsDpFactory(model::zoo::Vgg19()));
}

TEST(ScaleChaosDeterminism, MpEngine) {
  ExpectChaosDeterministic(suite::MpFactory(model::zoo::Vgg19()));
}

TEST(ScaleChaosDeterminism, HpEngine) {
  ExpectChaosDeterministic(suite::HpFactory(model::zoo::GoogLeNet()));
}

TEST(ScaleChaosDeterminism, ElasticMpEngine) {
  ExpectChaosDeterministic(suite::ElasticMpFactory(model::zoo::Vgg19()));
}

TEST(ScaleChaosDeterminism, FelaOnRackedTopology) {
  // The hierarchical collective and rack channels must replay
  // byte-identically under the same chaos.
  ExperimentSpec spec = ChaosSpec();
  spec.calibration.topology = sim::Topology::Racked(4, 5e9, 5e-6);
  ExpectChaosDeterministic(
      suite::FelaFactory(model::zoo::Vgg19(),
                         core::FelaConfig::Defaults(Vgg19Levels(), 8)),
      spec);
}

// The 1k-worker smoke: a racked Fela run at the bench's scale point must
// finish with a clean token ledger, exact sample conservation, and
// attribution fractions that sum to one on every worker.
TEST(ThousandWorkerSmoke, TokenLedgerSamplesAndAttribution) {
  const int kWorkers = 1024;
  const int kIterations = 2;
  const int levels = Vgg19Levels();
  ExperimentSpec spec;
  spec.total_batch = 16.0 * kWorkers;
  spec.iterations = kIterations;
  spec.num_workers = kWorkers;
  spec.calibration.topology = sim::Topology::Racked(32, 5e9, 5e-6);
  spec.observe = true;
  bool probed = false;
  spec.post_run_probe = [&](const Engine& engine, Cluster& cluster) {
    probed = true;
    const auto& fela = dynamic_cast<const core::FelaEngine&>(engine);
    EXPECT_TRUE(fela.token_server().CheckInvariants().empty());
    double samples = 0.0;
    for (int w = 0; w < kWorkers; ++w) {
      samples += fela.worker(w).samples_trained();
    }
    EXPECT_NEAR(samples, spec.total_batch * levels * kIterations,
                spec.total_batch * 1e-9);
    // The racked fabric actually routed cross-rack traffic.
    EXPECT_GT(cluster.fabric().cross_rack_transfer_count(), 0u);
    // Waiters are served in one pass that stops when the buckets run
    // dry, so a grant costs about one attempt, not a re-scan of every
    // parked worker.
    const core::TokenServer::Stats ts = fela.token_server().stats();
    EXPECT_LE(ts.grant_attempts, 2 * ts.grants);
  };
  const ExperimentResult result = RunExperiment(
      spec,
      suite::FelaFactory(model::zoo::Vgg19(),
                         core::FelaConfig::Defaults(levels, kWorkers)),
      NoStragglerFactory());
  EXPECT_TRUE(probed);
  EXPECT_FALSE(result.stats.stalled);
  EXPECT_EQ(result.stats.iteration_count(), kIterations);
  ASSERT_TRUE(result.observed);
  ASSERT_EQ(static_cast<int>(result.attribution.workers.size()), kWorkers);
  for (const auto& w : result.attribution.workers) {
    if (w.run.total <= 0.0) continue;
    double sum = 0.0;
    for (const double s : w.run.seconds) sum += s;
    EXPECT_NEAR(sum / w.run.total, 1.0, 1e-9);
  }
  const obs::PhaseBreakdown cluster_wide = result.attribution.Cluster();
  double cluster_sum = 0.0;
  for (const double s : cluster_wide.seconds) cluster_sum += s;
  EXPECT_NEAR(cluster_sum / cluster_wide.total, 1.0, 1e-9);
}

// Linearity regression at engine level: quadrupling the workers on the
// racked fabric must not grow per-iteration sync transfers by ~16x (the
// quadratic ring signature); the hierarchical collective keeps it ~4x.
TEST(ScaleLinearity, SyncTransfersGrowLinearlyWithWorkers) {
  const int levels = Vgg19Levels();
  auto transfers_at = [&](int workers) {
    ExperimentSpec spec;
    spec.total_batch = 16.0 * workers;
    spec.iterations = 2;
    spec.num_workers = workers;
    spec.calibration.topology = sim::Topology::Racked(32, 5e9, 5e-6);
    uint64_t transfers = 0;
    spec.post_run_probe = [&transfers](const Engine&, Cluster& cluster) {
      transfers = cluster.fabric().data_transfer_count();
    };
    const ExperimentResult result = RunExperiment(
        spec,
        suite::FelaFactory(model::zoo::Vgg19(),
                           core::FelaConfig::Defaults(levels, workers)),
        NoStragglerFactory());
    EXPECT_FALSE(result.stats.stalled);
    return transfers;
  };
  const uint64_t at64 = transfers_at(64);
  const uint64_t at256 = transfers_at(256);
  ASSERT_GT(at64, 0u);
  // Linear scaling predicts 4x; leave headroom for per-rack constants.
  EXPECT_LT(at256, at64 * 8u);
  EXPECT_GT(at256, at64);
}

}  // namespace
}  // namespace fela::runtime
