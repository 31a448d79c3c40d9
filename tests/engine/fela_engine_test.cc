#include "core/fela_engine.h"

#include <gtest/gtest.h>

#include <memory>

#include "model/zoo.h"
#include "runtime/cluster.h"
#include "runtime/experiment.h"
#include "suite/suite.h"

namespace fela::core {
namespace {

std::unique_ptr<runtime::Cluster> CleanCluster(int n = 8) {
  return runtime::Cluster::MakeDefault(n);
}

FelaConfig PaperConfig() {
  FelaConfig cfg = FelaConfig::Defaults(3, 8);
  cfg.weights = {1, 2, 4};
  return cfg;
}

TEST(FelaEngineTest, RunsRequestedIterations) {
  auto cluster = CleanCluster();
  FelaEngine engine(cluster.get(), model::zoo::Vgg19(), PaperConfig(), 128);
  const auto stats = engine.Run(5);
  EXPECT_EQ(stats.iteration_count(), 5);
  EXPECT_GT(stats.total_time, 0.0);
  EXPECT_DOUBLE_EQ(stats.iterations.back().end, stats.total_time);
}

TEST(FelaEngineTest, IterationsAreContiguousAndOrdered) {
  auto cluster = CleanCluster();
  FelaEngine engine(cluster.get(), model::zoo::Vgg19(), PaperConfig(), 128);
  const auto stats = engine.Run(4);
  for (int i = 0; i < 4; ++i) {
    EXPECT_LT(stats.iterations[i].start, stats.iterations[i].end);
    if (i > 0) {
      EXPECT_DOUBLE_EQ(stats.iterations[i].start,
                       stats.iterations[i - 1].end);
    }
  }
}

TEST(FelaEngineTest, EveryWorkerTrainsSomething) {
  auto cluster = CleanCluster();
  FelaEngine engine(cluster.get(), model::zoo::Vgg19(), PaperConfig(), 256);
  engine.Run(3);
  for (int w = 0; w < 8; ++w) {
    EXPECT_GT(engine.worker(w).tokens_trained(), 0) << "worker " << w;
  }
}

TEST(FelaEngineTest, SamplesConservedPerIteration) {
  // The engine itself FELA_CHECKs conservation; verify the numbers too.
  auto cluster = CleanCluster();
  FelaEngine engine(cluster.get(), model::zoo::Vgg19(), PaperConfig(), 128);
  engine.Run(2);
  double samples = 0.0;
  for (int w = 0; w < 8; ++w) samples += engine.worker(w).samples_trained();
  // 3 levels x 128 samples x 2 iterations.
  EXPECT_NEAR(samples, 3.0 * 128 * 2, 1e-6);
}

TEST(FelaEngineTest, DeterministicAcrossRuns) {
  auto c1 = CleanCluster();
  FelaEngine e1(c1.get(), model::zoo::Vgg19(), PaperConfig(), 256);
  const auto s1 = e1.Run(4);
  auto c2 = CleanCluster();
  FelaEngine e2(c2.get(), model::zoo::Vgg19(), PaperConfig(), 256);
  const auto s2 = e2.Run(4);
  EXPECT_DOUBLE_EQ(s1.total_time, s2.total_time);
  EXPECT_DOUBLE_EQ(s1.total_data_bytes, s2.total_data_bytes);
  EXPECT_EQ(s1.control_messages, s2.control_messages);
}

TEST(FelaEngineTest, CtdShrinksSyncTraffic) {
  // §III-F: synchronizing the FC sub-model within S only.
  FelaConfig full = PaperConfig();
  full.ctd_subset_size = 8;
  FelaConfig subset = PaperConfig();
  subset.ctd_subset_size = 1;
  auto c1 = CleanCluster();
  FelaEngine e1(c1.get(), model::zoo::Vgg19(), full, 128);
  const double bytes_full = e1.Run(3).total_data_bytes;
  auto c2 = CleanCluster();
  FelaEngine e2(c2.get(), model::zoo::Vgg19(), subset, 128);
  const double bytes_subset = e2.Run(3).total_data_bytes;
  // FC params are ~86% of VGG19; removing their sync cuts traffic hard.
  EXPECT_LT(bytes_subset, bytes_full * 0.4);
}

TEST(FelaEngineTest, PlanExposedMatchesConfig) {
  auto cluster = CleanCluster();
  FelaEngine engine(cluster.get(), model::zoo::Vgg19(), PaperConfig(), 128);
  EXPECT_EQ(engine.plan().num_levels(), 3);
  EXPECT_EQ(engine.sub_models().size(), 3u);
  EXPECT_EQ(engine.config().weights, PaperConfig().weights);
}

TEST(FelaEngineTest, UserDefinedPartitionWorks) {
  auto cluster = CleanCluster();
  const model::Model m = model::zoo::Vgg19();
  auto sub = model::SubModelsForRanges(
      m, model::ProfileRepository::Default(), {{0, 15}, {16, 18}});
  FelaConfig cfg = FelaConfig::Defaults(2, 8);
  cfg.weights = {1, 4};
  FelaEngine engine(cluster.get(), m, std::move(sub), cfg, 128);
  const auto stats = engine.Run(2);
  EXPECT_EQ(stats.iteration_count(), 2);
}

TEST(FelaEngineTest, SingleSubModelDegeneratesToDataParallelTokens) {
  auto cluster = CleanCluster();
  const model::Model m = model::zoo::Vgg19();
  auto sub = model::SubModelsForRanges(m, model::ProfileRepository::Default(),
                                       {{0, 18}});
  FelaConfig cfg = FelaConfig::Defaults(1, 8);
  FelaEngine engine(cluster.get(), m, std::move(sub), cfg, 128);
  const auto stats = engine.Run(2);
  EXPECT_EQ(stats.iteration_count(), 2);
  double samples = 0.0;
  for (int w = 0; w < 8; ++w) samples += engine.worker(w).samples_trained();
  EXPECT_NEAR(samples, 128.0 * 2, 1e-6);
}

TEST(FelaEngineTest, GoogLeNetRunsToo) {
  auto cluster = CleanCluster();
  FelaConfig cfg = FelaConfig::Defaults(3, 8);
  FelaEngine engine(cluster.get(), model::zoo::GoogLeNet(), cfg, 256);
  const auto stats = engine.Run(3);
  EXPECT_EQ(stats.iteration_count(), 3);
}

TEST(FelaEngineTest, FourWorkerClusterWorks) {
  auto cluster = CleanCluster(4);
  FelaConfig cfg = FelaConfig::Defaults(3, 4);
  cfg.weights = {1, 2, 4};
  FelaEngine engine(cluster.get(), model::zoo::Vgg19(), cfg, 128);
  const auto stats = engine.Run(2);
  EXPECT_EQ(stats.iteration_count(), 2);
}

TEST(FelaEngineTest, StragglerSlowsIterationsDown) {
  // Batch 512 with fine-grained tokens: each worker owns a 4-token STB,
  // so helpers have a backlog to steal from the straggler.
  FelaConfig cfg = FelaConfig::Defaults(3, 8);
  auto clean = CleanCluster();
  FelaEngine e1(clean.get(), model::zoo::Vgg19(), cfg, 512);
  const double t_clean = e1.Run(4).total_time;
  runtime::Cluster slow(8, sim::Calibration::Default(),
                        std::make_unique<sim::RoundRobinStragglers>(8, 2.0));
  FelaEngine e2(&slow, model::zoo::Vgg19(), cfg, 512);
  const double t_slow = e2.Run(4).total_time;
  EXPECT_GT(t_slow, t_clean);
  // Reactive mitigation: the slowdown is well below the full 2s per
  // iteration a BSP barrier would pay.
  EXPECT_LT(t_slow, t_clean + 4 * 2.0 * 0.75);
}

TEST(FelaEngineTest, HelpersStealUnderStragglers) {
  runtime::Cluster slow(8, sim::Calibration::Default(),
                        std::make_unique<sim::RoundRobinStragglers>(8, 4.0));
  FelaConfig cfg = FelaConfig::Defaults(3, 8);  // fine-grained tokens
  FelaEngine engine(&slow, model::zoo::Vgg19(), cfg, 512);
  engine.Run(4);
  EXPECT_GT(engine.token_server().stats().steals, 0u);
}

TEST(FelaEngineTest, AblationAdsOffStillCorrect) {
  auto cluster = CleanCluster();
  FelaConfig cfg = PaperConfig();
  cfg.ads_enabled = false;
  FelaEngine engine(cluster.get(), model::zoo::Vgg19(), cfg, 128);
  const auto stats = engine.Run(3);
  EXPECT_EQ(stats.iteration_count(), 3);
}

TEST(FelaEngineTest, AblationHfOffStillCorrect) {
  auto cluster = CleanCluster();
  FelaConfig cfg = PaperConfig();
  cfg.hf_enabled = false;
  FelaEngine engine(cluster.get(), model::zoo::Vgg19(), cfg, 128);
  const auto stats = engine.Run(3);
  EXPECT_EQ(stats.iteration_count(), 3);
  // Global bucket contention.
  EXPECT_GT(engine.token_server().stats().conflicts, 0u);
}

TEST(FelaEngineTest, HfOffIsSlowerThanHfOn) {
  // The Fig. 7 ablation direction: removing HF hurts.
  auto c1 = CleanCluster();
  FelaEngine on(c1.get(), model::zoo::Vgg19(), PaperConfig(), 256);
  const double t_on = on.Run(4).total_time;
  auto c2 = CleanCluster();
  FelaConfig cfg = PaperConfig();
  cfg.hf_enabled = false;
  FelaEngine off(c2.get(), model::zoo::Vgg19(), cfg, 256);
  const double t_off = off.Run(4).total_time;
  EXPECT_GT(t_off, t_on);
}

TEST(FelaEngineDeathTest, SecondRunAborts) {
  // Run-once is the iteration driver's rule, so every engine keeps it.
  const model::Model vgg = model::zoo::Vgg19();
  const runtime::EngineFactory factories[] = {
      suite::DpFactory(vgg),        suite::PsDpFactory(vgg),
      suite::MpFactory(vgg),        suite::HpFactory(vgg),
      suite::ElasticMpFactory(vgg), suite::FelaFactory(vgg, PaperConfig())};
  for (const runtime::EngineFactory& factory : factories) {
    auto cluster = CleanCluster();
    const std::unique_ptr<runtime::Engine> engine = factory(*cluster, 128);
    engine->Run(1);
    EXPECT_DEATH(engine->Run(1), "once") << engine->name();
  }
}

}  // namespace
}  // namespace fela::core
