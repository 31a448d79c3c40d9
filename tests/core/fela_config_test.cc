#include "core/fela_config.h"

#include <gtest/gtest.h>

#include <limits>

#include "model/zoo.h"

namespace fela::core {
namespace {

std::vector<model::SubModel> Vgg19SubModels() {
  return model::BinPartitioner().Partition(
      model::zoo::Vgg19(), model::ProfileRepository::Default());
}

TEST(FelaConfigTest, DefaultsAreUniform) {
  FelaConfig cfg = FelaConfig::Defaults(3, 8);
  EXPECT_EQ(cfg.weights, (std::vector<int>{1, 1, 1}));
  EXPECT_EQ(cfg.ctd_subset_size, 8);
  EXPECT_TRUE(cfg.ads_enabled);
  EXPECT_TRUE(cfg.hf_enabled);
}

TEST(ValidateConfigTest, AcceptsPaperConfigs) {
  for (auto weights : std::vector<std::vector<int>>{
           {1, 1, 1}, {1, 1, 4}, {1, 2, 4}, {1, 8, 8}}) {
    FelaConfig cfg = FelaConfig::Defaults(3, 8);
    cfg.weights = weights;
    EXPECT_TRUE(ValidateConfig(cfg, 3, 8).ok()) << weights[2];
  }
}

TEST(ValidateConfigTest, RejectsWrongArity) {
  FelaConfig cfg = FelaConfig::Defaults(2, 8);
  EXPECT_FALSE(ValidateConfig(cfg, 3, 8).ok());
}

TEST(ValidateConfigTest, RejectsNonUnitBase) {
  FelaConfig cfg = FelaConfig::Defaults(3, 8);
  cfg.weights = {2, 2, 4};
  EXPECT_FALSE(ValidateConfig(cfg, 3, 8).ok());
}

TEST(ValidateConfigTest, RejectsDecreasingWeights) {
  // §IV-B: w_{i+1} >= w_i.
  FelaConfig cfg = FelaConfig::Defaults(3, 8);
  cfg.weights = {1, 4, 2};
  EXPECT_FALSE(ValidateConfig(cfg, 3, 8).ok());
}

TEST(ValidateConfigTest, RejectsNonPowerOfTwo) {
  FelaConfig cfg = FelaConfig::Defaults(3, 8);
  cfg.weights = {1, 3, 4};
  EXPECT_FALSE(ValidateConfig(cfg, 3, 8).ok());
}

TEST(ValidateConfigTest, RejectsWeightAboveWorkerCount) {
  FelaConfig cfg = FelaConfig::Defaults(3, 8);
  cfg.weights = {1, 8, 16};
  EXPECT_FALSE(ValidateConfig(cfg, 3, 8).ok());
}

TEST(ValidateConfigTest, RejectsBadSubset) {
  FelaConfig cfg = FelaConfig::Defaults(3, 8);
  cfg.ctd_subset_size = 0;
  EXPECT_FALSE(ValidateConfig(cfg, 3, 8).ok());
  cfg.ctd_subset_size = 9;
  EXPECT_FALSE(ValidateConfig(cfg, 3, 8).ok());
}

TEST(BuildPlanTest, PaperSectionThreeBExample) {
  // §III-B: total batch 128, thresholds 16/32/64 => 8 T-1, 4 T-2, 2 T-3
  // tokens with batches 16/32/64 (weights {1,2,4}).
  FelaConfig cfg = FelaConfig::Defaults(3, 8);
  cfg.weights = {1, 2, 4};
  const FelaPlan plan = BuildPlan(model::zoo::Vgg19(), Vgg19SubModels(), cfg,
                                  128, 8);
  ASSERT_EQ(plan.num_levels(), 3);
  EXPECT_EQ(plan.level(0).token_count, 8);
  EXPECT_DOUBLE_EQ(plan.level(0).token_batch, 16);
  EXPECT_EQ(plan.level(1).token_count, 4);
  EXPECT_DOUBLE_EQ(plan.level(1).token_batch, 32);
  EXPECT_EQ(plan.level(2).token_count, 2);
  EXPECT_DOUBLE_EQ(plan.level(2).token_batch, 64);
  EXPECT_EQ(plan.level(1).generation_ratio, 2);
  EXPECT_EQ(plan.level(2).generation_ratio, 2);
  EXPECT_EQ(plan.TotalTokens(), 14);
}

TEST(BuildPlanTest, AtLeastOneTokenPerWorker) {
  // Eq. 2: n_1 = max(total/threshold, N).
  FelaConfig cfg = FelaConfig::Defaults(3, 8);
  const FelaPlan plan =
      BuildPlan(model::zoo::Vgg19(), Vgg19SubModels(), cfg, 64, 8);
  EXPECT_EQ(plan.level(0).token_count, 8);  // 64/16 = 4 < N = 8
  EXPECT_DOUBLE_EQ(plan.level(0).token_batch, 8.0);
}

TEST(BuildPlanTest, SampleConservationPerLevel) {
  for (double batch : {64.0, 128.0, 256.0, 1024.0}) {
    FelaConfig cfg = FelaConfig::Defaults(3, 8);
    cfg.weights = {1, 2, 8};
    const FelaPlan plan =
        BuildPlan(model::zoo::Vgg19(), Vgg19SubModels(), cfg, batch, 8);
    for (const auto& lp : plan.levels) {
      EXPECT_GE(lp.token_batch * lp.token_count, batch)
          << "level " << lp.level << " batch " << batch;
    }
  }
}

TEST(BuildPlanTest, SyncBytesMatchSubModelParams) {
  FelaConfig cfg = FelaConfig::Defaults(3, 8);
  const auto sub = Vgg19SubModels();
  const FelaPlan plan =
      BuildPlan(model::zoo::Vgg19(), sub, cfg, 256, 8);
  for (int i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(plan.level(i).sync_bytes,
                     sub[static_cast<size_t>(i)].params * 4.0);
  }
}

TEST(BuildPlanTest, CommFlagPropagates) {
  FelaConfig cfg = FelaConfig::Defaults(3, 8);
  const FelaPlan plan =
      BuildPlan(model::zoo::Vgg19(), Vgg19SubModels(), cfg, 256, 8);
  EXPECT_FALSE(plan.level(0).communication_intensive);
  EXPECT_TRUE(plan.level(2).communication_intensive);
}

TEST(BuildPlanTest, DepBytesUseBoundaryActivations) {
  FelaConfig cfg = FelaConfig::Defaults(3, 8);
  const auto sub = Vgg19SubModels();
  const FelaPlan plan =
      BuildPlan(model::zoo::Vgg19(), sub, cfg, 256, 8);
  EXPECT_DOUBLE_EQ(plan.level(1).dep_bytes_per_sample,
                   sub[1].input_boundary_elems * 4.0);
  EXPECT_DOUBLE_EQ(plan.level(0).sample_bytes_per_sample,
                   3.0 * 224 * 224 * 4.0);
}

TEST(BuildPlanTest, ToStringListsLevels) {
  FelaConfig cfg = FelaConfig::Defaults(3, 8);
  const FelaPlan plan =
      BuildPlan(model::zoo::Vgg19(), Vgg19SubModels(), cfg, 128, 8);
  const std::string s = plan.ToString();
  EXPECT_NE(s.find("T-1"), std::string::npos);
  EXPECT_NE(s.find("T-3"), std::string::npos);
}

TEST(ValidatePlanInputsTest, AcceptsPaperInputs) {
  FelaConfig cfg = FelaConfig::Defaults(3, 8);
  cfg.weights = {1, 2, 4};
  EXPECT_TRUE(ValidatePlanInputs(model::zoo::Vgg19(), Vgg19SubModels(), cfg,
                                 128, 8)
                  .ok());
}

TEST(ValidatePlanInputsTest, RejectsBadWorkerCount) {
  FelaConfig cfg = FelaConfig::Defaults(3, 8);
  const auto sub = Vgg19SubModels();
  EXPECT_FALSE(
      ValidatePlanInputs(model::zoo::Vgg19(), sub, cfg, 128, 0).ok());
  EXPECT_FALSE(
      ValidatePlanInputs(model::zoo::Vgg19(), sub, cfg, 128, -4).ok());
}

TEST(ValidatePlanInputsTest, RejectsBadTotalBatch) {
  FelaConfig cfg = FelaConfig::Defaults(3, 8);
  const auto sub = Vgg19SubModels();
  EXPECT_FALSE(ValidatePlanInputs(model::zoo::Vgg19(), sub, cfg, 0.0, 8).ok());
  EXPECT_FALSE(
      ValidatePlanInputs(model::zoo::Vgg19(), sub, cfg, -128.0, 8).ok());
  EXPECT_FALSE(ValidatePlanInputs(model::zoo::Vgg19(), sub, cfg,
                                  std::numeric_limits<double>::quiet_NaN(), 8)
                   .ok());
  EXPECT_FALSE(ValidatePlanInputs(model::zoo::Vgg19(), sub, cfg, 1e300, 8)
                   .ok());
}

TEST(ValidatePlanInputsTest, RejectsEmptyPartition) {
  FelaConfig cfg = FelaConfig::Defaults(3, 8);
  EXPECT_FALSE(ValidatePlanInputs(model::zoo::Vgg19(), {}, cfg, 128, 8).ok());
}

TEST(ValidatePlanInputsTest, RejectsLayerRangeOutsideModel) {
  FelaConfig cfg = FelaConfig::Defaults(3, 8);
  auto sub = Vgg19SubModels();
  sub.back().last_layer = model::zoo::Vgg19().layer_count();  // one past end
  EXPECT_FALSE(ValidatePlanInputs(model::zoo::Vgg19(), sub, cfg, 128, 8).ok());
  sub = Vgg19SubModels();
  sub.front().first_layer = -1;
  EXPECT_FALSE(ValidatePlanInputs(model::zoo::Vgg19(), sub, cfg, 128, 8).ok());
  sub = Vgg19SubModels();
  sub.front().last_layer = sub.front().first_layer - 1;  // inverted range
  EXPECT_FALSE(ValidatePlanInputs(model::zoo::Vgg19(), sub, cfg, 128, 8).ok());
}

TEST(ValidatePlanInputsTest, RejectsNonPositiveThreshold) {
  FelaConfig cfg = FelaConfig::Defaults(3, 8);
  auto sub = Vgg19SubModels();
  sub[1].threshold_batch = 0.0;
  EXPECT_FALSE(ValidatePlanInputs(model::zoo::Vgg19(), sub, cfg, 128, 8).ok());
}

TEST(ValidatePlanInputsTest, RejectsConfigPartitionMismatch) {
  // Delegates to ValidateConfig: 2-level config against a 3-way partition.
  FelaConfig cfg = FelaConfig::Defaults(2, 8);
  EXPECT_FALSE(ValidatePlanInputs(model::zoo::Vgg19(), Vgg19SubModels(), cfg,
                                  128, 8)
                   .ok());
}

TEST(FelaConfigTest, ToStringShowsKnobs) {
  FelaConfig cfg = FelaConfig::Defaults(3, 8);
  cfg.weights = {1, 2, 4};
  cfg.ctd_subset_size = 2;
  cfg.ads_enabled = false;
  const std::string s = cfg.ToString();
  EXPECT_NE(s.find("1,2,4"), std::string::npos);
  EXPECT_NE(s.find("subset=2"), std::string::npos);
  EXPECT_NE(s.find("ads=0"), std::string::npos);
}

}  // namespace
}  // namespace fela::core
