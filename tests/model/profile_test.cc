#include "model/profile.h"

#include <gtest/gtest.h>

namespace fela::model {
namespace {

TEST(ProfileRepositoryTest, RegisterAndLookup) {
  ProfileRepository repo;
  repo.Register("conv(1,2,3,4,k3)", 24.0);
  EXPECT_DOUBLE_EQ(repo.Lookup("conv(1,2,3,4,k3)"), 24.0);
  EXPECT_DOUBLE_EQ(repo.Lookup("unknown"), 0.0);
  EXPECT_TRUE(repo.Contains("conv(1,2,3,4,k3)"));
  EXPECT_FALSE(repo.Contains("unknown"));
  EXPECT_EQ(repo.size(), 1u);
}

TEST(ProfileRepositoryTest, ReRegisterOverwrites) {
  ProfileRepository repo;
  repo.Register("fc(8,8)", 100.0);
  repo.Register("fc(8,8)", 200.0);
  EXPECT_DOUBLE_EQ(repo.Lookup("fc(8,8)"), 200.0);
  EXPECT_EQ(repo.size(), 1u);
}

TEST(ProfileRepositoryTest, ExplicitLayerThresholdWins) {
  ProfileRepository repo;
  Layer l = Layer::Conv("x", 64, 64, 224, 224);
  repo.Register(l.ShapeKey(), 99.0);
  l.threshold_batch = 7.0;
  EXPECT_DOUBLE_EQ(repo.ThresholdFor(l), 7.0);
}

TEST(ProfileRepositoryTest, RepositoryBeatsHeuristic) {
  ProfileRepository repo;
  Layer l = Layer::Conv("x", 64, 64, 224, 224);
  repo.Register(l.ShapeKey(), 99.0);
  EXPECT_DOUBLE_EQ(repo.ThresholdFor(l), 99.0);
}

TEST(ProfileRepositoryTest, HeuristicIsLastResort) {
  ProfileRepository repo;
  Layer l = Layer::Conv("x", 64, 64, 224, 224);
  EXPECT_DOUBLE_EQ(repo.ThresholdFor(l), HeuristicThreshold(l));
}

TEST(ProfileRepositoryTest, DefaultHasFigureOneShapes) {
  const ProfileRepository& repo = ProfileRepository::Default();
  EXPECT_TRUE(repo.Contains("conv(64,64,224,224,k3)"));
  EXPECT_TRUE(repo.Contains("conv(512,512,14,14,k3)"));
  EXPECT_TRUE(repo.Contains("fc(4096,4096)"));
  EXPECT_DOUBLE_EQ(repo.Lookup("conv(64,64,224,224,k3)"), 16.0);
}

TEST(HeuristicTest, FrontConvAnchorsAt16) {
  EXPECT_NEAR(HeuristicThreshold(Layer::Conv("x", 64, 64, 224, 224)), 16.0,
              0.1);
}

TEST(HeuristicTest, SmallerFeatureMapsNeedBiggerBatches) {
  const double front =
      HeuristicThreshold(Layer::Conv("a", 64, 64, 224, 224));
  const double back = HeuristicThreshold(Layer::Conv("b", 512, 512, 14, 14));
  EXPECT_GT(back, front);
  EXPECT_LE(back, 64.0);  // clamped to the profiled CONV range
}

TEST(HeuristicTest, FcAnchorsAt2048) {
  EXPECT_NEAR(HeuristicThreshold(Layer::Fc("x", 4096, 4096)), 2048.0, 1.0);
}

TEST(HeuristicTest, FcClampRange) {
  EXPECT_LE(HeuristicThreshold(Layer::Fc("x", 100, 10)), 4096.0);
  EXPECT_GE(HeuristicThreshold(Layer::Fc("x", 64000, 64000)), 256.0);
}

}  // namespace
}  // namespace fela::model
