#include "model/partition.h"

#include <gtest/gtest.h>

#include "model/zoo.h"

namespace fela::model {
namespace {

TEST(BinPartitionerTest, BinIndexing) {
  BinPartitioner p(16.0);
  EXPECT_EQ(p.BinOf(0.0), 0);
  EXPECT_EQ(p.BinOf(15.9), 0);
  EXPECT_EQ(p.BinOf(16.0), 1);
  EXPECT_EQ(p.BinOf(31.9), 1);
  EXPECT_EQ(p.BinOf(32.0), 2);
  EXPECT_EQ(p.BinOf(2048.0), 128);
}

TEST(BinPartitionerTest, Vgg19MatchesPaperPartition) {
  // §IV-A / Fig. 5: bin size 16 partitions VGG19 into
  // {L1-8 (CONV), L9-16 (CONV), L17-19 (FC)}.
  const auto sub = BinPartitioner().Partition(zoo::Vgg19(),
                                              ProfileRepository::Default());
  ASSERT_EQ(sub.size(), 3u);
  EXPECT_EQ(sub[0].first_layer, 0);
  EXPECT_EQ(sub[0].last_layer, 7);
  EXPECT_EQ(sub[1].first_layer, 8);
  EXPECT_EQ(sub[1].last_layer, 15);
  EXPECT_EQ(sub[2].first_layer, 16);
  EXPECT_EQ(sub[2].last_layer, 18);
}

TEST(BinPartitionerTest, Vgg19RepresentativeThresholds) {
  // Bin lower edges: 16, 32 (and the FC bin edge), the §III-B values.
  const auto sub = BinPartitioner().Partition(zoo::Vgg19(),
                                              ProfileRepository::Default());
  EXPECT_DOUBLE_EQ(sub[0].threshold_batch, 16.0);
  EXPECT_DOUBLE_EQ(sub[1].threshold_batch, 32.0);
  EXPECT_DOUBLE_EQ(sub[2].threshold_batch, 2048.0);
}

TEST(BinPartitionerTest, Vgg19CommIntensityFlags) {
  const auto sub = BinPartitioner().Partition(zoo::Vgg19(),
                                              ProfileRepository::Default());
  EXPECT_FALSE(sub[0].communication_intensive);
  EXPECT_FALSE(sub[1].communication_intensive);
  EXPECT_TRUE(sub[2].communication_intensive);
}

TEST(BinPartitionerTest, GoogLeNetMatchesPaperPartition) {
  // §IV-A: GoogLeNet partitions into {L1-4, L5-9, L10-12 (CONV+FC)}.
  const auto sub = BinPartitioner().Partition(zoo::GoogLeNet(),
                                              ProfileRepository::Default());
  ASSERT_EQ(sub.size(), 3u);
  EXPECT_EQ(sub[0].first_layer, 0);
  EXPECT_EQ(sub[0].last_layer, 3);
  EXPECT_EQ(sub[1].first_layer, 4);
  EXPECT_EQ(sub[1].last_layer, 8);
  EXPECT_EQ(sub[2].first_layer, 9);
  EXPECT_EQ(sub[2].last_layer, 11);
  EXPECT_TRUE(sub[2].communication_intensive);  // contains the FC
}

TEST(BinPartitionerTest, SubModelAggregatesSumToModel) {
  Model m = zoo::Vgg19();
  const auto sub =
      BinPartitioner().Partition(m, ProfileRepository::Default());
  double params = 0.0, flops = 0.0;
  for (const auto& sm : sub) {
    params += sm.params;
    flops += sm.flops_per_sample;
  }
  EXPECT_NEAR(params, m.TotalParams(), 1.0);
  EXPECT_NEAR(flops, m.TotalFlopsPerSample(), 1.0);
}

TEST(BinPartitionerTest, BoundariesChainCorrectly) {
  Model m = zoo::Vgg19();
  const auto sub =
      BinPartitioner().Partition(m, ProfileRepository::Default());
  for (size_t i = 1; i < sub.size(); ++i) {
    EXPECT_DOUBLE_EQ(sub[i].input_boundary_elems,
                     sub[i - 1].output_boundary_elems);
  }
  EXPECT_DOUBLE_EQ(sub[0].input_boundary_elems, m.input_elems_per_sample());
  // The FC input boundary is conv5_4's 512*7*7... (paper: fc6 input is
  // 25088); in our pooling-folded geometry it is 512*14*14.
  EXPECT_DOUBLE_EQ(sub[2].input_boundary_elems, 512.0 * 14 * 14);
}

TEST(BinPartitionerTest, FinerBinsMakeMoreSubModels) {
  Model m = zoo::Vgg19();
  const auto coarse =
      BinPartitioner(64.0).Partition(m, ProfileRepository::Default());
  const auto fine =
      BinPartitioner(4.0).Partition(m, ProfileRepository::Default());
  EXPECT_LE(coarse.size(), 3u);
  EXPECT_GE(fine.size(), 3u);
}

TEST(SubModelsForRangesTest, UserDefinedPartition) {
  Model m = zoo::Vgg19();
  const auto sub = SubModelsForRanges(m, ProfileRepository::Default(),
                                      {{0, 9}, {10, 18}});
  ASSERT_EQ(sub.size(), 2u);
  EXPECT_EQ(sub[0].layer_count(), 10);
  EXPECT_EQ(sub[1].layer_count(), 9);
  EXPECT_TRUE(sub[1].communication_intensive);
}

TEST(SubModelsForRangesDeathTest, RejectsGapsAndBadCoverage) {
  Model m = zoo::Vgg19();
  EXPECT_DEATH(SubModelsForRanges(m, ProfileRepository::Default(),
                                  {{0, 5}, {7, 18}}),
               "Check failed");
  EXPECT_DEATH(
      SubModelsForRanges(m, ProfileRepository::Default(), {{0, 5}}),
      "Check failed");
  EXPECT_DEATH(SubModelsForRanges(m, ProfileRepository::Default(),
                                  {{1, 18}}),
               "Check failed");
}

TEST(EqualLayerCountPartitionTest, EvenSplit) {
  Model m = zoo::GoogLeNet();  // 12 layers
  const auto ranges = EqualLayerCountPartition(m, 4);
  ASSERT_EQ(ranges.size(), 4u);
  for (const auto& [lo, hi] : ranges) EXPECT_EQ(hi - lo + 1, 3);
}

TEST(EqualLayerCountPartitionTest, RemainderGoesToFront) {
  Model m = zoo::Vgg19();  // 19 layers over 8 stages: 3,3,3,2,2,2,2,2
  const auto ranges = EqualLayerCountPartition(m, 8);
  ASSERT_EQ(ranges.size(), 8u);
  EXPECT_EQ(ranges[0].second - ranges[0].first + 1, 3);
  EXPECT_EQ(ranges[7].second - ranges[7].first + 1, 2);
  EXPECT_EQ(ranges.back().second, 18);
}

TEST(SubModelTest, ToStringIsInformative) {
  const auto sub = BinPartitioner().Partition(zoo::Vgg19(),
                                              ProfileRepository::Default());
  const std::string s = sub[2].ToString();
  EXPECT_NE(s.find("SM-3"), std::string::npos);
  EXPECT_NE(s.find("comm-intensive"), std::string::npos);
}

}  // namespace
}  // namespace fela::model
