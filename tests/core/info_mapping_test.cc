#include "core/info_mapping.h"

#include <gtest/gtest.h>

namespace fela::core {
namespace {

TEST(InfoMappingTest, CompletionMovesToHolder) {
  InfoMapping info;
  EXPECT_EQ(info.HolderOf(5), -1);
  info.RecordCompleted(5, 2);
  EXPECT_EQ(info.HolderOf(5), 2);
  EXPECT_EQ(info.HolderOf(6), -1);
  EXPECT_EQ(info.completed_count(), 1u);
}

TEST(InfoMappingTest, CompletedBySetGrows) {
  InfoMapping info;
  info.RecordCompleted(1, 0);
  info.RecordCompleted(2, 0);
  info.RecordCompleted(3, 1);
  EXPECT_EQ(info.CompletedBy(0).size(), 2u);
  EXPECT_EQ(info.CompletedBy(1).size(), 1u);
  EXPECT_TRUE(info.CompletedBy(7).empty());
}

TEST(InfoMappingDeathTest, DoubleCompletionAborts) {
  InfoMapping info;
  info.RecordCompleted(1, 0);
  EXPECT_DEATH(info.RecordCompleted(1, 3), "completed twice");
}

TEST(InfoMappingTest, LocalityScorePaperExampleFullMatch) {
  // §III-D: Worker_0 holds Token_2 and Token_3; Token_9 depends on
  // {2, 3} and Token_10 on {4, 5}:
  //   locality_score(0, 9) = 2/2 = 1, locality_score(0, 10) = 0/2 = 0.
  InfoMapping info;
  info.RecordCompleted(2, 0);
  info.RecordCompleted(3, 0);
  info.RecordCompleted(4, 1);
  info.RecordCompleted(5, 1);
  EXPECT_DOUBLE_EQ(info.LocalityScore(0, std::vector<TokenId>{2, 3}), 1.0);
  EXPECT_DOUBLE_EQ(info.LocalityScore(0, std::vector<TokenId>{4, 5}), 0.0);
}

TEST(InfoMappingTest, LocalityScorePaperExampleHalfMatch) {
  // §III-D: if Worker_0 holds Token_3 and Token_4, both candidates score
  // 1/2 = 0.5.
  InfoMapping info;
  info.RecordCompleted(3, 0);
  info.RecordCompleted(4, 0);
  EXPECT_DOUBLE_EQ(info.LocalityScore(0, std::vector<TokenId>{2, 3}), 0.5);
  EXPECT_DOUBLE_EQ(info.LocalityScore(0, std::vector<TokenId>{4, 5}), 0.5);
}

TEST(InfoMappingTest, LocalityScoreEmptyDepsIsOne) {
  InfoMapping info;
  EXPECT_DOUBLE_EQ(info.LocalityScore(0, std::vector<TokenId>{}), 1.0);
}

TEST(InfoMappingTest, LocalityScoreWithTokenDeps) {
  InfoMapping info;
  info.RecordCompleted(10, 4);
  std::vector<TokenDep> deps = {{10, 16.0}, {11, 16.0}};
  EXPECT_DOUBLE_EQ(info.LocalityScore(4, deps), 0.5);
  EXPECT_DOUBLE_EQ(info.LocalityScore(5, deps), 0.0);
}

TEST(InfoMappingTest, ResetClearsEverything) {
  InfoMapping info;
  info.RecordCompleted(2, 0);
  info.Reset();
  EXPECT_EQ(info.HolderOf(2), -1);
  EXPECT_TRUE(info.CompletedBy(0).empty());
  EXPECT_EQ(info.completed_count(), 0u);
}

}  // namespace
}  // namespace fela::core
