#include "common/string_util.h"

#include <gtest/gtest.h>

namespace fela::common {
namespace {

TEST(StrFormatTest, FormatsLikePrintf) {
  EXPECT_EQ(StrFormat("%d-%s-%.2f", 3, "x", 1.5), "3-x-1.50");
}

TEST(StrFormatTest, EmptyFormat) { EXPECT_EQ(StrFormat("%s", ""), ""); }

TEST(StrFormatTest, LongOutput) {
  std::string s = StrFormat("%0512d", 7);
  EXPECT_EQ(s.size(), 512u);
  EXPECT_EQ(s.back(), '7');
}

TEST(JoinTest, JoinsWithSeparator) {
  std::vector<int> v = {1, 2, 3};
  EXPECT_EQ(Join(v, ","), "1,2,3");
}

TEST(JoinTest, SingleAndEmpty) {
  EXPECT_EQ(Join(std::vector<int>{5}, ","), "5");
  EXPECT_EQ(Join(std::vector<int>{}, ","), "");
}

TEST(JoinTest, JoinsStrings) {
  std::vector<std::string> v = {"a", "b"};
  EXPECT_EQ(Join(v, " | "), "a | b");
}

TEST(SplitTest, SplitsAndKeepsEmptyFields) {
  auto parts = Split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(SplitTest, NoSeparator) {
  auto parts = Split("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

}  // namespace
}  // namespace fela::common
