#include "common/stats.h"

#include <gtest/gtest.h>

namespace fela::common {
namespace {

TEST(SamplesTest, ExactPercentiles) {
  Samples s;
  for (int i = 1; i <= 100; ++i) s.Add(i);
  EXPECT_DOUBLE_EQ(s.Percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.Percentile(100), 100.0);
  EXPECT_NEAR(s.Median(), 50.5, 1e-9);
  EXPECT_NEAR(s.Percentile(90), 90.1, 1e-9);
}

TEST(SamplesTest, SingleSample) {
  Samples s;
  s.Add(7.0);
  EXPECT_DOUBLE_EQ(s.Percentile(0), 7.0);
  EXPECT_DOUBLE_EQ(s.Percentile(50), 7.0);
  EXPECT_DOUBLE_EQ(s.Percentile(100), 7.0);
}

TEST(SamplesTest, MinMaxMeanSum) {
  Samples s;
  s.Add(3);
  s.Add(1);
  s.Add(2);
  EXPECT_DOUBLE_EQ(s.Min(), 1.0);
  EXPECT_DOUBLE_EQ(s.Max(), 3.0);
  EXPECT_DOUBLE_EQ(s.Mean(), 2.0);
  EXPECT_DOUBLE_EQ(s.Sum(), 6.0);
}

TEST(SamplesDeathTest, PercentileOfEmptyAborts) {
  Samples s;
  EXPECT_DEATH(s.Percentile(50), "Check failed");
}

TEST(NormalizeToUnitTest, MapsToUnitInterval) {
  // The paper's Fig. 6(a) normalization scheme.
  std::vector<double> v = {2.0, 4.0, 6.0};
  auto n = NormalizeToUnit(v);
  EXPECT_DOUBLE_EQ(n[0], 0.0);
  EXPECT_DOUBLE_EQ(n[1], 0.5);
  EXPECT_DOUBLE_EQ(n[2], 1.0);
}

TEST(NormalizeToUnitTest, ConstantSeriesIsZero) {
  auto n = NormalizeToUnit({3.0, 3.0, 3.0});
  for (double x : n) EXPECT_DOUBLE_EQ(x, 0.0);
}

TEST(NormalizeToUnitTest, EmptyInEmptyOut) {
  EXPECT_TRUE(NormalizeToUnit({}).empty());
}

}  // namespace
}  // namespace fela::common
