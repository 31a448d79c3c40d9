#include "common/units.h"

#include <gtest/gtest.h>

namespace fela::common {
namespace {

TEST(UnitsTest, GbpsConversion) {
  // 10 Gbps = 1.25 GB/s.
  EXPECT_DOUBLE_EQ(GbpsToBytesPerSec(10.0), 1.25e9);
  EXPECT_DOUBLE_EQ(GbpsToBytesPerSec(40.0), 5e9);
}

TEST(UnitsTest, ScaleConstants) {
  EXPECT_DOUBLE_EQ(kGiB, 1073741824.0);  // 2^30
}

}  // namespace
}  // namespace fela::common
