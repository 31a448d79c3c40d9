#include "common/status.h"

#include <gtest/gtest.h>

namespace fela::common {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, FactoryFunctionsSetCodeAndMessage) {
  EXPECT_EQ(Status::Ok().code(), StatusCode::kOk);
  EXPECT_EQ(Status::InvalidArgument("bad").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::InvalidArgument("bad").message(), "bad");
  EXPECT_FALSE(Status::InvalidArgument("x").ok());
}

TEST(StatusTest, ToStringIncludesCodeNameAndMessage) {
  EXPECT_EQ(Status::InvalidArgument("missing token").ToString(),
            "InvalidArgument: missing token");
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::InvalidArgument("a"), Status::InvalidArgument("a"));
  EXPECT_FALSE(Status::InvalidArgument("a") == Status::InvalidArgument("b"));
  EXPECT_FALSE(Status::InvalidArgument("") == Status::Ok());
}

TEST(StatusTest, StatusCodeNamesAreStable) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeName(StatusCode::kInvalidArgument),
               "InvalidArgument");
}

}  // namespace
}  // namespace fela::common
