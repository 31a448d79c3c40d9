#include "common/json.h"

#include <gtest/gtest.h>

namespace fela::common {
namespace {

TEST(JsonTest, BuildsAndDumpsCompact) {
  Json doc = Json::Object();
  doc.Set("name", "fela");
  doc.Set("n", 3);
  doc.Set("ok", true);
  doc.Set("none", Json());
  Json arr = Json::Array();
  arr.Append(1.5);
  arr.Append("x");
  doc.Set("items", std::move(arr));
  EXPECT_EQ(doc.Dump(),
            R"({"name":"fela","n":3,"ok":true,"none":null,"items":[1.5,"x"]})");
}

TEST(JsonTest, KeyOrderPreservedAndReplaceInPlace) {
  Json doc = Json::Object();
  doc.Set("b", 1);
  doc.Set("a", 2);
  doc.Set("b", 3);  // replaces, keeps slot
  EXPECT_EQ(doc.Dump(), R"({"b":3,"a":2})");
}

TEST(JsonTest, RoundTripsThroughParse) {
  Json doc = Json::Object();
  doc.Set("text", "line1\n\"quoted\"\t\\slash");
  doc.Set("neg", -12.25);
  doc.Set("big", 1e9);
  Json parsed;
  std::string error;
  ASSERT_TRUE(Json::Parse(doc.Dump(), &parsed, &error)) << error;
  EXPECT_EQ(parsed.Find("text")->string_value(), "line1\n\"quoted\"\t\\slash");
  EXPECT_DOUBLE_EQ(parsed.Find("neg")->number_value(), -12.25);
  EXPECT_DOUBLE_EQ(parsed.Find("big")->number_value(), 1e9);
}

TEST(JsonTest, ParsesNestedDocument) {
  const char* text = R"({
    "a": [1, 2, {"k": null}],
    "b": {"c": false, "d": "e"}
  })";
  Json doc;
  std::string error;
  ASSERT_TRUE(Json::Parse(text, &doc, &error)) << error;
  ASSERT_TRUE(doc.Find("a")->is_array());
  EXPECT_EQ(doc.Find("a")->size(), 3u);
  EXPECT_TRUE(doc.Find("a")->at(2).Find("k")->is_null());
  EXPECT_FALSE(doc.Find("b")->Find("c")->bool_value());
  EXPECT_EQ(doc.Find("missing"), nullptr);
}

TEST(JsonTest, RejectsMalformedInput) {
  Json doc;
  std::string error;
  EXPECT_FALSE(Json::Parse("{", &doc, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(Json::Parse("[1, 2,]", &doc, &error));
  EXPECT_FALSE(Json::Parse(R"({"a": 1} trailing)", &doc, &error));
  EXPECT_FALSE(Json::Parse("", &doc, &error));
}

TEST(JsonTest, PrettyPrintIndents) {
  Json doc = Json::Object();
  doc.Set("a", 1);
  const std::string pretty = doc.Dump(2);
  EXPECT_NE(pretty.find("\n  \"a\": 1"), std::string::npos);
}

TEST(JsonTest, QuoteEscapes) {
  std::string out;
  Json::AppendQuoted(&out, "a\"b\\c\n");
  EXPECT_EQ(out, R"("a\"b\\c\n")");
}

TEST(JsonTest, NumbersOutsideTheIntegerRangePrintAsDoubles) {
  // Integral values at or beyond 1e15 take the "%.17g" form; the ones
  // past long long's range must not go through an integer cast.
  EXPECT_EQ(Json(1e300).Dump(), "1.0000000000000001e+300");
  EXPECT_EQ(Json(-1e19).Dump(), "-1e+19");
  EXPECT_EQ(Json(9.3e18).Dump(), "9.3e+18");
  EXPECT_EQ(Json(1e15).Dump(), "1000000000000000");
  EXPECT_EQ(Json(123.5).Dump(), "123.5");
}

}  // namespace
}  // namespace fela::common
