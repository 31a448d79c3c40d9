// fela-tokendb scanner tests: FELA_TOK extraction (concatenation,
// escapes, string-literal blindness), format-policy rejection, and
// collision detection on strings crafted to share an FNV-1a hash.

#include "tokendb/tokendb.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/tokenize.h"

namespace fela::tokendb {
namespace {

std::vector<TokenSite> Extract(const std::string& source) {
  std::vector<TokenSite> sites;
  std::string error;
  EXPECT_TRUE(ExtractTokenFmts("x.cc", source, &sites, &error)) << error;
  return sites;
}

TEST(ExtractTest, FindsSitesWithLinesAndUnescapes) {
  const auto sites = Extract(
      "int a;\n"
      "auto t = FELA_TOK(\"it=%d\");\n"
      "auto u = FELA_TOK(\"tab\\t\" \"joined %g\");\n");
  ASSERT_EQ(sites.size(), 2u);
  EXPECT_EQ(sites[0].line, 2);
  EXPECT_EQ(sites[0].fmt, "it=%d");
  EXPECT_EQ(sites[1].line, 3);
  EXPECT_EQ(sites[1].fmt, "tab\tjoined %g");
}

TEST(ExtractTest, SkipsCommentsStringsAndTheMacroDefinition) {
  const auto sites = Extract(
      "// FELA_TOK(\"in a comment %d\")\n"
      "/* FELA_TOK(\"in a block %d\") */\n"
      "const char* s = \"FELA_TOK(\\\"inside a string %s\\\")\";\n"
      "#define FELA_TOK(fmt) ...\n"
      "auto real = FELA_TOK(\"kept %d\");\n");
  ASSERT_EQ(sites.size(), 1u);
  EXPECT_EQ(sites[0].fmt, "kept %d");
  EXPECT_EQ(sites[0].line, 5);
}

TEST(ExtractTest, RejectsPolicyViolations) {
  std::vector<TokenSite> sites;
  std::string error;
  // %s cannot pack into a fixed-width slot.
  EXPECT_FALSE(ExtractTokenFmts("x.cc", "FELA_TOK(\"name=%s\");\n", &sites,
                                &error));
  EXPECT_NE(error.find("x.cc:1"), std::string::npos) << error;
  // More than four conversions exceed the arg slots.
  EXPECT_FALSE(ExtractTokenFmts(
      "x.cc", "FELA_TOK(\"%d %d %d %d %d\");\n", &sites, &error));
  // A non-literal argument cannot be hashed at scan time.
  EXPECT_FALSE(ExtractTokenFmts("x.cc", "FELA_TOK(fmt_var);\n", &sites,
                                &error));
  // A width or precision wider than two digits.
  EXPECT_FALSE(ExtractTokenFmts("x.cc", "\nFELA_TOK(\"w=%100d\");\n",
                                &sites, &error));
  EXPECT_NE(error.find("x.cc:2"), std::string::npos) << error;
  EXPECT_FALSE(ExtractTokenFmts("x.cc", "FELA_TOK(\"p=%.100f\");\n", &sites,
                                &error));
  EXPECT_TRUE(sites.empty());
  EXPECT_TRUE(ExtractTokenFmts("x.cc", "FELA_TOK(\"w=%-10d p=%.12f\");\n",
                               &sites, &error))
      << error;
}

TEST(RegisterSitesTest, DetectsCraftedCollisions) {
  // "costarring" and "liquid" are a known FNV-1a-32 colliding pair: two
  // distinct formats, one token. The scanner must refuse to emit a DB
  // where one row would shadow the other.
  ASSERT_EQ(common::TokenHash32("costarring"), common::TokenHash32("liquid"));
  const std::vector<TokenSite> sites = {
      {"a.cc", 1, "costarring"},
      {"b.cc", 9, "liquid"},
  };
  common::TokenRegistry registry;
  std::string error;
  EXPECT_FALSE(RegisterSites(sites, &registry, &error));
  EXPECT_NE(error.find("costarring"), std::string::npos) << error;
  EXPECT_NE(error.find("liquid"), std::string::npos) << error;

  // The same format at two sites is not a collision.
  const std::vector<TokenSite> dup = {
      {"a.cc", 1, "it=%d"},
      {"b.cc", 2, "it=%d"},
  };
  common::TokenRegistry registry2;
  EXPECT_TRUE(RegisterSites(dup, &registry2, &error)) << error;
  EXPECT_EQ(registry2.size(), 1u);
}

}  // namespace
}  // namespace fela::tokendb
