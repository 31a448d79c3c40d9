// Tokenized-tracing unit tests: the compile-time FNV-1a hash, collision
// detection on known colliding strings, byte-identical re-rendering of
// packed args, and the tokens.csv round trip fela-detok depends on.

#include "common/tokenize.h"

#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/string_util.h"

namespace fela::common {
namespace {

// The hash must be computable at compile time — that is the whole point
// of FELA_TOK.
static_assert(TokenHash32("") == 2166136261u, "FNV-1a basis");

/// Packs `args` exactly as a FELA_TOK call site would and re-renders.
template <typename... Args>
std::string Detok(const char* fmt, Args... args) {
  const TokenizedDetail detail(TokenizedFmt{TokenHash32(fmt), fmt}, args...);
  return DetokFormat(fmt, detail.args);
}

TEST(TokenHashTest, MatchesFnv1aReferenceValues) {
  EXPECT_EQ(TokenHash32(""), 2166136261u);
  EXPECT_EQ(TokenHash32("a"), 0xe40c292cu);
  EXPECT_EQ(TokenHash32("foobar"), 0xbf9cf968u);
  EXPECT_NE(TokenHash32("it=%d"), TokenHash32("it=%u"));
}

TEST(TokenHashTest, KnownCollidingPairsCollide) {
  // Famous 32-bit FNV-1a collisions — the fixtures for collision
  // handling below and in the fela-tokendb scanner tests.
  EXPECT_EQ(TokenHash32("costarring"), TokenHash32("liquid"));
  EXPECT_EQ(TokenHash32("declinate"), TokenHash32("macallums"));
  EXPECT_NE(TokenHash32("costarring"), TokenHash32("declinate"));
}

TEST(TokenRegistryTest, RegisterDetectsCollisions) {
  const uint32_t token = TokenHash32("costarring");
  ASSERT_EQ(token, TokenHash32("liquid"));
  TokenRegistry registry;
  std::string error;
  EXPECT_TRUE(registry.Register(token, "costarring", &error));
  EXPECT_TRUE(registry.Register(token, "costarring", &error));  // idempotent
  EXPECT_FALSE(registry.Register(token, "liquid", &error));
  EXPECT_NE(error.find("collision"), std::string::npos) << error;
  EXPECT_NE(error.find("costarring"), std::string::npos) << error;
  EXPECT_NE(error.find("liquid"), std::string::npos) << error;
  // The first registration survives the rejected one.
  ASSERT_NE(registry.Find(token), nullptr);
  EXPECT_EQ(*registry.Find(token), "costarring");
}

TEST(TokenMacroTest, FelaTokYieldsHashAndRegistersGlobally) {
  const TokenizedFmt fmt = FELA_TOK("tokenize_test unique %d");
  EXPECT_EQ(fmt.token, TokenHash32("tokenize_test unique %d"));
  const std::string* found = TokenRegistry::Global().Find(fmt.token);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(*found, "tokenize_test unique %d");
}

TEST(DetokFormatTest, ByteIdenticalToPrintfAcrossConversions) {
  EXPECT_EQ(Detok("it=%d", -42), StrFormat("it=%d", -42));
  EXPECT_EQ(Detok("w%-3d|", 7), StrFormat("w%-3d|", 7));
  EXPECT_EQ(Detok("|%5d|", 42), StrFormat("|%5d|", 42));
  EXPECT_EQ(Detok("%u", 4000000000u), StrFormat("%u", 4000000000u));
  EXPECT_EQ(Detok("n=%zu", static_cast<size_t>(123456789)),
            StrFormat("n=%zu", static_cast<size_t>(123456789)));
  EXPECT_EQ(Detok("%llu", ~0ull), StrFormat("%llu", ~0ull));
  EXPECT_EQ(Detok("%x/%X", 0xdeadbeefu, 0xcafeu),
            StrFormat("%x/%X", 0xdeadbeefu, 0xcafeu));
  EXPECT_EQ(Detok("%08x", 0xbeefu), StrFormat("%08x", 0xbeefu));
  EXPECT_EQ(Detok("b=%g", 0.25), StrFormat("b=%g", 0.25));
  EXPECT_EQ(Detok("%.4f", 2.718281828), StrFormat("%.4f", 2.718281828));
  EXPECT_EQ(Detok("%e", 1234.5678), StrFormat("%e", 1234.5678));
  EXPECT_EQ(Detok("SM-%d %.1fMB among %zu", 3, 12.5, static_cast<size_t>(4)),
            StrFormat("SM-%d %.1fMB among %zu", 3, 12.5,
                      static_cast<size_t>(4)));
  EXPECT_EQ(Detok("%c%c", 'o', 'k'), StrFormat("%c%c", 'o', 'k'));
  EXPECT_EQ(Detok("100%% done in %d", 3), StrFormat("100%% done in %d", 3));
}

TEST(DetokFormatTest, IntegerWidthModifiersAreTransparent) {
  // %d vs %lld vs %zd: the packed value is always 64-bit, so dropping
  // the call site's length modifier renders the same digits.
  EXPECT_EQ(Detok("Token_%lld b=%g", -9000000000ll, 1.5),
            StrFormat("Token_%lld b=%g", -9000000000ll, 1.5));
  EXPECT_EQ(Detok("%hd", static_cast<short>(-7)),
            StrFormat("%hd", static_cast<short>(-7)));
}

TEST(DetokFormatTest, UnpackableSpecsSurfaceVerbatim) {
  // %s never packs (fela-tokendb rejects it); rendering keeps the spec
  // text instead of inventing bytes. Same for excess specs.
  EXPECT_EQ(Detok("%s unsupported"), "%s unsupported");
  EXPECT_EQ(Detok("%d then %d", 7), "7 then %d");
  EXPECT_EQ(Detok("dangling %"), "dangling %");
}

TEST(DetokFormatTest, DoublesOutsideLongLongUnderIntegerSpecsRenderVerbatim) {
  // No long long holds these, and converting one is undefined: the spec
  // shows as written, as it does for any spec the renderer cannot fill.
  EXPECT_EQ(Detok("it=%d", 1e300), "it=%d");
  EXPECT_EQ(Detok("it=%d", -1e300), "it=%d");
  EXPECT_EQ(Detok("it=%d", std::nan("")), "it=%d");
  EXPECT_EQ(Detok("n=%zu", 0x1p63), "n=%zu");
  // The slot is still consumed, and the range's ends keep their digits.
  EXPECT_EQ(Detok("%x then %d", 1e300, 5), "%x then 5");
  EXPECT_EQ(Detok("%d", -0x1p63), "-9223372036854775808");
  EXPECT_EQ(Detok("%lld", 0x1p63 - 1024.0), "9223372036854774784");
  EXPECT_EQ(Detok("%d", -2.75), "-2");
}

TEST(DetokFormatTest, ToCharsConversionsPrintWhatSnprintfPrints) {
  // Every spec the renderer prints with std::to_chars, against snprintf
  // of the 64-bit spec, over edge values plus a seeded batch. DBL_MAX
  // under %.Nf overflows to_chars's buffer and takes the snprintf path.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<int64_t> ints = {0,         1,         -1,
                               INT64_MIN, INT64_MAX, int64_t{1} << 53};
  std::vector<double> doubles = {0.0,     -0.0,     0.5,      1.5,
                                 2.5,     0.125,    0.0625,   1.0005,
                                 1e-5,    1e-320,   123456.5, 1e15 + 0.5,
                                 DBL_MAX, -DBL_MAX, kInf,     -kInf,
                                 std::nan(""), -std::nan("")};
  Rng rng(20261018);
  for (int k = 0; k < 2000; ++k) {
    ints.push_back(static_cast<int64_t>(rng.Next()));
    ints.push_back(rng.UniformRange(-100000, 100000));
    doubles.push_back(std::bit_cast<double>(rng.Next()));
    doubles.push_back((rng.UniformDouble() - 0.5) *
                      std::pow(10.0, static_cast<double>(
                                         rng.UniformRange(-8, 12))));
  }
  int mismatches = 0;
  const auto expect = [&](const char* spec, const std::string& got,
                          const std::string& want) {
    if (got != want && ++mismatches <= 10) {
      ADD_FAILURE() << spec << ": rendered \"" << got << "\", printf \""
                    << want << "\"";
    }
  };
  for (const int64_t v : ints) {
    const auto ll = static_cast<long long>(v);
    const auto ull = static_cast<unsigned long long>(v);
    for (const char* spec : {"%d", "%i", "%lld"}) {
      expect(spec, Detok(spec, v), StrFormat("%lld", ll));
    }
    for (const char* spec : {"%u", "%llu", "%zu"}) {
      expect(spec, Detok(spec, static_cast<uint64_t>(v)),
             StrFormat("%llu", ull));
    }
  }
  for (const double d : doubles) {
    for (const char* spec : {"%g", "%e", "%.1f", "%.2f", "%.3f", "%.4f"}) {
      expect(spec, Detok(spec, d), StrFormat(spec, d));
    }
  }
  EXPECT_EQ(mismatches, 0);
}

TEST(DetokenizeTest, EmptyAndUnknownTokensRenderHonestly) {
  TokenRegistry registry;  // deliberately empty
  EXPECT_EQ(Detokenize(TokenizedDetail{}, &registry), "");
  TokenizedDetail unknown(TokenizedFmt{0xffu, "?"});
  EXPECT_EQ(Detokenize(unknown, &registry), "<token 000000ff?>");
}

TEST(DetokenizerTest, RendersEachDetailAsDetokenizeDoes) {
  // One Detokenizer across interleaved tokens, known and unknown,
  // appends what a fresh Detokenize of each detail returns.
  TokenRegistry registry;
  ASSERT_TRUE(registry.Register(TokenHash32("it=%d"), "it=%d"));
  ASSERT_TRUE(registry.Register(TokenHash32("b=%g n=%zu"), "b=%g n=%zu"));
  const std::vector<TokenizedDetail> details = {
      TokenizedDetail(TokenizedFmt{TokenHash32("it=%d"), "it=%d"}, 3),
      TokenizedDetail(TokenizedFmt{TokenHash32("b=%g n=%zu"), "b=%g n=%zu"},
                      0.25, size_t{9}),
      TokenizedDetail(TokenizedFmt{0xffu, "?"}),
      TokenizedDetail(),
      TokenizedDetail(TokenizedFmt{TokenHash32("it=%d"), "it=%d"}, -7),
      TokenizedDetail(TokenizedFmt{0xffu, "?"})};
  Detokenizer detok(&registry);
  std::string joined;
  std::string want;
  for (const TokenizedDetail& d : details) {
    detok.Append(d, &joined);
    want += Detokenize(d, &registry);
    joined += '|';
    want += '|';
  }
  EXPECT_EQ(joined,
            "it=3|b=0.25 n=9|<token 000000ff?>||it=-7|<token 000000ff?>|");
  EXPECT_EQ(joined, want);
}

TEST(TokenDbCsvTest, RoundTripsIncludingQuotedQuotes) {
  TokenRegistry registry;
  ASSERT_TRUE(registry.Register(TokenHash32("it=%d"), "it=%d"));
  ASSERT_TRUE(registry.Register(TokenHash32("say \"hi\" %d times"),
                                "say \"hi\" %d times"));
  ASSERT_TRUE(registry.Register(TokenHash32("plain"), "plain"));
  const std::string csv = TokenDbCsv(registry);
  TokenRegistry loaded;
  std::string error;
  ASSERT_TRUE(LoadTokenDbCsv(csv, &loaded, &error)) << error;
  EXPECT_EQ(loaded.Entries(), registry.Entries());
}

TEST(TokenDbCsvTest, MalformedRowsAreRejectedWithLineNumbers) {
  TokenRegistry registry;
  std::string error;
  EXPECT_FALSE(LoadTokenDbCsv("token,fmt\nzz,\"x\"\n", &registry, &error));
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;
  EXPECT_FALSE(LoadTokenDbCsv("token,fmt\n12345678,unquoted\n", &registry,
                              &error));
  EXPECT_FALSE(LoadTokenDbCsv("token,fmt\n12345678,\"open\n", &registry,
                              &error));
  // A width or precision of three digits would size every rendering of
  // the row by it; two digits load.
  EXPECT_FALSE(LoadTokenDbCsv(
      "token,fmt\n0000abcd,\"w=%99d p=%.99f\"\n0000abce,\"w=%100d\"\n",
      &registry, &error));
  EXPECT_NE(error.find("line 3"), std::string::npos) << error;
  EXPECT_NE(error.find("%100d"), std::string::npos) << error;
  EXPECT_FALSE(LoadTokenDbCsv("token,fmt\n0000abcf,\"p=%.100f\"\n",
                              &registry, &error));
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;
  ASSERT_NE(registry.Find(0xabcd), nullptr);
  EXPECT_EQ(registry.Find(0xabce), nullptr);
  EXPECT_EQ(registry.Find(0xabcf), nullptr);
}

TEST(TokArgsTest, TypeTagsTrackSignedness) {
  TokArgs args;
  args.Push(-1);
  args.Push(2u);
  args.Push(0.5);
  ASSERT_EQ(args.count, 3);
  EXPECT_EQ(args.type(0), TokArgType::kInt);
  EXPECT_EQ(args.type(1), TokArgType::kUint);
  EXPECT_EQ(args.type(2), TokArgType::kDouble);
  EXPECT_EQ(args.type(3), TokArgType::kNone);
}

}  // namespace
}  // namespace fela::common
