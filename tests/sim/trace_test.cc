#include "sim/trace.h"

#include <gtest/gtest.h>

#include <iterator>
#include <set>

namespace fela::sim {
namespace {

TEST(TraceTest, DisabledByDefault) {
  TraceRecorder t;
  EXPECT_FALSE(t.enabled());
  t.Record(1.0, 0, TraceKind::kComputeStart,
           common::TokenizedDetail(FELA_TOK("x")));
  EXPECT_TRUE(t.events().empty());
}

TEST(TraceTest, RecordsWhenEnabled) {
  TraceRecorder t;
  t.set_enabled(true);
  t.Record(1.5, 3, TraceKind::kTokenGrant,
           common::TokenizedDetail(FELA_TOK("Token_%d"), 7));
  ASSERT_EQ(t.events().size(), 1u);
  EXPECT_DOUBLE_EQ(t.events()[0].time, 1.5);
  EXPECT_EQ(t.events()[0].node, 3);
  EXPECT_EQ(t.events()[0].kind, TraceKind::kTokenGrant);
  EXPECT_EQ(t.events()[0].detail, "Token_7");
}

TEST(TraceTest, CapacityBoundsDrops) {
  TraceRecorder t(2);
  t.set_enabled(true);
  for (int i = 0; i < 5; ++i) {
    t.Record(i, 0, TraceKind::kComputeEnd);
  }
  EXPECT_EQ(t.events().size(), 2u);
  EXPECT_EQ(t.dropped(), 3u);
}

TEST(TraceTest, RingKeepsMostRecentWindowOldestFirst) {
  TraceRecorder t(3);
  t.set_enabled(true);
  for (int i = 0; i < 7; ++i) {
    t.Record(i, 0, TraceKind::kComputeEnd,
             common::TokenizedDetail(FELA_TOK("%d"), i));
  }
  EXPECT_EQ(t.dropped(), 4u);
  const auto events = t.events();
  ASSERT_EQ(events.size(), 3u);
  // A crash post-mortem needs the tail of the run: newest three survive,
  // returned oldest-first.
  EXPECT_EQ(events[0].detail, "4");
  EXPECT_EQ(events[1].detail, "5");
  EXPECT_EQ(events[2].detail, "6");
  EXPECT_DOUBLE_EQ(events[0].time, 4.0);
}

TEST(TraceTest, FelaTraceMacroIsNullSafeAndLazy) {
  TraceRecorder* null_rec = nullptr;
  FELA_TRACE(null_rec, 0.0, 0, TraceKind::kSyncStart, FELA_TOK("never"));

  TraceRecorder t;
  int calls = 0;
  auto arg = [&calls] {
    ++calls;
    return 7;
  };
  FELA_TRACE(&t, 0.0, 1, TraceKind::kSyncStart, FELA_TOK("n=%d"), arg());
  EXPECT_EQ(calls, 0);  // disabled: arg expressions not evaluated
  t.set_enabled(true);
  FELA_TRACE(&t, 2.0, 1, TraceKind::kSyncStart, FELA_TOK("n=%d"), arg());
  EXPECT_EQ(calls, 1);
  ASSERT_EQ(t.events().size(), 1u);
  EXPECT_EQ(t.events()[0].node, 1);
  EXPECT_EQ(t.events()[0].detail, "n=7");
}

TEST(TraceTest, ClearResets) {
  TraceRecorder t(1);
  t.set_enabled(true);
  t.Record(0, 0, TraceKind::kSyncStart);
  t.Record(0, 0, TraceKind::kSyncEnd);
  t.Clear();
  EXPECT_TRUE(t.events().empty());
  EXPECT_EQ(t.dropped(), 0u);
}

TEST(TraceTest, ToStringContainsKindNames) {
  TraceRecorder t;
  t.set_enabled(true);
  t.Record(0.25, 2, TraceKind::kHelperSteal,
           common::TokenizedDetail(FELA_TOK("from w%d"), 5));
  const std::string s = t.ToString();
  EXPECT_NE(s.find("HelperSteal"), std::string::npos);
  EXPECT_NE(s.find("from w5"), std::string::npos);
  EXPECT_NE(s.find("w2"), std::string::npos);
}

TEST(TraceTest, EveryKindNameUniqueAndNonEmpty) {
  // kNumTraceKinds tracks the enum (static_assert in trace.cc), so this
  // loop covers every kind — a new kind with a missing, empty, or
  // duplicated name fails here even if the -Werror=switch gate is
  // somehow bypassed.
  std::set<std::string> names;
  for (int k = 0; k < kNumTraceKinds; ++k) {
    const char* name = TraceKindName(static_cast<TraceKind>(k));
    ASSERT_NE(name, nullptr);
    EXPECT_STRNE(name, "");
    EXPECT_STRNE(name, "Unknown");
    names.insert(name);
  }
  EXPECT_EQ(names.size(), static_cast<size_t>(kNumTraceKinds));
}

}  // namespace
}  // namespace fela::sim
