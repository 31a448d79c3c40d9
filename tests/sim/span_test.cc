#include "sim/span.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/json.h"
#include "sim/chrome_trace.h"
#include "sim/trace.h"

namespace fela::obs {
namespace {

TEST(PhaseTest, NamesAreDistinctAndStable) {
  EXPECT_STREQ(PhaseName(Phase::kCompute), "compute");
  EXPECT_STREQ(PhaseName(Phase::kSyncWait), "sync_wait");
  EXPECT_STREQ(PhaseName(Phase::kTransfer), "transfer");
  EXPECT_STREQ(PhaseName(Phase::kTokenWait), "token_wait");
  EXPECT_STREQ(PhaseName(Phase::kStraggler), "straggler");
  EXPECT_STREQ(PhaseName(Phase::kCrashed), "crashed");
  EXPECT_STREQ(PhaseName(Phase::kIteration), "iteration");
  EXPECT_STREQ(PhaseName(Phase::kIdle), "idle");
}

TEST(SpanSinkTest, DisabledSinkRecordsNothing) {
  SpanSink sink;
  EXPECT_FALSE(sink.enabled());
  sink.Emit(Span{0, Phase::kCompute, 0.0, 1.0, 0, {}});
  { ScopedSpan s(&sink, 0, Phase::kCompute); }
  EXPECT_EQ(sink.size(), 0u);
  EXPECT_EQ(sink.dropped(), 0u);
}

TEST(SpanSinkTest, RingEvictsOldest) {
  SpanSink sink(/*capacity=*/3);
  sink.set_enabled(true);
  for (int i = 0; i < 5; ++i) {
    sink.Emit(Span{0, Phase::kCompute, static_cast<double>(i),
                   static_cast<double>(i + 1), i, {}});
  }
  EXPECT_EQ(sink.dropped(), 2u);
  const auto spans = sink.spans();
  ASSERT_EQ(spans.size(), 3u);
  // Newest three survive, oldest-first order.
  EXPECT_EQ(spans[0].iteration, 2);
  EXPECT_EQ(spans[1].iteration, 3);
  EXPECT_EQ(spans[2].iteration, 4);
}

TEST(SpanSinkTest, ClearResetsRing) {
  SpanSink sink(/*capacity=*/2);
  sink.set_enabled(true);
  for (int i = 0; i < 4; ++i) {
    sink.Emit(Span{0, Phase::kCompute, 0.0, 1.0, i, {}});
  }
  sink.Clear();
  EXPECT_EQ(sink.size(), 0u);
  EXPECT_EQ(sink.dropped(), 0u);
  sink.Emit(Span{0, Phase::kCompute, 0.0, 1.0, 7, {}});
  ASSERT_EQ(sink.spans().size(), 1u);
  EXPECT_EQ(sink.spans()[0].iteration, 7);
}

TEST(ScopedSpanTest, ReadsClockAtBeginAndEnd) {
  SpanSink sink;
  sink.set_enabled(true);
  double now = 2.5;
  sink.set_clock([&now] { return now; });
  {
    ScopedSpan s(&sink, 4, Phase::kTokenWait, 9,
                 common::TokenizedDetail(FELA_TOK("waiting")));
    now = 4.0;
  }
  ASSERT_EQ(sink.size(), 1u);
  const std::vector<Span> spans = sink.spans();
  const Span& s = spans[0];
  EXPECT_EQ(s.track, 4);
  EXPECT_EQ(s.phase, Phase::kTokenWait);
  EXPECT_DOUBLE_EQ(s.begin, 2.5);
  EXPECT_DOUBLE_EQ(s.end, 4.0);
  EXPECT_EQ(s.iteration, 9);
  EXPECT_EQ(common::Detokenize(s.detail), "waiting");
}

TEST(ScopedSpanTest, CloseIsIdempotentAndCancelDiscards) {
  SpanSink sink;
  sink.set_enabled(true);
  double now = 0.0;
  sink.set_clock([&now] { return now; });
  {
    ScopedSpan s(&sink, 0, Phase::kCompute);
    now = 1.0;
    s.Close();
    s.Close();  // no double emission
  }
  EXPECT_EQ(sink.size(), 1u);
  {
    ScopedSpan s(&sink, 0, Phase::kCompute);
    s.Cancel();
  }
  EXPECT_EQ(sink.size(), 1u);
}

TEST(ScopedSpanTest, MoveTransfersOwnership) {
  SpanSink sink;
  sink.set_enabled(true);
  double now = 0.0;
  sink.set_clock([&now] { return now; });
  {
    ScopedSpan a(&sink, 1, Phase::kSyncWait);
    ScopedSpan b = std::move(a);
    now = 3.0;
  }
  // Exactly one span from the moved-to object.
  ASSERT_EQ(sink.size(), 1u);
  EXPECT_DOUBLE_EQ(sink.spans()[0].end, 3.0);
}

TEST(ScopedSpanTest, DisabledSinkIsNoOp) {
  SpanSink sink;  // never enabled
  { ScopedSpan s(&sink, 0, Phase::kCompute); }
  EXPECT_EQ(sink.size(), 0u);
  { ScopedSpan s(nullptr, 0, Phase::kCompute); }  // null-safe too
}

TEST(ChromeTraceTest, EmitsValidJsonWithTrackMetadata) {
  SpanSink sink;
  sink.set_enabled(true);
  sink.Emit(Span{0, Phase::kCompute, 0.0, 0.5, 0,
                 common::TokenizedDetail(FELA_TOK("token"))});
  sink.Emit(Span{2, Phase::kIteration, 0.0, 1.0, 0, {}});  // TS track

  sim::TraceRecorder trace;
  trace.set_enabled(true);
  trace.Record(0.25, 1, sim::TraceKind::kTokenGrant,
               common::TokenizedDetail(FELA_TOK("Token_%d"), 1));

  const std::string text = ChromeTraceString(sink, &trace, /*num_workers=*/2);
  common::Json doc;
  std::string error;
  ASSERT_TRUE(common::Json::Parse(text, &doc, &error)) << error;
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.Find("displayTimeUnit")->string_value(), "ms");

  const common::Json* events = doc.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  int metadata = 0, complete = 0, instant = 0;
  bool saw_token_server_name = false;
  for (const auto& e : events->items()) {
    const std::string& ph = e.Find("ph")->string_value();
    if (ph == "M") {
      ++metadata;
      const common::Json* args = e.Find("args");
      if (args != nullptr && args->Find("name") != nullptr &&
          args->Find("name")->string_value() == "token-server") {
        saw_token_server_name = true;
      }
    } else if (ph == "X") {
      ++complete;
    } else if (ph == "i") {
      ++instant;
    }
  }
  // One thread_name per worker track + the token-server track.
  EXPECT_EQ(metadata, 3);
  EXPECT_TRUE(saw_token_server_name);
  // Round-trip: every span and trace event survives into the timeline.
  EXPECT_EQ(complete, 2);
  EXPECT_EQ(instant, 1);
}

TEST(ChromeTraceTest, MicrosecondTimestamps) {
  SpanSink sink;
  sink.set_enabled(true);
  sink.Emit(Span{0, Phase::kCompute, 1.5, 2.0, -1, {}});
  common::Json doc;
  std::string error;
  ASSERT_TRUE(
      common::Json::Parse(ChromeTraceString(sink, nullptr, 1), &doc, &error))
      << error;
  const common::Json* events = doc.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  for (const auto& e : events->items()) {
    if (e.Find("ph")->string_value() != "X") continue;
    EXPECT_DOUBLE_EQ(e.Find("ts")->number_value(), 1.5e6);
    EXPECT_DOUBLE_EQ(e.Find("dur")->number_value(), 0.5e6);
  }
}

}  // namespace
}  // namespace fela::obs
