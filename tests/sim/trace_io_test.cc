// FELATRB1 binary-trace codec tests: serialize → parse → re-render must
// be byte-identical to the in-process renderers, a truncated stream
// still parses up to the cut with an explicit end-of-stream marker, and
// malformed headers are rejected. The Chrome trace writer both renderers
// share must print exactly what common::Json::Dump(1) prints.

#include "sim/trace_io.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/json.h"
#include "common/tokenize.h"
#include "sim/chrome_trace.h"
#include "sim/span.h"
#include "sim/trace.h"
#include "sim/types.h"

namespace fela::obs {
namespace {

/// One of everything: tokenized details with int and double args,
/// detail-less events, and enough records to overflow the trace ring.
struct Artifacts {
  SpanSink spans{8};
  sim::TraceRecorder trace{3};

  Artifacts() {
    spans.set_enabled(true);
    trace.set_enabled(true);
    spans.Emit(Span{0, Phase::kCompute, 0.0, 1.0, 2,
                    common::TokenizedDetail(FELA_TOK("w=%d b=%g"), 5, 0.25)});
    spans.Emit(Span{1, Phase::kTokenWait, 0.5, 0.75, 2, {}});
    FELA_TRACE(&trace, 0.5, 1, sim::TraceKind::kTokenRequest,
               FELA_TOK("it=%d n=%zu"), 3, static_cast<size_t>(1024));
    FELA_TRACE(&trace, 1.5, 2, sim::TraceKind::kFetchEnd);
    FELA_TRACE(&trace, 2.0, 0, sim::TraceKind::kConflict,
               FELA_TOK("level=%d t=%.3f"), 2, 2.0);
    // A 4th record on a capacity-3 ring: the oldest event drops and the
    // serialized form must carry the dropped count.
    FELA_TRACE(&trace, 2.5, 0, sim::TraceKind::kSyncEnd);
  }
};

TEST(TraceIoTest, RoundTripRendersByteIdenticalText) {
  Artifacts a;
  ASSERT_EQ(a.trace.dropped(), 1u);
  const std::string bytes = SerializeBinaryTrace(a.spans, &a.trace, 4);

  BinaryTraceData data;
  std::string error;
  ASSERT_TRUE(ParseBinaryTrace(bytes, &data, &error)) << error;
  EXPECT_FALSE(data.truncated);
  EXPECT_EQ(data.num_workers, 4);
  EXPECT_TRUE(data.has_trace);
  EXPECT_EQ(data.spans.size(), 2u);
  EXPECT_EQ(data.events.size(), 3u);
  EXPECT_EQ(data.trace_dropped, 1u);
  EXPECT_EQ(data.trace_capacity, 3u);

  EXPECT_EQ(RenderTraceText(data), a.trace.ToString());
  EXPECT_EQ(RenderChromeTrace(data), ChromeTraceString(a.spans, &a.trace, 4));
}

TEST(TraceIoTest, RoundTripWithoutTraceRecorder) {
  Artifacts a;
  const std::string bytes = SerializeBinaryTrace(a.spans, nullptr, 4);
  BinaryTraceData data;
  std::string error;
  ASSERT_TRUE(ParseBinaryTrace(bytes, &data, &error)) << error;
  EXPECT_FALSE(data.has_trace);
  EXPECT_TRUE(data.events.empty());
  EXPECT_EQ(RenderChromeTrace(data), ChromeTraceString(a.spans, nullptr, 4));
}

TEST(TraceIoTest, OfflineRegistryFromCsvMatchesInProcessRendering) {
  // Simulates fela-detok: a registry built *only* from the CSV form of
  // the global registry must reproduce the in-process bytes.
  Artifacts a;
  const std::string bytes = SerializeBinaryTrace(a.spans, &a.trace, 4);
  common::TokenRegistry offline;
  std::string error;
  ASSERT_TRUE(common::LoadTokenDbCsv(
      common::TokenDbCsv(common::TokenRegistry::Global()), &offline, &error))
      << error;
  BinaryTraceData data;
  ASSERT_TRUE(ParseBinaryTrace(bytes, &data, &error)) << error;
  EXPECT_EQ(RenderTraceText(data, &offline), a.trace.ToString());
  EXPECT_EQ(RenderChromeTrace(data, &offline),
            ChromeTraceString(a.spans, &a.trace, 4));
}

TEST(TraceIoTest, TruncatedStreamParsesWithEndOfStreamMarker) {
  Artifacts a;
  const std::string bytes = SerializeBinaryTrace(a.spans, &a.trace, 4);
  const std::string header(kBinaryTraceMagic);
  // Every cut from just-past-the-header to missing-trailer-byte parses,
  // reports truncation, and renders the explicit marker.
  for (const size_t cut : {header.size() + 5, bytes.size() / 2,
                           bytes.size() - kBinaryTraceTrailer.size(),
                           bytes.size() - 1}) {
    BinaryTraceData data;
    std::string error;
    ASSERT_TRUE(ParseBinaryTrace(bytes.substr(0, cut), &data, &error))
        << "cut=" << cut << ": " << error;
    EXPECT_TRUE(data.truncated) << "cut=" << cut;
    const std::string text = RenderTraceText(data);
    const std::string marker = "<truncated binary trace: end of stream>\n";
    ASSERT_GE(text.size(), marker.size()) << "cut=" << cut;
    EXPECT_EQ(text.substr(text.size() - marker.size()), marker)
        << "cut=" << cut;
  }
}

TEST(TraceIoTest, RecordClaimingMoreThanFourArgsEndsTheStream) {
  // TokArgs has four slots, so a record claiming five would send the
  // detokenizer past them. Such a record ends the readable stream like
  // a cut does; the records before it are kept.
  SpanSink spans{8};
  sim::TraceRecorder trace{8};
  trace.set_enabled(true);
  FELA_TRACE(&trace, 0.5, 1, sim::TraceKind::kFetchEnd);
  FELA_TRACE(&trace, 1.5, 2, sim::TraceKind::kSyncEnd);
  std::string bytes = SerializeBinaryTrace(spans, &trace, 4);
  // Header 13 B, empty span section 24 B, trace section header 24 B,
  // the first 52 B record, then the second record's count byte at 49.
  bytes[13 + 24 + 24 + 52 + 49] = 5;
  BinaryTraceData data;
  std::string error;
  ASSERT_TRUE(ParseBinaryTrace(bytes, &data, &error)) << error;
  EXPECT_TRUE(data.truncated);
  EXPECT_EQ(data.events.size(), 1u);

  // The span loop applies the same bound (count byte at 61 of 64 B).
  spans.set_enabled(true);
  spans.Emit(Span{0, Phase::kCompute, 0.0, 1.0, 2, {}});
  bytes = SerializeBinaryTrace(spans, nullptr, 4);
  bytes[13 + 24 + 61] = 5;
  ASSERT_TRUE(ParseBinaryTrace(bytes, &data, &error)) << error;
  EXPECT_TRUE(data.truncated);
  EXPECT_TRUE(data.spans.empty());
}

TEST(TraceIoTest, SpanCountBeyondTheBodyParsesAsTruncated) {
  // A count is only reserved up to what the bytes can hold: a header
  // claiming 2^62 spans over one 64-byte span record parses that one
  // and stops at the trailer, instead of sizing a vector by the claim.
  SpanSink spans{8};
  spans.set_enabled(true);
  spans.Emit(Span{0, Phase::kCompute, 0.0, 1.0, 2, {}});
  std::string bytes = SerializeBinaryTrace(spans, nullptr, 4);
  const size_t count_at = kBinaryTraceMagic.size() + 4 + 1;  // u64, LE
  for (int i = 0; i < 8; ++i) {
    bytes[count_at + static_cast<size_t>(i)] =
        static_cast<char>(((uint64_t{1} << 62) >> (8 * i)) & 0xff);
  }
  BinaryTraceData data;
  std::string error;
  ASSERT_TRUE(ParseBinaryTrace(bytes, &data, &error)) << error;
  EXPECT_TRUE(data.truncated);
  EXPECT_LE(data.spans.size(), 1u);
}

TEST(TraceIoTest, HeaderClaimingTooManyWorkersIsRejected) {
  // Renderers write one row per claimed worker, so a corrupt count
  // (here 0x00FFFFFF) must fail the parse instead of sizing the output.
  Artifacts a;
  std::string bytes = SerializeBinaryTrace(a.spans, &a.trace, 4);
  const size_t count_at = kBinaryTraceMagic.size();  // u32, little-endian
  const auto patch = [&](uint32_t n) {
    for (int i = 0; i < 4; ++i) {
      bytes[count_at + static_cast<size_t>(i)] =
          static_cast<char>((n >> (8 * i)) & 0xff);
    }
  };
  BinaryTraceData data;
  std::string error;
  patch(0x00FFFFFFu);
  EXPECT_FALSE(ParseBinaryTrace(bytes, &data, &error));
  EXPECT_NE(error.find("workers"), std::string::npos) << error;

  patch(static_cast<uint32_t>(sim::kMaxInputWorkers) + 1);
  EXPECT_FALSE(ParseBinaryTrace(bytes, &data, &error));
  patch(static_cast<uint32_t>(sim::kMaxInputWorkers));
  ASSERT_TRUE(ParseBinaryTrace(bytes, &data, &error)) << error;
  EXPECT_EQ(data.num_workers, sim::kMaxInputWorkers);
}

/// The Chrome trace writer streams bytes without a Json tree; parsing its
/// output and dumping that again must give the same bytes back, which
/// holds only if the writer prints what Json::Dump(1) prints.
void ExpectDumpFixedPoint(const std::string& out) {
  common::Json doc;
  std::string error;
  ASSERT_TRUE(common::Json::Parse(out, &doc, &error)) << error;
  EXPECT_EQ(doc.Dump(1), out);
}

TEST(ChromeTraceWriterTest, PrintsWhatJsonDumpPrints) {
  SpanSink spans;
  spans.set_enabled(true);
  // Neither, either and both of iteration and detail; then tracks below
  // zero and at or past num_workers, which get their own metadata rows.
  spans.Emit(Span{0, Phase::kCompute, 0.0, 0.5, -1, {}});
  spans.Emit(Span{1, Phase::kTransfer, 0.25, 0.75, 3, {}});
  spans.Emit(Span{0, Phase::kSyncWait, 0.5, 1.25, -1,
                  common::TokenizedDetail(FELA_TOK("n=%d"), 4096)});
  spans.Emit(Span{1, Phase::kTokenWait, 1.0, 1.125, 4,
                  common::TokenizedDetail(FELA_TOK("w=%d b=%g"), 5, 0.25)});
  spans.Emit(Span{-1, Phase::kStraggler, 0.0, 0.1, 0, {}});
  spans.Emit(Span{5, Phase::kIteration, 0.0, 1.5, 4, {}});
  spans.Emit(Span{2, Phase::kIteration, 1.5, 3.0, 5, {}});
  sim::TraceRecorder trace;
  trace.set_enabled(true);
  FELA_TRACE(&trace, 0.5, 1, sim::TraceKind::kTokenGrant,
             FELA_TOK("Token_%d"), 7);
  FELA_TRACE(&trace, 1.5, 2, sim::TraceKind::kFetchEnd);
  const std::string full = ChromeTraceString(spans, &trace, 2);
  ExpectDumpFixedPoint(full);
  EXPECT_NE(full.find("\"name\": \"worker -1\""), std::string::npos);
  EXPECT_NE(full.find("\"args\": {}"), std::string::npos);

  // A recorder attached with zero events still reports its drop count.
  sim::TraceRecorder quiet;
  const std::string no_events = ChromeTraceString(spans, &quiet, 2);
  ExpectDumpFixedPoint(no_events);
  EXPECT_NE(no_events.find("\"trace_events_dropped\": 0"),
            std::string::npos);

  // An instant whose token no registry knows renders the marker.
  constexpr uint32_t kUnknown = 0x00c0ffee;
  ASSERT_EQ(common::TokenRegistry::Global().Find(kUnknown), nullptr);
  trace.Record(2.0, 1, sim::TraceKind::kConflict,
               common::TokenizedDetail(common::TokenizedFmt{kUnknown, "?"}));
  const std::string unknown = ChromeTraceString(spans, &trace, 2);
  ExpectDumpFixedPoint(unknown);
  EXPECT_NE(unknown.find("\"detail\": \"<token 00c0ffee?>\""),
            std::string::npos);

  // No workers and no spans, so an instant is the first record.
  const std::string instants_only = ChromeTraceString(SpanSink{}, &trace, 0);
  ExpectDumpFixedPoint(instants_only);
  EXPECT_NE(instants_only.find(
                "\"traceEvents\": [\n  {\n   \"name\": \"TokenGrant\""),
            std::string::npos);

  // No workers and no spans: an empty event list.
  const std::string empty = ChromeTraceString(SpanSink{}, nullptr, 0);
  ExpectDumpFixedPoint(empty);
  EXPECT_NE(empty.find("\"traceEvents\": []"), std::string::npos);
}

TEST(ChromeTraceWriterTest, EscapesDetailsRenderedThroughARegistry) {
  // A registry format with every character JSON must escape, rendered
  // offline into both a span and an instant.
  constexpr uint32_t kToken = 0x0badf00d;
  common::TokenRegistry registry;
  ASSERT_TRUE(registry.Register(kToken, "q\"b\\s\nn\tt\x01 %d"));
  const common::TokenizedDetail detail(common::TokenizedFmt{kToken, nullptr},
                                       7);
  BinaryTraceData data;
  data.num_workers = 1;
  data.has_trace = true;
  data.spans.push_back(Span{0, Phase::kCompute, 0.0, 1.0, 0, detail});
  sim::TraceRecord record;
  record.time = 0.5;
  record.token = detail.token;
  record.arg_count = detail.args.count;
  record.arg_types = detail.args.types;
  record.args[0] = detail.args.values[0];
  data.events.push_back(record);

  const std::string out = RenderChromeTrace(data, &registry);
  ExpectDumpFixedPoint(out);
  const std::string escaped = R"("detail": "q\"b\\s\nn\tt\u0001 7")";
  const size_t first = out.find(escaped);
  ASSERT_NE(first, std::string::npos);
  EXPECT_NE(out.find(escaped, first + 1), std::string::npos);
}

TEST(TraceIoTest, MalformedHeaderIsRejected) {
  BinaryTraceData data;
  std::string error;
  EXPECT_FALSE(ParseBinaryTrace("NOTAMAGICNUMBER", &data, &error));
  EXPECT_FALSE(error.empty());
  error.clear();
  EXPECT_FALSE(ParseBinaryTrace("FELA", &data, &error));
  EXPECT_FALSE(error.empty());
  error.clear();
  EXPECT_FALSE(ParseBinaryTrace("", &data, &error));
  EXPECT_FALSE(error.empty());
}

}  // namespace
}  // namespace fela::obs
