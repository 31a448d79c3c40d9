#include "sim/chrome_trace.h"

#include <algorithm>
#include <string_view>

#include "common/json.h"
#include "common/string_util.h"

namespace fela::obs {

namespace {

constexpr double kSecToMicro = 1e6;
constexpr int kIndent = 1;  // Json::Dump(1)'s layout

// The constant bytes of the span ("X") and instant ("i") records, which
// sit at a fixed depth (items of "traceEvents"): each run holds the
// separators, indentation and keys Json::Dump(1) prints between two
// values. ChromeTraceWriterTest holds every record shape to Dump.
constexpr std::string_view kRecordOpen = "{\n   \"name\": ";
constexpr std::string_view kSpanTs =
    ",\n   \"cat\": \"span\",\n   \"ph\": \"X\",\n   \"ts\": ";
constexpr std::string_view kSpanDur = ",\n   \"dur\": ";
constexpr std::string_view kSpanArgs = ",\n   \"args\": ";
constexpr std::string_view kInstantTs =
    ",\n   \"cat\": \"event\",\n   \"ph\": \"i\",\n   \"ts\": ";
constexpr std::string_view kInstantArgs = ",\n   \"s\": \"t\",\n   \"args\": ";
constexpr std::string_view kTid = ",\n   \"pid\": 0,\n   \"tid\": ";
constexpr std::string_view kNoArgs = "{}";
constexpr std::string_view kIterationArg = "{\n    \"iteration\": ";
constexpr std::string_view kFirstDetailArg = "{\n    \"detail\": ";
constexpr std::string_view kNextDetailArg = ",\n    \"detail\": ";
constexpr std::string_view kArgsClose = "\n   }";
constexpr std::string_view kRecordClose = "\n  }";

std::string TrackName(int track, int num_workers) {
  if (track >= num_workers) return "token-server";
  return common::StrFormat("worker %d", track);
}

void ThreadNameRow(common::JsonScope* list, int tid, int num_workers) {
  common::JsonScope e = list->OpenItem('{');
  e.Member("name", "thread_name");
  e.Member("ph", "M");
  e.Member("pid", 0);
  e.Member("tid", tid);
  common::JsonScope args = e.OpenMember("args", '{');
  args.Member("name", TrackName(tid, num_workers));
  args.Close();
  e.Close();
}

}  // namespace

std::string WriteChromeTrace(const std::vector<Span>& spans,
                             uint64_t spans_dropped, bool has_trace,
                             const std::vector<sim::TraceRecord>& events,
                             uint64_t events_dropped, int num_workers,
                             const common::TokenRegistry* registry) {
  std::string out;
  // About 250 bytes per span or event; one allocation instead of the
  // doubling copies of a multi-megabyte string.
  out.reserve(256 * (spans.size() + (has_trace ? events.size() : 0)) + 4096);
  common::JsonScope doc(&out, kIndent, 0, '{');
  doc.Member("displayTimeUnit", "ms");
  common::JsonScope list = doc.OpenMember("traceEvents", '[');

  // One metadata row per track, ascending: every worker, plus each span
  // track outside [0, num_workers), so every used tid is named.
  std::vector<int> outside;
  for (const Span& s : spans) {
    if (s.track < 0 || s.track >= num_workers) outside.push_back(s.track);
  }
  std::sort(outside.begin(), outside.end());
  outside.erase(std::unique(outside.begin(), outside.end()), outside.end());
  const auto non_negative = std::lower_bound(outside.begin(), outside.end(), 0);
  for (auto t = outside.begin(); t != non_negative; ++t) {
    ThreadNameRow(&list, *t, num_workers);
  }
  for (int w = 0; w < num_workers; ++w) ThreadNameRow(&list, w, num_workers);
  for (auto t = non_negative; t != outside.end(); ++t) {
    ThreadNameRow(&list, *t, num_workers);
  }

  common::Detokenizer detok(registry);
  std::string detail;  // one buffer for every record's rendered detail
  for (const Span& s : spans) {
    list.Item();
    out += kRecordOpen;
    common::Json::AppendQuoted(&out, PhaseName(s.phase));
    out += kSpanTs;
    common::Json::AppendNumber(&out, s.begin * kSecToMicro);
    out += kSpanDur;
    common::Json::AppendNumber(&out, std::max(0.0, s.duration()) * kSecToMicro);
    out += kTid;
    common::Json::AppendNumber(&out, s.track);
    out += kSpanArgs;
    const bool has_iteration = s.iteration >= 0;
    if (!has_iteration && s.detail.empty()) {
      out += kNoArgs;
    } else {
      if (has_iteration) {
        out += kIterationArg;
        common::Json::AppendNumber(&out, s.iteration);
      }
      if (!s.detail.empty()) {
        out += has_iteration ? kNextDetailArg : kFirstDetailArg;
        detail.clear();
        detok.Append(s.detail, &detail);
        common::Json::AppendQuoted(&out, detail);
      }
      out += kArgsClose;
    }
    out += kRecordClose;
  }

  if (has_trace) {
    for (const sim::TraceRecord& r : events) {
      list.Item();
      out += kRecordOpen;
      common::Json::AppendQuoted(
          &out, sim::TraceKindName(static_cast<sim::TraceKind>(r.kind)));
      out += kInstantTs;
      common::Json::AppendNumber(&out, r.time * kSecToMicro);
      out += kTid;
      common::Json::AppendNumber(&out, r.node);
      out += kInstantArgs;  // "s": "t" marks a thread-scoped instant
      detail.clear();
      detok.Append(r.detail(), &detail);
      if (detail.empty()) {
        out += kNoArgs;
      } else {
        out += kFirstDetailArg;
        common::Json::AppendQuoted(&out, detail);
        out += kArgsClose;
      }
      out += kRecordClose;
    }
  }
  list.Close();

  common::JsonScope meta = doc.OpenMember("otherData", '{');
  meta.Member("num_workers", num_workers);
  meta.Member("spans_dropped", static_cast<double>(spans_dropped));
  if (has_trace) {
    meta.Member("trace_events_dropped", static_cast<double>(events_dropped));
  }
  meta.Close();
  doc.Close();
  return out;
}

std::string ChromeTraceString(const SpanSink& spans,
                              const sim::TraceRecorder* trace,
                              int num_workers) {
  return WriteChromeTrace(
      spans.spans(), spans.dropped(), trace != nullptr,
      trace != nullptr ? trace->records() : std::vector<sim::TraceRecord>{},
      trace != nullptr ? trace->dropped() : 0, num_workers);
}

}  // namespace fela::obs
