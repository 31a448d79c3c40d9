#include "sim/chrome_trace.h"

#include <algorithm>

#include "common/json.h"
#include "common/string_util.h"

namespace fela::obs {

namespace {

constexpr double kSecToMicro = 1e6;
constexpr int kIndent = 1;  // Json::Dump(1)'s layout

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

  for (const Span& s : spans) {
    common::JsonScope e = list.OpenItem('{');
    e.Member("name", PhaseName(s.phase));
    e.Member("cat", "span");
    e.Member("ph", "X");
    e.Member("ts", s.begin * kSecToMicro);
    e.Member("dur", std::max(0.0, s.duration()) * kSecToMicro);
    e.Member("pid", 0);
    e.Member("tid", s.track);
    common::JsonScope args = e.OpenMember("args", '{');
    if (s.iteration >= 0) args.Member("iteration", s.iteration);
    if (!s.detail.empty()) {
      args.Member("detail", common::Detokenize(s.detail, registry));
    }
    args.Close();
    e.Close();
  }

  if (has_trace) {
    for (const sim::TraceRecord& r : events) {
      common::JsonScope e = list.OpenItem('{');
      e.Member("name", sim::TraceKindName(static_cast<sim::TraceKind>(r.kind)));
      e.Member("cat", "event");
      e.Member("ph", "i");
      e.Member("ts", r.time * kSecToMicro);
      e.Member("pid", 0);
      e.Member("tid", r.node);
      e.Member("s", "t");  // thread-scoped instant marker
      common::JsonScope args = e.OpenMember("args", '{');
      const std::string detail = sim::RenderTraceDetail(r, registry);
      if (!detail.empty()) args.Member("detail", detail);
      args.Close();
      e.Close();
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
