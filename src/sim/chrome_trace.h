#ifndef FELA_SIM_CHROME_TRACE_H_
#define FELA_SIM_CHROME_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/tokenize.h"
#include "sim/span.h"
#include "sim/trace.h"

namespace fela::obs {

/// Converts a run's spans + trace events into the Chrome trace-event
/// JSON format, loadable in Perfetto (ui.perfetto.dev) or
/// chrome://tracing, ready to write to a .json file. Layout: pid 0 = the
/// cluster; one tid ("thread") per worker plus one for the token server
/// / driver (any span track >= num_workers). Spans become "X" complete
/// events with microsecond ts/dur; TraceRecorder events become "i"
/// instant markers on their node's track, so token grants and crashes
/// line up against the compute/sync intervals they explain.
std::string ChromeTraceString(const SpanSink& spans,
                              const sim::TraceRecorder* trace,
                              int num_workers);

/// The writer behind ChromeTraceString, from already-extracted records —
/// what both the live path above and the offline binary-trace converter
/// (RenderChromeTrace, tools/fela-detok) call, so their outputs are
/// byte-identical. It appends the bytes straight to the result, in the
/// layout common::Json::Dump(1) prints. Details are detokenized through
/// `registry` (the process-global one when null) by one
/// common::Detokenizer, which compiles each distinct token's format once
/// per document; `has_trace` mirrors
/// "was a TraceRecorder attached" (it controls the trace_events_dropped
/// field even when no events were recorded).
std::string WriteChromeTrace(const std::vector<Span>& spans,
                             uint64_t spans_dropped, bool has_trace,
                             const std::vector<sim::TraceRecord>& events,
                             uint64_t events_dropped, int num_workers,
                             const common::TokenRegistry* registry = nullptr);

}  // namespace fela::obs

#endif  // FELA_SIM_CHROME_TRACE_H_
