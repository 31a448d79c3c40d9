#ifndef FELA_SIM_TRACE_IO_H_
#define FELA_SIM_TRACE_IO_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/tokenize.h"
#include "sim/span.h"
#include "sim/trace.h"

namespace fela::obs {

/// Compact binary transcript of one run's observability artifacts: the
/// span ring and (optionally) the trace-event ring, with details stored
/// as 32-bit tokens + packed args instead of text. The format is
/// explicitly little-endian byte-serialized (no struct memcpy), so the
/// bytes are platform-independent and safe to hash for determinism
/// fingerprints.
///
/// Layout ("FELATRB1" format):
///   magic   "FELATRB1" (8 bytes)
///   u32     num_workers
///   u8      has_trace (0/1: was a TraceRecorder attached)
///   span section:
///     u64 count, u64 dropped, u64 capacity
///     count * 64-byte records:
///       f64 begin, f64 end, u64 args[4], i32 track, i32 iteration,
///       u32 token, u8 phase, u8 arg_count, u8 arg_types, u8 pad(=0)
///   trace section (only if has_trace):
///     u64 count, u64 dropped, u64 capacity
///     count * 52-byte records:
///       f64 time, u64 args[4], i32 node, u32 token,
///       u8 kind, u8 arg_count, u8 arg_types, u8 pad(=0)
///   trailer "FELAEND\n" (8 bytes)
/// A record's arg_count is at most 4 (the TokArgs slots); the parser
/// treats a larger count like a cut and ends the readable stream there.
inline constexpr std::string_view kBinaryTraceMagic = "FELATRB1";
inline constexpr std::string_view kBinaryTraceTrailer = "FELAEND\n";

/// Parsed form of a binary trace — everything needed to re-render the
/// text timeline and the Chrome trace offline.
struct BinaryTraceData {
  int num_workers = 0;
  bool has_trace = false;

  std::vector<Span> spans;  // oldest-first, as serialized
  uint64_t spans_dropped = 0;
  uint64_t span_capacity = 0;

  std::vector<sim::TraceRecord> events;  // oldest-first
  uint64_t trace_dropped = 0;
  uint64_t trace_capacity = 0;

  /// True when the input ended mid-stream (or at a corrupt record):
  /// everything parsed up to the cut is kept, and renderers append an
  /// explicit end-of-stream marker.
  bool truncated = false;
};

/// Serializes the current contents of `spans` (+ `trace` if non-null)
/// into the FELATRB1 byte format. Rings are flattened oldest-first.
std::string SerializeBinaryTrace(const SpanSink& spans,
                                 const sim::TraceRecorder* trace,
                                 int num_workers);

/// Parses FELATRB1 bytes. Returns false only on a malformed header
/// (bad magic / impossibly short input / more than
/// sim::kMaxInputWorkers workers); a stream cut off anywhere
/// after the header parses successfully with `out->truncated` set, so
/// a partial flight-recorder dump is still readable.
bool ParseBinaryTrace(std::string_view bytes, BinaryTraceData* out,
                      std::string* error);

/// Re-renders the trace-event timeline text, byte-identical to what
/// TraceRecorder::ToString() produced in-process (given the same token
/// registry), plus a trailing end-of-stream marker when truncated. One
/// common::Detokenizer renders every detail.
std::string RenderTraceText(const BinaryTraceData& data,
                            const common::TokenRegistry* registry = nullptr);

/// Re-renders the Chrome trace JSON, byte-identical to what
/// ChromeTraceString() produced in-process.
std::string RenderChromeTrace(const BinaryTraceData& data,
                              const common::TokenRegistry* registry = nullptr);

}  // namespace fela::obs

#endif  // FELA_SIM_TRACE_IO_H_
