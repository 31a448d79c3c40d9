#include "sim/trace_io.h"

#include "common/binio.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "sim/chrome_trace.h"
#include "sim/types.h"

namespace fela::obs {

namespace binio = ::fela::common;

std::string SerializeBinaryTrace(const SpanSink& spans,
                                 const sim::TraceRecorder* trace,
                                 int num_workers) {
  FELA_CHECK(num_workers >= 0 && num_workers <= sim::kMaxInputWorkers)
      << num_workers;
  std::string out;
  out += kBinaryTraceMagic;
  binio::AppendU32(&out, static_cast<uint32_t>(num_workers));
  binio::AppendU8(&out, trace != nullptr ? 1 : 0);

  const std::vector<Span> ordered_spans = spans.spans();
  binio::AppendU64(&out, ordered_spans.size());
  binio::AppendU64(&out, spans.dropped());
  binio::AppendU64(&out, spans.capacity());
  for (const Span& s : ordered_spans) {
    binio::AppendF64(&out, s.begin);
    binio::AppendF64(&out, s.end);
    for (int i = 0; i < 4; ++i) binio::AppendU64(&out, s.detail.args.values[i]);
    binio::AppendI32(&out, s.track);
    binio::AppendI32(&out, s.iteration);
    binio::AppendU32(&out, s.detail.token);
    binio::AppendU8(&out, static_cast<uint8_t>(s.phase));
    binio::AppendU8(&out, s.detail.args.count);
    binio::AppendU8(&out, s.detail.args.types);
    binio::AppendU8(&out, 0);  // pad to 64 bytes
  }

  if (trace != nullptr) {
    const std::vector<sim::TraceRecord> records = trace->records();
    binio::AppendU64(&out, records.size());
    binio::AppendU64(&out, trace->dropped());
    binio::AppendU64(&out, trace->capacity());
    for (const sim::TraceRecord& r : records) {
      binio::AppendF64(&out, r.time);
      for (int a = 0; a < 4; ++a) binio::AppendU64(&out, r.args[a]);
      binio::AppendI32(&out, r.node);
      binio::AppendU32(&out, r.token);
      binio::AppendU8(&out, r.kind);
      binio::AppendU8(&out, r.arg_count);
      binio::AppendU8(&out, r.arg_types);
      binio::AppendU8(&out, 0);  // pad to 52 bytes
    }
  }

  out += kBinaryTraceTrailer;
  return out;
}

namespace {

// TokArgs holds four slots; a record claiming more is corrupt.
constexpr uint8_t kMaxArgs = 4;

// Reads the body after the header. Returns false on truncation, or at
// the first record claiming more than kMaxArgs args (caller keeps what
// parsed and marks the stream truncated).
bool ParseBody(std::string_view bytes, size_t pos, BinaryTraceData* out) {
  uint64_t span_count = 0;
  if (!binio::ReadU64(bytes, &pos, &span_count) ||
      !binio::ReadU64(bytes, &pos, &out->spans_dropped) ||
      !binio::ReadU64(bytes, &pos, &out->span_capacity)) {
    return false;
  }
  for (uint64_t i = 0; i < span_count; ++i) {
    Span s;
    uint8_t phase = 0;
    uint8_t pad = 0;
    if (!binio::ReadF64(bytes, &pos, &s.begin) ||
        !binio::ReadF64(bytes, &pos, &s.end) ||
        !binio::ReadU64(bytes, &pos, &s.detail.args.values[0]) ||
        !binio::ReadU64(bytes, &pos, &s.detail.args.values[1]) ||
        !binio::ReadU64(bytes, &pos, &s.detail.args.values[2]) ||
        !binio::ReadU64(bytes, &pos, &s.detail.args.values[3]) ||
        !binio::ReadI32(bytes, &pos, &s.track) ||
        !binio::ReadI32(bytes, &pos, &s.iteration) ||
        !binio::ReadU32(bytes, &pos, &s.detail.token) ||
        !binio::ReadU8(bytes, &pos, &phase) ||
        !binio::ReadU8(bytes, &pos, &s.detail.args.count) ||
        !binio::ReadU8(bytes, &pos, &s.detail.args.types) ||
        !binio::ReadU8(bytes, &pos, &pad) ||
        s.detail.args.count > kMaxArgs) {
      return false;
    }
    s.phase = static_cast<Phase>(phase);
    out->spans.push_back(s);
  }

  if (out->has_trace) {
    uint64_t trace_count = 0;
    if (!binio::ReadU64(bytes, &pos, &trace_count) ||
        !binio::ReadU64(bytes, &pos, &out->trace_dropped) ||
        !binio::ReadU64(bytes, &pos, &out->trace_capacity)) {
      return false;
    }
    for (uint64_t i = 0; i < trace_count; ++i) {
      sim::TraceRecord r;
      uint8_t pad = 0;
      if (!binio::ReadF64(bytes, &pos, &r.time) ||
          !binio::ReadU64(bytes, &pos, &r.args[0]) ||
          !binio::ReadU64(bytes, &pos, &r.args[1]) ||
          !binio::ReadU64(bytes, &pos, &r.args[2]) ||
          !binio::ReadU64(bytes, &pos, &r.args[3]) ||
          !binio::ReadI32(bytes, &pos, &r.node) ||
          !binio::ReadU32(bytes, &pos, &r.token) ||
          !binio::ReadU8(bytes, &pos, &r.kind) ||
          !binio::ReadU8(bytes, &pos, &r.arg_count) ||
          !binio::ReadU8(bytes, &pos, &r.arg_types) ||
          !binio::ReadU8(bytes, &pos, &pad) || r.arg_count > kMaxArgs) {
        return false;
      }
      out->events.push_back(r);
    }
  }

  return bytes.substr(pos) == kBinaryTraceTrailer;
}

}  // namespace

bool ParseBinaryTrace(std::string_view bytes, BinaryTraceData* out,
                      std::string* error) {
  *out = BinaryTraceData();
  if (bytes.size() < kBinaryTraceMagic.size() ||
      bytes.substr(0, kBinaryTraceMagic.size()) != kBinaryTraceMagic) {
    if (error != nullptr) *error = "not a FELATRB1 binary trace (bad magic)";
    return false;
  }
  size_t pos = kBinaryTraceMagic.size();
  uint32_t num_workers = 0;
  uint8_t has_trace = 0;
  if (!binio::ReadU32(bytes, &pos, &num_workers) ||
      !binio::ReadU8(bytes, &pos, &has_trace)) {
    if (error != nullptr) *error = "binary trace header truncated";
    return false;
  }
  // Renderers emit a row per worker, so the count is bounded here.
  if (num_workers > static_cast<uint32_t>(sim::kMaxInputWorkers)) {
    if (error != nullptr) {
      *error = common::StrFormat("binary trace header claims %u workers "
                                 "(at most %d)",
                                 num_workers, sim::kMaxInputWorkers);
    }
    return false;
  }
  out->num_workers = static_cast<int>(num_workers);
  out->has_trace = has_trace != 0;
  out->truncated = !ParseBody(bytes, pos, out);
  return true;
}

std::string RenderTraceText(const BinaryTraceData& data,
                            const common::TokenRegistry* registry) {
  std::string out;
  if (data.trace_dropped > 0) {
    sim::AppendTraceDroppedHeader(&out, data.trace_dropped,
                                  data.trace_capacity);
  }
  for (const sim::TraceRecord& r : data.events) {
    sim::AppendTraceLine(&out, r.time, r.node,
                         static_cast<sim::TraceKind>(r.kind),
                         sim::RenderTraceDetail(r, registry));
  }
  if (data.truncated) out += "<truncated binary trace: end of stream>\n";
  return out;
}

std::string RenderChromeTrace(const BinaryTraceData& data,
                              const common::TokenRegistry* registry) {
  return WriteChromeTrace(data.spans, data.spans_dropped, data.has_trace,
                          data.events, data.trace_dropped, data.num_workers,
                          registry);
}

}  // namespace fela::obs
