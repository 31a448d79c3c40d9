#include "sim/trace_io.h"

#include <algorithm>
#include <bit>

#include "common/binio.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "sim/chrome_trace.h"
#include "sim/types.h"

namespace fela::obs {

namespace binio = ::fela::common;

namespace {

// Sizes of the FELATRB1 pieces (see trace_io.h): the header, a
// section's count/dropped/capacity words, and one record of each kind.
constexpr size_t kHeaderBytes = kBinaryTraceMagic.size() + 4 + 1;
constexpr size_t kSectionBytes = 3 * 8;
constexpr size_t kSpanBytes = 64;
constexpr size_t kTraceRecordBytes = 52;

// TokArgs holds four slots; a record claiming more is corrupt.
constexpr uint8_t kMaxArgs = 4;

void AppendSection(std::string* out, uint64_t count, uint64_t dropped,
                   uint64_t capacity) {
  binio::AppendU64(out, count);
  binio::AppendU64(out, dropped);
  binio::AppendU64(out, capacity);
}

}  // namespace

std::string SerializeBinaryTrace(const SpanSink& spans,
                                 const sim::TraceRecorder* trace,
                                 int num_workers) {
  FELA_CHECK(num_workers >= 0 && num_workers <= sim::kMaxInputWorkers)
      << num_workers;
  const std::vector<Span> ordered_spans = spans.spans();
  const std::vector<sim::TraceRecord> records =
      trace != nullptr ? trace->records() : std::vector<sim::TraceRecord>{};
  std::string out;
  out.reserve(kHeaderBytes + kSectionBytes + kSpanBytes * ordered_spans.size() +
              (trace != nullptr
                   ? kSectionBytes + kTraceRecordBytes * records.size()
                   : 0) +
              kBinaryTraceTrailer.size());
  out += kBinaryTraceMagic;
  binio::AppendU32(&out, static_cast<uint32_t>(num_workers));
  binio::AppendU8(&out, trace != nullptr ? 1 : 0);

  AppendSection(&out, ordered_spans.size(), spans.dropped(), spans.capacity());
  char span[kSpanBytes];
  for (const Span& s : ordered_spans) {
    binio::StoreU64(span, std::bit_cast<uint64_t>(s.begin));
    binio::StoreU64(span + 8, std::bit_cast<uint64_t>(s.end));
    for (int a = 0; a < 4; ++a) {
      binio::StoreU64(span + 16 + 8 * a, s.detail.args.values[a]);
    }
    binio::StoreU32(span + 48, static_cast<uint32_t>(s.track));
    binio::StoreU32(span + 52, static_cast<uint32_t>(s.iteration));
    binio::StoreU32(span + 56, s.detail.token);
    span[60] = static_cast<char>(s.phase);
    span[61] = static_cast<char>(s.detail.args.count);
    span[62] = static_cast<char>(s.detail.args.types);
    span[63] = 0;  // pad
    out.append(span, sizeof(span));
  }

  if (trace != nullptr) {
    AppendSection(&out, records.size(), trace->dropped(), trace->capacity());
    char record[kTraceRecordBytes];
    for (const sim::TraceRecord& r : records) {
      binio::StoreU64(record, std::bit_cast<uint64_t>(r.time));
      for (int a = 0; a < 4; ++a) {
        binio::StoreU64(record + 8 + 8 * a, r.args[a]);
      }
      binio::StoreU32(record + 40, static_cast<uint32_t>(r.node));
      binio::StoreU32(record + 44, r.token);
      record[48] = static_cast<char>(r.kind);
      record[49] = static_cast<char>(r.arg_count);
      record[50] = static_cast<char>(r.arg_types);
      record[51] = 0;  // pad
      out.append(record, sizeof(record));
    }
  }

  out += kBinaryTraceTrailer;
  return out;
}

namespace {

// Reads the body after the header. Returns false on truncation, or at
// the first record claiming more than kMaxArgs args (caller keeps what
// parsed and marks the stream truncated). A count is reserved only up
// to the records the input can hold, never what a corrupt header
// claims.
bool ParseBody(std::string_view bytes, size_t pos, BinaryTraceData* out) {
  uint64_t span_count = 0;
  if (!binio::ReadU64(bytes, &pos, &span_count) ||
      !binio::ReadU64(bytes, &pos, &out->spans_dropped) ||
      !binio::ReadU64(bytes, &pos, &out->span_capacity)) {
    return false;
  }
  out->spans.reserve(static_cast<size_t>(
      std::min<uint64_t>(span_count, (bytes.size() - pos) / kSpanBytes)));
  for (uint64_t i = 0; i < span_count; ++i) {
    if (bytes.size() - pos < kSpanBytes) return false;
    const char* span = bytes.data() + pos;
    pos += kSpanBytes;
    Span s;
    s.begin = std::bit_cast<double>(binio::LoadU64(span));
    s.end = std::bit_cast<double>(binio::LoadU64(span + 8));
    for (int a = 0; a < 4; ++a) {
      s.detail.args.values[a] = binio::LoadU64(span + 16 + 8 * a);
    }
    s.track = static_cast<int32_t>(binio::LoadU32(span + 48));
    s.iteration = static_cast<int32_t>(binio::LoadU32(span + 52));
    s.detail.token = binio::LoadU32(span + 56);
    s.phase = static_cast<Phase>(static_cast<uint8_t>(span[60]));
    s.detail.args.count = static_cast<uint8_t>(span[61]);
    s.detail.args.types = static_cast<uint8_t>(span[62]);
    if (s.detail.args.count > kMaxArgs) return false;
    out->spans.push_back(s);
  }

  if (out->has_trace) {
    uint64_t trace_count = 0;
    if (!binio::ReadU64(bytes, &pos, &trace_count) ||
        !binio::ReadU64(bytes, &pos, &out->trace_dropped) ||
        !binio::ReadU64(bytes, &pos, &out->trace_capacity)) {
      return false;
    }
    out->events.reserve(static_cast<size_t>(std::min<uint64_t>(
        trace_count, (bytes.size() - pos) / kTraceRecordBytes)));
    for (uint64_t i = 0; i < trace_count; ++i) {
      if (bytes.size() - pos < kTraceRecordBytes) return false;
      const char* record = bytes.data() + pos;
      pos += kTraceRecordBytes;
      sim::TraceRecord r;
      r.time = std::bit_cast<double>(binio::LoadU64(record));
      for (int a = 0; a < 4; ++a) {
        r.args[a] = binio::LoadU64(record + 8 + 8 * a);
      }
      r.node = static_cast<int32_t>(binio::LoadU32(record + 40));
      r.token = binio::LoadU32(record + 44);
      r.kind = static_cast<uint8_t>(record[48]);
      r.arg_count = static_cast<uint8_t>(record[49]);
      r.arg_types = static_cast<uint8_t>(record[50]);
      if (r.arg_count > kMaxArgs) return false;
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
  common::Detokenizer detok(registry);
  std::string detail;
  for (const sim::TraceRecord& r : data.events) {
    detail.clear();
    detok.Append(r.detail(), &detail);
    sim::AppendTraceLine(&out, r.time, r.node,
                         static_cast<sim::TraceKind>(r.kind), detail);
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
