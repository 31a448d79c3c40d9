#include "sim/trace.h"

#include "common/string_util.h"

namespace fela::sim {

static_assert(kNumTraceKinds == 24,
              "TraceKind changed: update kNumTraceKinds, TraceKindName, and "
              "any serialized-kind consumers together");

const char* TraceKindName(TraceKind kind) {
  // No default branch on purpose: -Werror=switch turns a TraceKind
  // added without a name into a build failure instead of "Unknown"
  // leaking into transcripts.
  switch (kind) {
    case TraceKind::kIterationStart:
      return "IterationStart";
    case TraceKind::kIterationEnd:
      return "IterationEnd";
    case TraceKind::kTokenRequest:
      return "TokenRequest";
    case TraceKind::kTokenGrant:
      return "TokenGrant";
    case TraceKind::kTokenComplete:
      return "TokenComplete";
    case TraceKind::kFetchStart:
      return "FetchStart";
    case TraceKind::kFetchEnd:
      return "FetchEnd";
    case TraceKind::kComputeStart:
      return "ComputeStart";
    case TraceKind::kComputeEnd:
      return "ComputeEnd";
    case TraceKind::kSyncStart:
      return "SyncStart";
    case TraceKind::kSyncEnd:
      return "SyncEnd";
    case TraceKind::kStragglerSleep:
      return "StragglerSleep";
    case TraceKind::kHelperSteal:
      return "HelperSteal";
    case TraceKind::kConflict:
      return "Conflict";
    case TraceKind::kWorkerCrash:
      return "WorkerCrash";
    case TraceKind::kWorkerRecover:
      return "WorkerRecover";
    case TraceKind::kControlDrop:
      return "ControlDrop";
    case TraceKind::kControlDup:
      return "ControlDup";
    case TraceKind::kTokenReclaim:
      return "TokenReclaim";
    case TraceKind::kRequestRetry:
      return "RequestRetry";
    case TraceKind::kPartitionDrop:
      return "PartitionDrop";
    case TraceKind::kPartitionCut:
      return "PartitionCut";
    case TraceKind::kPartitionHeal:
      return "PartitionHeal";
    case TraceKind::kTsFailover:
      return "TsFailover";
  }
  return "Unknown";  // unreachable: the switch above is exhaustive
}

void TraceRecorder::Record(SimTime time, NodeId node, TraceKind kind,
                           common::TokenizedDetail detail) {
  if (!enabled_ || capacity_ == 0) return;
  TraceRecord record;
  record.time = time;
  record.node = node;
  record.kind = static_cast<uint8_t>(kind);
  record.token = detail.token;
  record.arg_count = detail.args.count;
  record.arg_types = detail.args.types;
  for (int i = 0; i < 4; ++i) record.args[i] = detail.args.values[i];
  if (records_.size() < capacity_) {
    records_.push_back(record);
    return;
  }
  records_[next_] = record;  // evict the oldest
  next_ = (next_ + 1) % capacity_;
  ++dropped_;
}

common::TokenizedDetail TraceRecord::detail() const {
  common::TokenizedDetail detail;
  detail.token = token;
  detail.args.count = arg_count;
  detail.args.types = arg_types;
  for (int i = 0; i < 4; ++i) detail.args.values[i] = args[i];
  return detail;
}

std::vector<TraceEvent> TraceRecorder::events() const {
  std::vector<TraceEvent> ordered;
  ordered.reserve(records_.size());
  common::Detokenizer detok;
  for (const TraceRecord& r : records()) {
    TraceEvent& e = ordered.emplace_back(
        TraceEvent{r.time, r.node, static_cast<TraceKind>(r.kind), {}});
    detok.Append(r.detail(), &e.detail);
  }
  return ordered;
}

std::vector<TraceRecord> TraceRecorder::records() const {
  // next_ is the oldest slot once the ring has wrapped (dropped_ > 0);
  // before wrapping the vector is already oldest-first from slot 0.
  const auto oldest = records_.begin() +
                      static_cast<std::ptrdiff_t>(dropped_ > 0 ? next_ : 0);
  std::vector<TraceRecord> ordered;
  ordered.reserve(records_.size());
  ordered.insert(ordered.end(), oldest, records_.end());
  ordered.insert(ordered.end(), records_.begin(), oldest);
  return ordered;
}

void TraceRecorder::Clear() {
  records_.clear();
  next_ = 0;
  dropped_ = 0;
}

void AppendTraceDroppedHeader(std::string* out, size_t dropped,
                              size_t capacity) {
  *out += common::StrFormat(
      "... %zu oldest events dropped (ring capacity %zu)\n", dropped,
      capacity);
}

void AppendTraceLine(std::string* out, SimTime time, NodeId node,
                     TraceKind kind, const std::string& detail) {
  *out += common::StrFormat("[%10.6fs] w%-2d %-15s %s\n", time, node,
                            TraceKindName(kind), detail.c_str());
}

std::string TraceRecorder::ToString() const {
  std::string out;
  if (dropped_ > 0) AppendTraceDroppedHeader(&out, dropped_, capacity_);
  for (const auto& e : events()) {
    AppendTraceLine(&out, e.time, e.node, e.kind, e.detail);
  }
  return out;
}

}  // namespace fela::sim
