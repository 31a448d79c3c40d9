#ifndef FELA_SIM_TRACE_H_
#define FELA_SIM_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/annotations.h"
#include "common/tokenize.h"
#include "sim/types.h"

namespace fela::sim {

/// Event categories recorded by engines when tracing is enabled.
/// Extend kNumTraceKinds (and TraceKindName) together — the
/// static_assert below and the exhaustive switch keep them honest.
enum class TraceKind {
  kIterationStart,
  kIterationEnd,
  kTokenRequest,
  kTokenGrant,
  kTokenComplete,
  kFetchStart,
  kFetchEnd,
  kComputeStart,
  kComputeEnd,
  kSyncStart,
  kSyncEnd,
  kStragglerSleep,
  kHelperSteal,
  kConflict,
  kWorkerCrash,
  kWorkerRecover,
  kControlDrop,
  kControlDup,
  kTokenReclaim,
  kRequestRetry,
  kPartitionDrop,
  kPartitionCut,
  kPartitionHeal,
  kTsFailover,
};

/// One past the last TraceKind value. TraceKindName's switch has no
/// default, so adding a kind without a name breaks the -Werror build;
/// this constant lets tests (and the binary codec) iterate all kinds.
inline constexpr int kNumTraceKinds = static_cast<int>(TraceKind::kTsFailover)
                                      + 1;

const char* TraceKindName(TraceKind kind);

/// Rendered view of one recorded event — what tests and exporters
/// consume. The stored form is the fixed-width TraceRecord below;
/// `detail` here is detokenized on access.
struct TraceEvent {
  SimTime time;
  NodeId node;
  TraceKind kind;
  std::string detail;
};

/// The stored fixed-width form: no strings, trivially copyable, cheap
/// to ring-buffer and to serialize. `token`/args hold the tokenized
/// detail — the only kind of detail a record can carry.
struct TraceRecord {
  SimTime time = 0.0;
  uint64_t args[4] = {0, 0, 0, 0};
  NodeId node = 0;
  uint32_t token = 0;
  uint8_t kind = 0;
  uint8_t arg_count = 0;
  uint8_t arg_types = 0;

  /// The detail these fields store (token 0: none).
  common::TokenizedDetail detail() const;
};

/// Bounded in-memory recorder for scheduling timelines. Disabled by
/// default (engines skip recording when !enabled()) so the hot path
/// stays allocation-free during large sweeps; the *enabled* tokenized
/// path is a fixed-width struct store — no formatting, no allocation.
///
/// Storage is a ring: once `capacity` events have been recorded, each
/// new event evicts the oldest one, so a long run keeps the *most
/// recent* window of activity — the part a crash or stall post-mortem
/// actually needs. `dropped()` counts the evictions.
class FELA_THREAD_HOSTILE TraceRecorder {
 public:
  explicit TraceRecorder(size_t capacity = 100000) : capacity_(capacity) {}

  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  /// FELA_TRACE lands here. The detail is tokenized by type: raw text
  /// has no overload to bind to, so it cannot reach the ring.
  void Record(SimTime time, NodeId node, TraceKind kind,
              common::TokenizedDetail detail = {});

  /// Events oldest-first with details rendered (detokenized via the
  /// global registry). Returns by value: the underlying ring storage is
  /// rotated and the copy is only taken by tests and exporters.
  std::vector<TraceEvent> events() const;

  /// Raw stored records oldest-first.
  std::vector<TraceRecord> records() const;

  size_t size() const { return records_.size(); }
  size_t capacity() const { return capacity_; }
  size_t dropped() const { return dropped_; }
  void Clear();

  /// Pretty timeline, one event per line: "[  1.2345s] w3 ComputeStart ...".
  std::string ToString() const;

 private:
  size_t capacity_;
  bool enabled_ = false;
  std::vector<TraceRecord> records_;
  size_t next_ = 0;  // ring cursor: slot the next event overwrites
  size_t dropped_ = 0;
};

/// Shared text-rendering pieces, used by TraceRecorder::ToString and by
/// the offline detokenizer (tools/fela-detok) so the two outputs are
/// byte-identical.
void AppendTraceDroppedHeader(std::string* out, size_t dropped,
                              size_t capacity);
void AppendTraceLine(std::string* out, SimTime time, NodeId node,
                     TraceKind kind, const std::string& detail);

}  // namespace fela::sim

/// Records a trace event without evaluating the detail unless the
/// recorder is enabled. `recorder` is a TraceRecorder*; the detail is
/// either absent or a FELA_TOK format plus up to 4 numeric args.
///
///   FELA_TRACE(trace, now, id, TraceKind::kSyncEnd);
///   FELA_TRACE(trace, now, id, TraceKind::kTokenRequest,
///              FELA_TOK("it=%d"), iteration);
#define FELA_TRACE(recorder, time, node, kind, ...)                        \
  do {                                                                     \
    ::fela::sim::TraceRecorder* fela_trace_rec_ = (recorder);              \
    if (fela_trace_rec_ != nullptr && fela_trace_rec_->enabled())          \
      fela_trace_rec_->Record((time), (node), (kind)                       \
                                  __VA_OPT__(, ::fela::common::            \
                                                 TokenizedDetail(          \
                                                     __VA_ARGS__)));       \
  } while (false)

#endif  // FELA_SIM_TRACE_H_
