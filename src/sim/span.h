#ifndef FELA_SIM_SPAN_H_
#define FELA_SIM_SPAN_H_

#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "common/tokenize.h"
#include "sim/types.h"

namespace fela::obs {

/// What a worker was doing during an interval. Declared in descending
/// attribution priority: when spans overlap on one track, each instant
/// is charged to the highest-priority covering phase (see
/// runtime/attribution.h), which is what makes per-worker fractions sum
/// to exactly 1. kIteration is a framing span (driver/token-server
/// track), never attributed; kIdle only appears as the attribution
/// remainder, never in recorded spans.
enum class Phase {
  kCrashed,    // worker down, or re-executing lost work after a crash
  kCompute,    // GPU busy on forward/backward
  kSyncWait,   // inside a gradient-sync window (allreduce / PS push+pull)
  kTransfer,   // async parameter/activation fetch on the wire
  kTokenWait,  // waiting for the token server to grant work
  kStraggler,  // injected slowdown sleep
  kIteration,  // framing span: one global iteration (driver track)
  kIdle,       // attribution remainder only
};

inline constexpr int kNumPhases = 8;

const char* PhaseName(Phase phase);

/// One closed interval of activity on a track. `track` is the worker's
/// NodeId; tracks >= the cluster's worker count belong to the token
/// server / driver (the Chrome exporter names them accordingly). The
/// detail is tokenized (FELA_TOK + packed args), which keeps Span
/// trivially copyable — SpanSink::Emit is a struct store, no
/// allocation even on the enabled path.
struct Span {
  sim::NodeId track = 0;
  Phase phase = Phase::kIdle;
  sim::SimTime begin = 0.0;
  sim::SimTime end = 0.0;
  int iteration = -1;  // -1: not attributable to a single iteration
  common::TokenizedDetail detail;

  sim::SimTime duration() const { return end - begin; }
};

/// Bounded collector of Spans for one run. Disabled by default — every
/// instrumentation site checks enabled() first, so a production sweep
/// pays one branch per site and zero allocations. The clock callback
/// (wired to Simulator::now by Cluster) lets ScopedSpan read simulated
/// time without a Simulator dependency. Ring semantics match
/// TraceRecorder: past capacity, newest evicts oldest and dropped()
/// counts the evictions.
class SpanSink {
 public:
  explicit SpanSink(size_t capacity = 200000) : capacity_(capacity) {}

  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  void set_clock(std::function<sim::SimTime()> clock) {
    clock_ = std::move(clock);
  }
  sim::SimTime Now() const { return clock_ ? clock_() : 0.0; }

  void Emit(const Span& span);

  /// Spans oldest-first (by emission order, i.e. ordered by `end`).
  std::vector<Span> spans() const;
  size_t size() const { return spans_.size(); }
  size_t capacity() const { return capacity_; }
  size_t dropped() const { return dropped_; }
  void Clear();

 private:
  size_t capacity_;
  bool enabled_ = false;
  std::function<sim::SimTime()> clock_;
  std::vector<Span> spans_;
  size_t next_ = 0;  // ring cursor once full
  size_t dropped_ = 0;
};

/// RAII span: captures the sink's clock at construction, emits the
/// completed interval at destruction (or Close()). Because the "clock"
/// is simulated time, a ScopedSpan can live across simulator callbacks —
/// e.g. a worker holds one in a std::optional from token request until
/// grant. Construction against a disabled sink records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanSink* sink, sim::NodeId track, Phase phase,
             int iteration = -1, common::TokenizedDetail detail = {})
      : sink_(sink != nullptr && sink->enabled() ? sink : nullptr),
        track_(track),
        phase_(phase),
        iteration_(iteration),
        detail_(detail),
        begin_(sink_ != nullptr ? sink_->Now() : 0.0) {}

  ~ScopedSpan() { Close(); }

  ScopedSpan(ScopedSpan&& other) noexcept { *this = std::move(other); }
  ScopedSpan& operator=(ScopedSpan&& other) noexcept {
    if (this != &other) {
      Close();
      sink_ = std::exchange(other.sink_, nullptr);
      track_ = other.track_;
      phase_ = other.phase_;
      iteration_ = other.iteration_;
      detail_ = other.detail_;
      begin_ = other.begin_;
    }
    return *this;
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Emits now instead of at destruction; idempotent.
  void Close() {
    if (sink_ == nullptr) return;
    sink_->Emit(
        Span{track_, phase_, begin_, sink_->Now(), iteration_, detail_});
    sink_ = nullptr;
  }

  /// Drops the span without emitting (e.g. the awaited grant never came
  /// because the run ended); idempotent.
  void Cancel() { sink_ = nullptr; }

 private:
  SpanSink* sink_ = nullptr;
  sim::NodeId track_ = 0;
  Phase phase_ = Phase::kIdle;
  int iteration_ = -1;
  common::TokenizedDetail detail_;
  sim::SimTime begin_ = 0.0;
};

}  // namespace fela::obs

#endif  // FELA_SIM_SPAN_H_
