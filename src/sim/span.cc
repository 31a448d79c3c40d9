#include "sim/span.h"

namespace fela::obs {

const char* PhaseName(Phase phase) {
  switch (phase) {
    case Phase::kCrashed:
      return "crashed";
    case Phase::kCompute:
      return "compute";
    case Phase::kSyncWait:
      return "sync_wait";
    case Phase::kTransfer:
      return "transfer";
    case Phase::kTokenWait:
      return "token_wait";
    case Phase::kStraggler:
      return "straggler";
    case Phase::kIteration:
      return "iteration";
    case Phase::kIdle:
      return "idle";
  }
  return "?";
}

void SpanSink::Emit(const Span& span) {
  if (!enabled_ || capacity_ == 0) return;
  if (spans_.size() < capacity_) {
    spans_.push_back(span);
    return;
  }
  spans_[next_] = span;  // evict the oldest
  next_ = (next_ + 1) % capacity_;
  ++dropped_;
}

std::vector<Span> SpanSink::spans() const {
  // next_ is the oldest slot once the ring has wrapped.
  const auto oldest = spans_.begin() +
                      static_cast<std::ptrdiff_t>(dropped_ > 0 ? next_ : 0);
  std::vector<Span> ordered;
  ordered.reserve(spans_.size());
  ordered.insert(ordered.end(), oldest, spans_.end());
  ordered.insert(ordered.end(), spans_.begin(), oldest);
  return ordered;
}

void SpanSink::Clear() {
  spans_.clear();
  next_ = 0;
  dropped_ = 0;
}

}  // namespace fela::obs
