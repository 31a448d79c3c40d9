#include "sim/simulator.h"

#include <utility>

#include "common/logging.h"

namespace fela::sim {

EventId Simulator::Schedule(SimTime delay, EventFn fn) {
  FELA_CHECK_GE(delay, 0.0);
  return queue_.Push(now_ + delay, std::move(fn));
}

EventId Simulator::ScheduleAt(SimTime when, EventFn fn) {
  FELA_CHECK_GE(when, now_);
  return queue_.Push(when, std::move(fn));
}

EventId Simulator::ScheduleAfter(EventId prev, SimTime when, EventFn fn) {
  FELA_CHECK_GE(when, now_);
  return queue_.PushAfter(prev, when, std::move(fn));
}

bool Simulator::Step() {
  if (queue_.empty()) return false;
  auto [when, fn] = queue_.Pop();
  if (when < now_) {
    ++causality_violations_;  // the clock never runs backwards
  } else {
    now_ = when;
  }
  ++events_processed_;
  fn();
  return true;
}

void Simulator::Run() {
  while (Step()) {
  }
}

void Simulator::RunUntil(SimTime deadline) {
  while (!queue_.empty() && queue_.PeekTime() <= deadline) {
    Step();
  }
  if (now_ < deadline) now_ = deadline;
}

}  // namespace fela::sim
