#include "sim/gpu.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace fela::sim {

GpuDevice::GpuDevice(Simulator* sim, NodeId node) : sim_(sim), node_(node) {}

void GpuDevice::Enqueue(double duration, EventFn done) {
  FELA_CHECK_GE(duration, 0.0);
  const SimTime start = std::max(sim_->now(), free_at_);
  const SimTime finish = start + duration;
  free_at_ = finish;
  if (blocked_ != nullptr) blocked_->last_finish = finish;
  busy_time_ += duration;
  if (spans_ != nullptr && spans_->enabled() && duration > 0.0) {
    spans_->Emit(obs::Span{node_, obs::Phase::kCompute, start, finish, -1, {}});
  }
  last_done_ = sim_->ScheduleAfter(last_done_, finish, std::move(done));
}

void GpuDevice::BlockUntil(SimTime until, obs::Phase phase) {
  if (until <= free_at_ && until <= sim_->now()) return;
  const SimTime start = std::max(sim_->now(), free_at_);
  if (until > start) {
    injected_sleep_ += until - start;
    if (blocked_ == nullptr) {
      blocked_ = std::make_unique<Blocked>();
      blocked_->last_finish = free_at_;
    }
    free_at_ = until;
    auto& intervals = blocked_->intervals;
    auto ended = intervals.begin();
    while (ended != intervals.end() && ended->second <= sim_->now()) ++ended;
    intervals.erase(intervals.begin(), ended);
    intervals.emplace_back(start, until);
    if (spans_ != nullptr && spans_->enabled()) {
      spans_->Emit(obs::Span{node_, phase, start, until, -1, {}});
    }
  }
}

double GpuDevice::BusyTimeSoFar() const {
  // Any idle gap in the device's timeline ends at the enqueue that made
  // it, which is past, so from now to the last kernel's finish the
  // device either computes or sits in a blocked interval.
  const SimTime now = sim_->now();
  const SimTime last_finish =
      blocked_ == nullptr ? free_at_ : blocked_->last_finish;
  if (last_finish <= now) return busy_time_;
  double ahead = last_finish - now;
  if (blocked_ != nullptr) {
    for (const auto& [start, end] : blocked_->intervals) {
      ahead -= std::max(0.0, std::min(end, last_finish) - std::max(start, now));
    }
  }
  return busy_time_ - ahead;
}

void GpuDevice::ResetStats() {
  busy_time_ = 0.0;
  injected_sleep_ = 0.0;
}

}  // namespace fela::sim
