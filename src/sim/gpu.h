#ifndef FELA_SIM_GPU_H_
#define FELA_SIM_GPU_H_

#include <memory>
#include <utility>
#include <vector>

#include "sim/event_fn.h"
#include "sim/simulator.h"
#include "sim/span.h"
#include "sim/types.h"

namespace fela::sim {

/// One accelerator device. Kernels (already costed in seconds by the
/// model-layer cost model) execute FIFO; the device tracks cumulative
/// busy time so experiments can report GPU utilization.
class GpuDevice {
 public:
  GpuDevice(Simulator* sim, NodeId node);

  GpuDevice(const GpuDevice&) = delete;
  GpuDevice& operator=(const GpuDevice&) = delete;

  NodeId node() const { return node_; }

  /// When set (and enabled), every Enqueue emits a kCompute span and
  /// every BlockUntil emits its phase's span on this node's track, so
  /// all engines get compute/straggler intervals without per-engine
  /// instrumentation.
  void set_span_sink(obs::SpanSink* spans) { spans_ = spans; }

  /// Enqueues a compute task lasting `duration` seconds; `done` fires
  /// when it finishes. Tasks run back-to-back in submission order.
  void Enqueue(double duration, EventFn done);

  /// Blocks the device until at least `until` (used for straggler
  /// injection: the paper injects sleep before computation). `phase`
  /// labels the blocked interval in the span timeline — kStraggler for
  /// injected slowdown, kCrashed when an engine models crash redo time.
  void BlockUntil(SimTime until, obs::Phase phase = obs::Phase::kStraggler);

  /// Time at which the device next becomes free.
  SimTime free_at() const { return free_at_; }

  /// Total seconds of real compute enqueued, kernels still queued
  /// included (excludes injected sleeps).
  double busy_time() const { return busy_time_; }

  /// busy_time() less the compute still queued to run after now(): the
  /// seconds of compute the device has run so far.
  double BusyTimeSoFar() const;

  /// Total seconds of injected straggler sleep.
  double injected_sleep() const { return injected_sleep_; }

  void ResetStats();

 private:
  Simulator* sim_;
  NodeId node_;
  obs::SpanSink* spans_ = nullptr;
  SimTime free_at_ = 0.0;
  /// Completion of the last enqueued task; the next one is chained
  /// behind it (its finish is never earlier).
  EventId last_done_ = kInvalidEventId;
  /// What BusyTimeSoFar needs once the device has been blocked: the
  /// blocked intervals not yet ended when the last one was added, oldest
  /// first, and the last kernel's finish (free_at_ until the first
  /// block). Made by the first block, so a device never blocked (every
  /// device of a run without stragglers or crashes) carries one pointer.
  struct Blocked {
    std::vector<std::pair<SimTime, SimTime>> intervals;
    SimTime last_finish = 0.0;
  };
  std::unique_ptr<Blocked> blocked_;
  double busy_time_ = 0.0;
  double injected_sleep_ = 0.0;
};

}  // namespace fela::sim

#endif  // FELA_SIM_GPU_H_
