#ifndef FELA_SIM_SIMULATOR_H_
#define FELA_SIM_SIMULATOR_H_

#include "sim/event_fn.h"
#include "sim/event_queue.h"
#include "sim/types.h"

namespace fela::sim {

/// The discrete-event simulation driver. Engines schedule callbacks;
/// Run() advances virtual time until no work remains. Single-threaded
/// and deterministic.
class Simulator {
 public:
  Simulator() = default;

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current virtual time in seconds.
  SimTime now() const { return now_; }

  /// Schedules `fn` to run `delay` seconds from now (delay >= 0).
  /// Accepts any void() callable (see EventFn: small captures schedule
  /// allocation-free).
  EventId Schedule(SimTime delay, EventFn fn);

  /// Schedules `fn` at absolute time `when` (>= now()).
  EventId ScheduleAt(SimTime when, EventFn fn);

  /// ScheduleAt for a FIFO device's next completion: `when` must be no
  /// earlier than the time of `prev`, the device's previous completion.
  /// While `prev` is pending the new event waits behind it outside the
  /// event heap (EventQueue::PushAfter), and neither can be cancelled
  /// any more. Events fire in the same order either way.
  EventId ScheduleAfter(EventId prev, SimTime when, EventFn fn);

  /// Cancels a pending event.
  bool Cancel(EventId id) { return queue_.Cancel(id); }

  /// Executes the earliest pending event; returns false if none remain.
  bool Step();

  /// Runs until the queue is empty.
  void Run();

  /// Runs until the queue is empty or virtual time would exceed
  /// `deadline`; events after the deadline stay queued.
  void RunUntil(SimTime deadline);

  /// Number of events executed so far.
  uint64_t events_processed() const { return events_processed_; }

  /// Events that popped with a fire time earlier than the clock — i.e.
  /// the queue handed back an event from the past. Always 0 for a
  /// healthy queue; counted (rather than crashed on) so the invariant
  /// oracles can report the violation with full run context.
  uint64_t causality_violations() const { return causality_violations_; }

  bool idle() const { return queue_.empty(); }

  /// Entries in the event heap; chained events wait outside it (tests).
  size_t heap_entries() const { return queue_.heap_entries(); }

 private:
  EventQueue queue_;
  SimTime now_ = 0.0;
  uint64_t events_processed_ = 0;
  uint64_t causality_violations_ = 0;
};

}  // namespace fela::sim

#endif  // FELA_SIM_SIMULATOR_H_
