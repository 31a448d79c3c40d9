#ifndef FELA_SIM_FAULTS_H_
#define FELA_SIM_FAULTS_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "sim/simulator.h"
#include "sim/types.h"

namespace fela::sim {

// kNeverTime and its IsNever() test live in sim/types.h alongside SimTime.

/// Fault injection schedule, the failure-side sibling of
/// StragglerSchedule: *worker crash / recover* events at simulated times,
/// *control-message drop / duplicate* events on the token protocol's
/// control plane, *network partitions* (bipartition intervals across
/// which control messages drop), and *gray failures* (per-worker control
/// latency inflation). Every decision is a pure function of
/// (time, worker) or of a message sequence number plus a seed, so two
/// runs with the same schedule replay bit-identically (the property the
/// determinism regression tests pin down).
///
/// Model boundaries (see DESIGN.md "Fault model & recovery"):
///  * A down worker neither computes usefully nor exchanges control
///    messages; work in flight on it at crash time is lost.
///  * Bulk data transfers still complete even when an endpoint is down
///    (parameter chunks / sample shards are assumed recoverable from
///    node-local persistent storage, as with a replicated PS).
///  * The Token Server starts on node 0 but is no longer pinned there:
///    when the hosting node crashes or lands on a minority partition
///    side, Fela fences the server, reclaims its live leases, and fails
///    over to a standby that grants the reclaimed tokens afresh (see
///    DESIGN.md §6). Schedules are therefore free to crash or partition
///    worker 0 like any other node; DP stalls and PS aborts when their
///    coordinator (rank 0) becomes unreachable, which is exactly the
///    contrast bench_control_plane_chaos measures.
class FaultSchedule {
 public:
  virtual ~FaultSchedule() = default;

  /// False only for the no-op schedule; engines use this to keep the
  /// clean path entirely free of fault bookkeeping.
  virtual bool Active() const { return true; }

  /// True if `worker` is crashed (down) at simulated time `time`.
  /// Down intervals are half-open: [crash_time, recover_time).
  virtual bool IsDownAt(SimTime time, int worker) const = 0;

  /// Earliest candidate time strictly after `t` at which some worker's
  /// up/down state may change, or kNeverTime. Spurious candidates (times
  /// where nothing actually changes) are allowed; missed real transitions
  /// are not.
  virtual SimTime NextTransitionAfter(SimTime t) const = 0;

  /// True if the control message with fabric sequence number `seq`
  /// vanishes in flight.
  virtual bool DropControl(uint64_t seq) const {
    (void)seq;
    return false;
  }

  /// True if the control message with sequence number `seq` is delivered
  /// twice (a retransmitted duplicate).
  virtual bool DuplicateControl(uint64_t seq) const {
    (void)seq;
    return false;
  }

  /// True if nodes `a` and `b` are on opposite sides of an active
  /// network partition at `time` (control messages between them drop).
  /// Partition boundaries must be reported via NextTransitionAfter.
  virtual bool Partitioned(SimTime time, int a, int b) const {
    (void)time;
    (void)a;
    (void)b;
    return false;
  }

  /// Control-plane latency multiplier for `worker` at `time` (>= 1.0;
  /// 1.0 = healthy). Gray failures inflate this without ever reporting
  /// the worker down — the slow-but-alive case crash detection misses,
  /// so gray intervals deliberately do NOT appear in
  /// NextTransitionAfter.
  virtual double ControlDelayFactor(SimTime time, int worker) const {
    (void)time;
    (void)worker;
    return 1.0;
  }

  /// Checks the schedule against a concrete cluster size: every worker
  /// id it references must lie in [0, num_workers). Cluster wiring
  /// FELA_CHECK_OKs this, so a schedule naming a nonexistent worker is a
  /// clear error instead of an event that silently never fires.
  virtual common::Status Validate(int num_workers) const {
    (void)num_workers;
    return common::Status::Ok();
  }

  /// Human-readable description for reports.
  virtual std::string ToString() const = 0;

  // -- Derived helpers (implemented with the virtuals) --------------------

  /// True if `worker` is down or partitioned from `anchor` at any point
  /// in [t0, t1] — "unreachable" from the coordinator's point of view.
  bool AnyUnreachableDuring(SimTime t0, SimTime t1, int worker,
                            int anchor) const;

  /// Earliest time >= t at which `worker` is up and on `anchor`'s side
  /// of any partition, or kNeverTime.
  SimTime NextReachableAfter(SimTime t, int worker, int anchor) const;
};

/// Baseline: nothing ever fails.
class NoFaults final : public FaultSchedule {
 public:
  bool Active() const override { return false; }
  bool IsDownAt(SimTime, int) const override { return false; }
  SimTime NextTransitionAfter(SimTime) const override { return kNeverTime; }
  std::string ToString() const override { return "none"; }
};

/// One scripted crash: `worker` dies at `crash_time` and comes back at
/// `recover_time` (kNeverTime = never recovers).
struct CrashEvent {
  int worker = 0;
  SimTime crash_time = 0.0;
  SimTime recover_time = kNeverTime;
};

/// Deterministic scripted crash/recover windows (the unit-test workhorse
/// and the "crash worker w at iteration k" building block).
class ScriptedCrashes final : public FaultSchedule {
 public:
  explicit ScriptedCrashes(std::vector<CrashEvent> events);
  bool IsDownAt(SimTime time, int worker) const override;
  SimTime NextTransitionAfter(SimTime t) const override;
  common::Status Validate(int num_workers) const override;
  std::string ToString() const override;

  const std::vector<CrashEvent>& events() const { return events_; }

 private:
  std::vector<CrashEvent> events_;
};

/// Probabilistic crashes: simulated time is divided into fixed windows of
/// `window_sec`; at the start of each window every worker in
/// [first_worker, num_workers) independently crashes with probability
/// `crash_prob`, staying down for `down_sec` (kNeverTime = fail-stop).
/// Deterministic in (seed, window, worker). `first_worker` defaults to 1
/// (node 0 — the initial Token Server host — spared); pass 0 to expose
/// every node, including the control plane, to the crash process.
class RandomCrashes final : public FaultSchedule {
 public:
  RandomCrashes(int num_workers, double crash_prob, SimTime window_sec,
                SimTime down_sec, uint64_t seed, int first_worker = 1);
  bool IsDownAt(SimTime time, int worker) const override;
  SimTime NextTransitionAfter(SimTime t) const override;
  std::string ToString() const override;

 private:
  bool CrashesInWindow(int64_t window, int worker) const;

  int num_workers_;
  double crash_prob_;
  SimTime window_sec_;
  SimTime down_sec_;
  uint64_t seed_;
  int first_worker_;
};

/// Lossy control plane: each control message is dropped with probability
/// `drop_prob` and duplicated with probability `dup_prob`, independently,
/// keyed on the fabric's message sequence number. No crashes.
class LossyControlPlane final : public FaultSchedule {
 public:
  LossyControlPlane(double drop_prob, double dup_prob, uint64_t seed);
  bool IsDownAt(SimTime, int) const override { return false; }
  SimTime NextTransitionAfter(SimTime) const override { return kNeverTime; }
  bool DropControl(uint64_t seq) const override;
  bool DuplicateControl(uint64_t seq) const override;
  std::string ToString() const override;

 private:
  double drop_prob_;
  double dup_prob_;
  uint64_t seed_;
};

/// One scripted bipartition interval: during [start, end) the cluster
/// splits into `side_a` and its complement; control messages whose
/// endpoints straddle the cut drop. A side that is empty (or covers the
/// whole cluster) never separates anything and is inert.
struct PartitionEvent {
  SimTime start = 0.0;
  SimTime end = kNeverTime;
  std::vector<int> side_a;  // sorted at construction; complement is side B
};

/// Deterministic scripted network partitions. Workers are never "down" —
/// both sides keep computing — but Fabric drops control messages across
/// the cut, and the FaultMonitor's reachability tracking (anchored on
/// the Token Server host) parks whichever side lost the coordinator.
class NetworkPartition final : public FaultSchedule {
 public:
  explicit NetworkPartition(std::vector<PartitionEvent> events);
  bool IsDownAt(SimTime, int) const override { return false; }
  SimTime NextTransitionAfter(SimTime t) const override;
  bool Partitioned(SimTime time, int a, int b) const override;
  common::Status Validate(int num_workers) const override;
  std::string ToString() const override;

  const std::vector<PartitionEvent>& events() const { return events_; }

 private:
  std::vector<PartitionEvent> events_;
};

/// One gray-failure interval: `worker`'s control-plane latency is
/// multiplied by `delay_factor` (>= 1) during [start, end).
struct GrayEvent {
  int worker = 0;
  SimTime start = 0.0;
  SimTime end = kNeverTime;
  double delay_factor = 2.0;
};

/// Deterministic gray failures: slow-but-not-dead workers. The affected
/// worker is never reported down and never appears in
/// NextTransitionAfter — by design nothing "detects" it; its control
/// messages just take longer, and backoff / lease machinery must absorb
/// the slowness.
class GrayFailures final : public FaultSchedule {
 public:
  explicit GrayFailures(std::vector<GrayEvent> events);
  bool IsDownAt(SimTime, int) const override { return false; }
  SimTime NextTransitionAfter(SimTime) const override { return kNeverTime; }
  double ControlDelayFactor(SimTime time, int worker) const override;
  common::Status Validate(int num_workers) const override;
  std::string ToString() const override;

 private:
  std::vector<GrayEvent> events_;
};

/// OR-composition of several schedules (e.g. scripted crashes plus a
/// lossy control plane plus a partition window). Delay factors compose
/// by max, validation by first error.
class CompositeFaults final : public FaultSchedule {
 public:
  explicit CompositeFaults(std::vector<std::unique_ptr<FaultSchedule>> parts);
  bool IsDownAt(SimTime time, int worker) const override;
  SimTime NextTransitionAfter(SimTime t) const override;
  bool DropControl(uint64_t seq) const override;
  bool DuplicateControl(uint64_t seq) const override;
  bool Partitioned(SimTime time, int a, int b) const override;
  double ControlDelayFactor(SimTime time, int worker) const override;
  common::Status Validate(int num_workers) const override;
  std::string ToString() const override;

 private:
  std::vector<std::unique_ptr<FaultSchedule>> parts_;
};

/// Replays a FaultSchedule onto a running simulation: walks the
/// schedule's transition times and invokes on_crash / on_recover exactly
/// when a worker's state flips, plus on_cut / on_heal when a worker's
/// reachability to the anchor node (the current Token Server host,
/// supplied via set_anchor) changes across a partition boundary. Engines
/// that react to crashes (Fela's elastic scale-in/out) drive their
/// handlers from this. Stop() must be called when the run completes so
/// pending wake-ups do not keep the event queue alive.
class FaultMonitor {
 public:
  struct Callbacks {
    std::function<void(int worker)> on_crash;
    std::function<void(int worker)> on_recover;
    std::function<void(int worker)> on_cut;   // partitioned from anchor
    std::function<void(int worker)> on_heal;  // reconnected to anchor
  };

  FaultMonitor(Simulator* sim, const FaultSchedule* faults, int num_workers,
               Callbacks cbs);

  FaultMonitor(const FaultMonitor&) = delete;
  FaultMonitor& operator=(const FaultMonitor&) = delete;

  /// Supplies the anchor node for reachability tracking (the current TS
  /// host — a function because failover moves it). Without an anchor,
  /// cut tracking is disabled and IsCut is always false.
  void set_anchor(std::function<int()> anchor) { anchor_ = std::move(anchor); }

  /// Captures the current up/down and cut state and schedules the first
  /// wake-up. Workers already down (or cut) at start are reported via
  /// on_crash / on_cut immediately.
  void Start();
  void Stop();

  bool IsDown(int worker) const {
    return down_[static_cast<size_t>(worker)];
  }

  /// True if `worker` is partitioned away from the anchor (independent
  /// of its up/down state).
  bool IsCut(int worker) const { return cut_[static_cast<size_t>(worker)]; }

  /// Re-derives every worker's cut state against the (possibly moved)
  /// anchor, firing on_cut / on_heal for changes. Called from wake-ups
  /// and by the engine after a failover relocates the anchor. State is
  /// updated for all workers before any callback fires, so handlers see
  /// a consistent IsCut view.
  void RefreshCuts();

 private:
  void OnWakeup();
  void ScheduleNext(SimTime after);

  Simulator* sim_;
  const FaultSchedule* faults_;
  Callbacks cbs_;
  std::function<int()> anchor_;
  std::vector<bool> down_;
  std::vector<bool> cut_;
  EventId pending_ = kInvalidEventId;
};

}  // namespace fela::sim

#endif  // FELA_SIM_FAULTS_H_
