#ifndef FELA_RUNTIME_ENGINE_H_
#define FELA_RUNTIME_ENGINE_H_

#include <optional>
#include <string>
#include <vector>

#include "common/tokenize.h"
#include "runtime/cluster.h"
#include "sim/span.h"
#include "sim/types.h"

namespace fela::runtime {

/// Timing record of one BSP iteration.
struct IterationStats {
  sim::SimTime start = 0.0;
  sim::SimTime end = 0.0;
  double duration() const { return end - start; }
};

/// Fault-injection accounting for one run: what failed, what the engine
/// did about it, and what it cost (the robustness-side companions of the
/// paper's Eq. 3/Eq. 4 metrics).
struct FaultStats {
  uint64_t crashes = 0;              // worker crash events observed
  uint64_t recoveries = 0;           // worker recover events observed
  uint64_t control_dropped = 0;      // control messages lost in flight
  uint64_t control_duplicated = 0;   // control messages delivered twice
  uint64_t tokens_reclaimed = 0;     // in-flight grants pulled back
  uint64_t regrants = 0;             // grants of previously reclaimed tokens
  uint64_t request_retries = 0;      // worker-side request retransmissions
  uint64_t duplicate_reports = 0;    // reports ignored as duplicate/stale
  uint64_t readmissions = 0;         // recovered workers re-admitted
  double recovery_latency_total = 0.0;  // recover event -> re-admission secs
  uint64_t ts_failovers = 0;         // token-server standby promotions
  /// Checkpoints taken by the token server. NOT part of the determinism
  /// transcript: boundary checkpoints fire whenever a fault schedule is
  /// merely *attached*, so an inert schedule would diverge from the
  /// faultless twin on this counter alone.
  uint64_t ts_checkpoints = 0;
  uint64_t partition_cuts = 0;       // workers cut off from the TS host
  uint64_t partition_heals = 0;      // cut workers reconnected
  uint64_t leases_restored = 0;      // leases re-armed from a checkpoint

  bool any() const {
    return crashes + control_dropped + control_duplicated + tokens_reclaimed +
               request_retries + duplicate_reports + ts_failovers +
               partition_cuts >
           0;
  }
  double MeanRecoveryLatency() const {
    return readmissions == 0
               ? 0.0
               : recovery_latency_total / static_cast<double>(readmissions);
  }
};

/// Aggregate outcome of a training run.
struct RunStats {
  std::vector<IterationStats> iterations;
  double total_time = 0.0;        // seconds to finish all iterations
  double total_data_bytes = 0.0;  // bulk bytes moved on the fabric
  double total_gpu_busy = 0.0;    // sum of per-GPU busy seconds
  uint64_t control_messages = 0;  // token-protocol messages
  FaultStats faults;              // fault events and recovery work
  /// True when the engine could not survive a fault and gave up (BSP
  /// baselines stall at the barrier / abort): `iterations` then holds
  /// only the iterations completed before the failure.
  bool stalled = false;

  int iteration_count() const { return static_cast<int>(iterations.size()); }
  /// Average per-iteration seconds.
  double MeanIterationSeconds() const;
  /// Average throughput per the paper's Eq. 3 (samples/second).
  double AverageThroughput(double total_batch) const;
  /// Throughput a scheduler-facing client observes: 0 for a stalled run
  /// (the job never finishes without intervention), Eq. 3 otherwise.
  double EffectiveThroughput(double total_batch) const;
};

/// A distributed-training engine (Fela or one of the baselines) on a
/// Cluster, and the one BSP iteration driver they share. Run() owns the
/// run-once rule, the drain rule and the run totals; BeginIteration() and
/// FinishIteration() own the iteration framing (start time, the
/// kIteration span on track `num_workers`, the IterationStats record, the
/// next iteration or the end of the run). An engine schedules its
/// protocol onto the simulator in StartIteration(), calling
/// BeginIteration() first, and calls FinishIteration() from the event
/// that ends the iteration.
class Engine {
 public:
  virtual ~Engine() = default;

  virtual std::string name() const = 0;

  /// Runs `iterations` BSP iterations and returns timing statistics.
  /// May be called once per engine instance.
  RunStats Run(int iterations);

 protected:
  explicit Engine(Cluster* cluster) : cluster_(cluster) {}

  /// Schedules iteration `iteration`; calls BeginIteration() first.
  virtual void StartIteration(int iteration) = 0;
  /// Called by Run() after the fabric statistics reset, before iteration 0.
  virtual void OnRunStart() {}
  /// Called by Run() after the simulator drained and the totals are in.
  virtual void OnRunEnd() {}
  /// True when the run may drain unfinished without the engine having
  /// declared `stats_.stalled` itself; otherwise such a drain is a bug.
  virtual bool MayStallOnDrain() const { return false; }

  /// Opens iteration `iteration`: records its start time and opens its
  /// framing span, labelled with `detail`.
  void BeginIteration(int iteration, common::TokenizedDetail detail = {});
  /// Closes the running iteration: records its IterationStats and emits
  /// its framing span, then starts the next iteration or completes the
  /// run.
  void FinishIteration();
  /// Blocks `worker`'s GPU for its straggler sleep in the running
  /// iteration, if it has one (the paper injects sleep before compute).
  void SleepIfStraggler(int worker);

  int current_iteration() const { return current_iteration_; }
  sim::SimTime iteration_start() const { return iteration_start_; }
  bool run_complete() const { return run_complete_; }

  Cluster* const cluster_;
  RunStats stats_;

 private:
  int target_iterations_ = 0;
  int current_iteration_ = 0;
  sim::SimTime iteration_start_ = 0.0;
  bool run_complete_ = false;
  /// Iteration framing span on the driver track (= num_workers).
  std::optional<obs::ScopedSpan> iter_span_;
};

/// Per-iteration delay (PID) per the paper's Eq. 4: the extra seconds per
/// iteration a straggler scenario costs relative to the clean run.
double PerIterationDelay(const RunStats& with_stragglers,
                         const RunStats& baseline);

}  // namespace fela::runtime

#endif  // FELA_RUNTIME_ENGINE_H_
