#ifndef FELA_RUNTIME_EXPERIMENT_H_
#define FELA_RUNTIME_EXPERIMENT_H_

#include <functional>
#include <memory>
#include <string>

#include "model/model.h"
#include "runtime/attribution.h"
#include "runtime/cluster.h"
#include "runtime/engine.h"
#include "sim/calibration.h"
#include "sim/straggler.h"

namespace fela::runtime {

/// Everything that defines one training run (the paper trains each
/// configuration for 100 iterations and reports Eq. 3 / Eq. 4 metrics).
struct ExperimentSpec {
  double total_batch = 128.0;
  int iterations = 100;
  int num_workers = 8;
  sim::Calibration calibration = sim::Calibration::Default();
  /// Turns the observability layer on for the run: spans + trace are
  /// recorded and the result carries attribution, metrics, and a
  /// serialized Chrome trace. Off by default — observation costs time
  /// and memory, and sweeps only need the scalar outcomes.
  bool observe = false;
  /// Invoked after Engine::Run while the engine and cluster are still
  /// alive — the only window where live internals (token-server ledgers,
  /// simulator counters) are inspectable. Used by the invariant oracles
  /// in src/testing; null for normal runs. Probes must not mutate state.
  std::function<void(const Engine& engine, Cluster& cluster)> post_run_probe;
};

/// Creates an engine wired to the given cluster for the given workload.
/// Factories capture the model and any engine-specific configuration.
using EngineFactory = std::function<std::unique_ptr<Engine>(
    Cluster& cluster, double total_batch)>;

/// Creates a straggler schedule for a cluster of the given size; called
/// once per run so each run gets a fresh (but identical) schedule.
using StragglerFactory =
    std::function<std::unique_ptr<sim::StragglerSchedule>(int num_workers)>;

/// Creates a fault schedule for a cluster of the given size (the
/// fault-injection analogue of StragglerFactory). A null factory (or one
/// returning null) means NoFaults.
using FaultFactory =
    std::function<std::unique_ptr<sim::FaultSchedule>(int num_workers)>;

/// Returns a factory producing NoStragglers.
StragglerFactory NoStragglerFactory();

/// Outcome of one run, with the paper's derived metrics.
struct ExperimentResult {
  std::string engine_name;
  RunStats stats;
  /// Eq. 3 samples/sec — 0 when the run stalled (the job never ends).
  double average_throughput = 0.0;
  double gpu_utilization = 0.0;     // busy / (N * total_time)

  /// Filled only when the spec asked to observe (the cluster is gone by
  /// the time the result is returned, so these are the run's surviving
  /// observability artifacts).
  bool observed = false;
  obs::AttributionReport attribution;
  obs::MetricsRegistry metrics;
  std::string chrome_trace;  // serialized trace-event JSON
  /// FELATRB1 compact binary transcript of the same spans + trace (see
  /// sim/trace_io.h) — what determinism hashing compares and what
  /// tools/fela-detok consumes offline.
  std::string binary_trace;
};

/// Builds the cluster, constructs the engine, runs it, and derives the
/// metrics. `fault_factory` may be omitted (or empty) for fault-free runs.
ExperimentResult RunExperiment(const ExperimentSpec& spec,
                               const EngineFactory& engine_factory,
                               const StragglerFactory& straggler_factory,
                               const FaultFactory& fault_factory = nullptr);

/// Convenience for PID studies: runs the same engine with and without
/// stragglers and returns (straggler result, clean result, PID seconds).
struct PidResult {
  ExperimentResult with_stragglers;
  ExperimentResult clean;
  double per_iteration_delay = 0.0;  // Eq. 4
};
PidResult RunPidExperiment(const ExperimentSpec& spec,
                           const EngineFactory& engine_factory,
                           const StragglerFactory& straggler_factory);

}  // namespace fela::runtime

#endif  // FELA_RUNTIME_EXPERIMENT_H_
