// Outside-in instrumentation for the simulator benchmark.
//
// The benchmark never edits or hooks the simulator. It takes wall time
// only at calls it makes itself: the engine factory it passes to
// RunExperiment (engine construction), the post_run_probe (the end of
// Engine::Run), and the return of RunExperiment (export). Work counters
// are read from public accessors inside the probe, and correctness is
// judged with the program's own public checks. A traced pass also keeps
// a span around every layer call; an untraced pass keeps only the
// boundary timestamps the end-to-end metrics need.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/fela_config.h"
#include "core/token_server.h"
#include "model/model.h"
#include "model/partition.h"
#include "runtime/experiment.h"

namespace fela::perfbench {

/// Seconds on the benchmark's steady clock since the process started.
double Now();

/// One span the benchmark recorded around a call into a simulator layer.
struct SpanRecord {
  std::string name;  // the layer call, e.g. "engine.run"
  std::string tag;   // the engine, where one applies ("Fela", "MP", ...)
  double begin = 0.0;
  double end = 0.0;
  int parent = -1;   // index in the pass's span list; -1 for the root
};

/// What the benchmark learned about one experiment (one Engine::Run).
struct ExperimentRecord {
  std::string engine;
  bool observed = false;
  int requested_iterations = 0;
  // Wall seconds between the benchmark's own call boundaries. For the
  // clean half of a RunPidExperiment pair, cluster_build_s also holds the
  // straggler half's result derivation and teardown: RunPidExperiment
  // exposes no boundary between them.
  double cluster_build_s = 0.0;
  double engine_build_s = 0.0;
  double run_s = 0.0;
  double export_s = 0.0;
  // Work counters read in post_run_probe.
  int iterations = 0;
  uint64_t events = 0;
  uint64_t causality_violations = 0;
  uint64_t transfers = 0;
  uint64_t cross_rack = 0;
  double data_bytes = 0.0;
  uint64_t control_msgs = 0;
  uint64_t control_dropped = 0;
  uint64_t control_duplicated = 0;
  int ts_shards = 0;  // Fela only
  core::TokenServer::Stats ts;
  uint64_t ts_failovers = 0;
  uint64_t ts_checkpoints = 0;
  uint64_t spans = 0;  // observed runs: spans recorded, dropped included
  size_t binary_bytes = 0;
  size_t chrome_bytes = 0;
  uint64_t fingerprint = 0;  // Fnv1a64(BinaryTranscript(result))
  std::vector<std::string> failures;
};

/// Everything one pass over a workload produced.
struct PassRecord {
  bool traced = false;
  double wall_s = 0.0;   // the whole pass minus check_s
  double check_s = 0.0;  // the benchmark's own checks and fingerprinting
  double model_build_s = 0.0;
  double partition_s = 0.0;
  std::vector<double> tune_s;  // one per in-situ tuning
  std::vector<double> eval_s;  // one per tuning evaluation
  std::vector<ExperimentRecord> experiments;
  std::vector<SpanRecord> spans;  // traced passes only
  uint64_t fingerprint = 0;       // folded over the experiments

  /// Model build + partition + every cluster and engine construction
  /// outside the tuner.
  double setup_s() const;
  int failed() const;
};

/// Runs one pass of a workload through the simulator's entry points and
/// records it. Calls must come from one thread, one at a time.
class Pass {
 public:
  explicit Pass(bool traced);

  model::Model BuildModel(model::Model (*build)());
  std::vector<model::SubModel> Partition(const model::Model& model);

  /// In-situ two-phase tuning: core::TuneConfiguration over
  /// core::MakeSimulatedEvaluator, each evaluation timed.
  core::FelaConfig Tune(const model::Model& model,
                        const std::vector<model::SubModel>& sub_models,
                        double total_batch, int num_workers,
                        int warmup_iterations,
                        const runtime::StragglerFactory& stragglers);

  /// runtime::RunExperiment, timed and checked. A traced pass runs an
  /// observed experiment through the same public steps RunExperiment
  /// takes, so that each export call gets its own span; its fingerprint
  /// must match the untraced pass's.
  runtime::ExperimentResult Run(const runtime::ExperimentSpec& spec,
                                const runtime::EngineFactory& factory,
                                const runtime::StragglerFactory& stragglers,
                                const runtime::FaultFactory& faults = nullptr);

  /// runtime::RunPidExperiment, timed and checked.
  runtime::PidResult RunPid(const runtime::ExperimentSpec& spec,
                            const runtime::EngineFactory& factory,
                            const runtime::StragglerFactory& stragglers);

  /// Fails the most recent experiment unless it reproduces `twin`'s
  /// simulated outcome (observation must not change what is simulated).
  void ExpectSameOutcome(const runtime::ExperimentResult& observed,
                         const runtime::ExperimentResult& twin);

  PassRecord Finish();

 private:
  int Open(const char* name, double begin, int parent);
  void Close(int span, double end);
  void Add(const char* name, const std::string& tag, double begin,
           double end, int parent);
  runtime::ExperimentSpec Instrument(runtime::ExperimentSpec spec);
  runtime::EngineFactory Timed(const runtime::EngineFactory& factory);
  runtime::ExperimentResult RunObservedTraced(
      const runtime::ExperimentSpec& spec,
      const runtime::EngineFactory& factory,
      const runtime::StragglerFactory& stragglers,
      const runtime::FaultFactory& faults);
  void CloseExport(double end);
  /// Result-side checks and fingerprint of one finished experiment.
  void Check(ExperimentRecord* record,
             const runtime::ExperimentResult& result);
  ExperimentRecord& current() { return record_.experiments.back(); }

  PassRecord record_;
  double start_ = 0.0;
  /// Last call boundary the benchmark saw; the next window starts here.
  double mark_ = 0.0;
  int pass_span_ = -1;
  int call_span_ = -1;  // the RunExperiment / RunPidExperiment call
  std::string fingerprints_;
};

}  // namespace fela::perfbench

#endif  // PERFBENCH_HARNESS_H_
