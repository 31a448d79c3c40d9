#include "runtime/experiment.h"

#include <utility>

#include "common/logging.h"
#include "sim/chrome_trace.h"
#include "sim/trace_io.h"

namespace fela::runtime {

StragglerFactory NoStragglerFactory() {
  return [](int) { return std::make_unique<sim::NoStragglers>(); };
}

ExperimentResult RunExperiment(const ExperimentSpec& spec,
                               const EngineFactory& engine_factory,
                               const StragglerFactory& straggler_factory,
                               const FaultFactory& fault_factory) {
  FELA_CHECK_GT(spec.iterations, 0);
  FELA_CHECK_GT(spec.total_batch, 0.0);
  Cluster cluster(spec.num_workers, spec.calibration,
                  straggler_factory(spec.num_workers),
                  fault_factory ? fault_factory(spec.num_workers) : nullptr);
  cluster.SetObservability(spec.observe);
  std::unique_ptr<Engine> engine = engine_factory(cluster, spec.total_batch);
  ExperimentResult result;
  result.engine_name = engine->name();
  result.stats = engine->Run(spec.iterations);
  if (spec.post_run_probe) spec.post_run_probe(*engine, cluster);
  result.average_throughput =
      result.stats.EffectiveThroughput(spec.total_batch);
  result.gpu_utilization =
      result.stats.total_gpu_busy /
      (static_cast<double>(spec.num_workers) * result.stats.total_time);
  if (spec.observe) {
    result.observed = true;
    result.attribution =
        obs::BuildAttribution(result.engine_name, spec.num_workers,
                              cluster.spans().spans(),
                              result.stats.iterations);
    obs::FillRunMetrics(result.engine_name, result.stats, result.attribution,
                        &cluster.metrics());
    result.metrics = cluster.metrics();
    result.chrome_trace = obs::ChromeTraceString(
        cluster.spans(), &cluster.trace(), spec.num_workers);
    result.binary_trace = obs::SerializeBinaryTrace(
        cluster.spans(), &cluster.trace(), spec.num_workers);
  }
  return result;
}

PidResult RunPidExperiment(const ExperimentSpec& spec,
                           const EngineFactory& engine_factory,
                           const StragglerFactory& straggler_factory) {
  PidResult out;
  out.with_stragglers = RunExperiment(spec, engine_factory, straggler_factory);
  out.clean = RunExperiment(spec, engine_factory, NoStragglerFactory());
  out.per_iteration_delay =
      PerIterationDelay(out.with_stragglers.stats, out.clean.stats);
  return out;
}

}  // namespace fela::runtime
