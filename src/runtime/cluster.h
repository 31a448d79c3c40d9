#ifndef FELA_RUNTIME_CLUSTER_H_
#define FELA_RUNTIME_CLUSTER_H_

#include <memory>
#include <vector>

#include "common/arena.h"
#include "common/metrics.h"
#include "sim/calibration.h"
#include "sim/fabric.h"
#include "sim/faults.h"
#include "sim/gpu.h"
#include "sim/simulator.h"
#include "sim/span.h"
#include "sim/straggler.h"
#include "sim/trace.h"

namespace fela::runtime {

/// The simulated testbed an engine runs on: N nodes, one GPU and one NIC
/// each, a shared switch fabric, a straggler schedule, and a fault
/// schedule (crashes + lossy control plane; defaults to NoFaults). Owns
/// the simulator; engines borrow pointers.
class Cluster {
 public:
  Cluster(int num_workers, const sim::Calibration& cal,
          std::unique_ptr<sim::StragglerSchedule> stragglers,
          std::unique_ptr<sim::FaultSchedule> faults = nullptr);

  /// Convenience: the paper's 8-node testbed with default calibration and
  /// no stragglers.
  static std::unique_ptr<Cluster> MakeDefault(int num_workers = 8);

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  int num_workers() const { return num_workers_; }
  sim::Simulator& simulator() { return sim_; }
  sim::Fabric& fabric() { return fabric_; }
  sim::GpuDevice& gpu(int worker) { return gpus_[static_cast<size_t>(worker)]; }
  const sim::Calibration& calibration() const { return cal_; }
  const sim::StragglerSchedule& stragglers() const { return *stragglers_; }
  const sim::FaultSchedule& faults() const { return *faults_; }
  sim::TraceRecorder& trace() { return trace_; }
  obs::SpanSink& spans() { return spans_; }
  const obs::SpanSink& spans() const { return spans_; }
  obs::MetricsRegistry& metrics() { return metrics_; }
  const obs::MetricsRegistry& metrics() const { return metrics_; }

  /// Master switch for the observability layer: enables (or disables)
  /// both the span sink and the trace recorder. Off by default so sweeps
  /// pay nothing; devices/fabric/collectives are pre-wired to the sink
  /// either way and check enabled() per record.
  void SetObservability(bool enabled);
  bool observability() const { return spans_.enabled(); }

  /// GPU busy seconds across workers so far: compute still queued to
  /// run after now does not count (utilization numerator).
  double TotalGpuBusy() const;

 private:
  int num_workers_;
  sim::Calibration cal_;
  sim::Simulator sim_;
  sim::Fabric fabric_;
  /// One contiguous arena (common/arena.h): per-device hot state stays
  /// cache-resident at 1k+ workers.
  common::ObjectArena<sim::GpuDevice> gpus_;
  std::unique_ptr<sim::StragglerSchedule> stragglers_;
  std::unique_ptr<sim::FaultSchedule> faults_;
  sim::TraceRecorder trace_;
  obs::SpanSink spans_;
  obs::MetricsRegistry metrics_;
};

}  // namespace fela::runtime

#endif  // FELA_RUNTIME_CLUSTER_H_
