#include "runtime/cluster.h"

#include "common/logging.h"

namespace fela::runtime {

Cluster::Cluster(int num_workers, const sim::Calibration& cal,
                 std::unique_ptr<sim::StragglerSchedule> stragglers,
                 std::unique_ptr<sim::FaultSchedule> faults)
    : num_workers_(num_workers),
      cal_(cal),
      fabric_(&sim_, num_workers, cal),
      stragglers_(std::move(stragglers)),
      faults_(std::move(faults)) {
  FELA_CHECK_GT(num_workers, 0);
  if (!stragglers_) stragglers_ = std::make_unique<sim::NoStragglers>();
  if (!faults_) faults_ = std::make_unique<sim::NoFaults>();
  FELA_CHECK_OK(faults_->Validate(num_workers));
  fabric_.SetFaults(faults_.get(), &trace_);
  spans_.set_clock([this] { return sim_.now(); });
  fabric_.set_span_sink(&spans_);
  gpus_.Reserve(static_cast<size_t>(num_workers));
  for (int i = 0; i < num_workers; ++i) {
    gpus_.EmplaceBack(&sim_, i).set_span_sink(&spans_);
  }
}

void Cluster::SetObservability(bool enabled) {
  spans_.set_enabled(enabled);
  trace_.set_enabled(enabled);
}

std::unique_ptr<Cluster> Cluster::MakeDefault(int num_workers) {
  return std::make_unique<Cluster>(num_workers, sim::Calibration::Default(),
                                   std::make_unique<sim::NoStragglers>());
}

double Cluster::TotalGpuBusy() const {
  double s = 0.0;
  for (const auto& g : gpus_) s += g.BusyTimeSoFar();
  return s;
}

}  // namespace fela::runtime
