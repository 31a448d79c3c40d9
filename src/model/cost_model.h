#ifndef FELA_MODEL_COST_MODEL_H_
#define FELA_MODEL_COST_MODEL_H_

#include <vector>

#include "model/model.h"
#include "model/profile.h"
#include "sim/calibration.h"

namespace fela::model {

/// Result of one simulated profiling sweep point (Fig. 1).
struct ThroughputPoint {
  double batch;
  double samples_per_sec;
};

/// GPU execution-time model. A training pass (forward + backward) over a
/// layer with batch b costs
///
///     time(layer, b) = per_sample * b^g * thr^(1-g)   b <  thr
///     time(layer, b) = per_sample * b                 b >= thr
///
/// where per_sample = training FLOPs / effective GPU rate, thr is the
/// layer's profiled threshold batch size, and g is the calibration's
/// latency-region exponent (DESIGN.md §4). Below the threshold the
/// device is occupancy-bound, so throughput grows with batch; at the
/// threshold it saturates and stays flat — the Fig. 1 shape, and the
/// reason flexible parallelism (bigger batches for deeper sub-models)
/// buys real speedups.
class LayerCostModel {
 public:
  LayerCostModel(const sim::Calibration& cal, const ProfileRepository* repo);

  /// Per-sample training time (fwd+bwd, seconds).
  double PerSampleSeconds(const Layer& layer) const;

  /// Extra seconds a pass at `batch` pays over the saturated ideal
  /// (batch * per_sample); zero at or above the threshold.
  double UnderutilizationSeconds(const Layer& layer, double batch) const;

  /// Full training pass for one layer at the given batch size.
  double PassSeconds(const Layer& layer, double batch) const;

  /// Training pass over layers [lo, hi] of `model` at the given batch.
  double RangeSeconds(const Model& model, int lo, int hi, double batch) const;

  /// Samples/second achieved by one device on this layer at this batch.
  double Throughput(const Layer& layer, double batch) const;

  /// Simulated profiling sweep over power-of-two batches in
  /// [1, max_batch]: the experiment behind Fig. 1.
  std::vector<ThroughputPoint> SweepThroughput(const Layer& layer,
                                               double max_batch) const;

  /// Smallest swept batch achieving >= `fraction` of the sweep's peak
  /// throughput — the "measured" threshold of §IV-A.
  double MeasureThresholdBatch(const Layer& layer, double max_batch,
                               double fraction = 0.95) const;

  /// Training-FLOPs multiplier over forward FLOPs (fwd + bwd ~ 3x fwd).
  static constexpr double kTrainingFlopsMultiplier = 3.0;

  const sim::Calibration& calibration() const { return cal_; }

 private:
  sim::Calibration cal_;
  const ProfileRepository* repo_;
};

}  // namespace fela::model

#endif  // FELA_MODEL_COST_MODEL_H_
