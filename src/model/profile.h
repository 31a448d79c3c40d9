#ifndef FELA_MODEL_PROFILE_H_
#define FELA_MODEL_PROFILE_H_

#include <map>
#include <string>

#include "model/layer.h"

namespace fela::model {

/// Repository of profiled threshold batch sizes, keyed by layer shape
/// signature. Mirrors the paper's §IV-A footnote 11: thresholds are
/// "measured once and for all" and stored for reuse across tasks.
/// Lookup order for a layer: explicit layer.threshold_batch, then the
/// repository, then the heuristic fallback.
class ProfileRepository {
 public:
  ProfileRepository() = default;

  /// Registers (or overwrites) a profiled threshold for a shape.
  void Register(const std::string& shape_key, double threshold_batch);

  /// Returns the profiled threshold or 0 if unknown.
  double Lookup(const std::string& shape_key) const;

  bool Contains(const std::string& shape_key) const;
  size_t size() const { return thresholds_.size(); }

  /// Resolves the threshold for a layer through the full lookup chain.
  double ThresholdFor(const Layer& layer) const;

  /// The repository pre-populated with the calibrated K40c measurements
  /// used throughout the paper (Fig. 1, Fig. 5 shapes).
  static const ProfileRepository& Default();

 private:
  std::map<std::string, double> thresholds_;
};

/// Analytic fallback for unprofiled shapes. CONV thresholds shrink-fit a
/// power law in the layer's per-sample output parallelism, anchored at the
/// paper's measurements (16 for (64,64,224,224), ~64 for (512,512,14,14));
/// FC layers saturate only at very large batches (2048 for 4096x4096).
double HeuristicThreshold(const Layer& layer);

}  // namespace fela::model

#endif  // FELA_MODEL_PROFILE_H_
