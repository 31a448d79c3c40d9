#include "model/profile.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace fela::model {

void ProfileRepository::Register(const std::string& shape_key,
                                 double threshold_batch) {
  FELA_CHECK_GT(threshold_batch, 0.0);
  thresholds_[shape_key] = threshold_batch;
}

double ProfileRepository::Lookup(const std::string& shape_key) const {
  auto it = thresholds_.find(shape_key);
  return it == thresholds_.end() ? 0.0 : it->second;
}

bool ProfileRepository::Contains(const std::string& shape_key) const {
  return thresholds_.count(shape_key) > 0;
}

double ProfileRepository::ThresholdFor(const Layer& layer) const {
  if (layer.threshold_batch > 0.0) return layer.threshold_batch;
  const double repo = Lookup(layer.ShapeKey());
  if (repo > 0.0) return repo;
  return HeuristicThreshold(layer);
}

const ProfileRepository& ProfileRepository::Default() {
  static const ProfileRepository* kRepo = [] {
    auto* repo = new ProfileRepository();
    // Fig. 1 shapes, as measured on the K40c.
    repo->Register("conv(64,64,224,224,k3)", 16.0);
    repo->Register("conv(512,512,14,14,k3)", 38.0);
    repo->Register("fc(4096,4096)", 2048.0);
    return repo;
  }();
  return *kRepo;
}

double HeuristicThreshold(const Layer& layer) {
  switch (layer.kind) {
    case LayerKind::kFc: {
      // FC saturation scales inversely with the GEMM width; anchored at
      // 2048 for a 4096-wide layer, clamped to a sane range.
      const double anchor = 2048.0 * 4096.0 / std::max(layer.c_out, 1);
      return std::clamp(anchor, 256.0, 4096.0);
    }
    case LayerKind::kPool:
      return 16.0;
    case LayerKind::kConv:
    case LayerKind::kInception: {
      // Per-sample output parallelism c_out*h*w; the anchor shape
      // (64,64,224,224) has 3.21M output elements and threshold 16.
      const double parallelism =
          std::max(1.0, static_cast<double>(layer.c_out) * layer.h * layer.w);
      const double anchor_parallelism = 64.0 * 224.0 * 224.0;
      const double thr =
          16.0 * std::pow(anchor_parallelism / parallelism, 0.28);
      return std::clamp(thr, 16.0, 64.0);
    }
  }
  return 16.0;
}

}  // namespace fela::model
