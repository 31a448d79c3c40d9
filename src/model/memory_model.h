#ifndef FELA_MODEL_MEMORY_MODEL_H_
#define FELA_MODEL_MEMORY_MODEL_H_

#include "model/model.h"
#include "sim/calibration.h"

namespace fela::model {

/// Device-memory footprint model. Holding layers [lo, hi] resident with a
/// given batch costs
///
///   params * replicas * 4B            (weights + grads + momentum)
/// + activations * batch * 4B * overhead_factor
///
/// Calibrated so a full VGG19 fits on the 12 GB K40c at batch 32 but not
/// at 64 (the paper's footnote 3 reports OOM above 32 under PyTorch).
class MemoryModel {
 public:
  explicit MemoryModel(const sim::Calibration& cal) : cal_(cal) {}

  /// Bytes required to train layers [lo, hi] of `model` at `batch`.
  double BytesForRange(const Model& model, int lo, int hi,
                       double batch) const;

  double BytesForModel(const Model& model, double batch) const {
    return BytesForRange(model, 0, model.layer_count() - 1, batch);
  }

  bool FitsRange(const Model& model, int lo, int hi, double batch) const {
    return BytesForRange(model, lo, hi, batch) <= cal_.gpu_memory_bytes;
  }

  bool FitsModel(const Model& model, double batch) const {
    return FitsRange(model, 0, model.layer_count() - 1, batch);
  }

  /// Largest integer batch for which layers [lo, hi] fit in device memory
  /// (0 if even batch 1 does not fit).
  int MaxBatchForRange(const Model& model, int lo, int hi) const;

  int MaxBatchForModel(const Model& model) const {
    return MaxBatchForRange(model, 0, model.layer_count() - 1);
  }

  /// Gradient accumulation for a full replica (DESIGN.md §1 item 3): a
  /// per-worker `batch` that does not fit runs as the fewest equal
  /// micro-batches that do, back to back. Requires sim::IsTotalBatch
  /// and a model that fits at batch 1.
  struct Accumulation {
    double micro_batch = 0.0;  // samples resident at once
    int micro_steps = 0;       // passes per iteration
  };
  Accumulation AccumulationForModel(const Model& model, double batch) const;

 private:
  sim::Calibration cal_;
};

}  // namespace fela::model

#endif  // FELA_MODEL_MEMORY_MODEL_H_
