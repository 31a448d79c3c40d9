#ifndef FELA_BASELINES_MP_ENGINE_H_
#define FELA_BASELINES_MP_ENGINE_H_

#include <array>
#include <string>
#include <vector>

#include "model/cost_model.h"
#include "model/model.h"
#include "model/partition.h"
#include "runtime/cluster.h"
#include "runtime/engine.h"

namespace fela::baselines {

/// The model-parallel (MP) baseline, after PipeDream/GPipe under BSP
/// (§V-A): the model is split into N FLOP-balanced stages, one per
/// worker; each iteration streams the batch through the pipeline in
/// small fixed micro-batches. Forward activations and backward gradients
/// cross stage boundaries as real transfers; the pipeline fill/drain
/// bubble and the under-saturated micro-batch are exactly the two
/// weaknesses the paper attributes to MP.
class MpEngine : public runtime::Engine {
 public:
  /// `micro_batch` is the fixed micro-batch size; the paper's MP
  /// baseline keeps it small to amortize the bubble (default 4).
  MpEngine(runtime::Cluster* cluster, const model::Model& model,
           double total_batch, double micro_batch = 4.0);

  std::string name() const override { return "MP"; }

  int num_stages() const { return static_cast<int>(stages_.size()); }
  int num_micro_batches() const { return num_micros_; }
  const std::vector<std::pair<int, int>>& stages() const { return stages_; }

 protected:
  /// A subclass that changes `stages_` before calling this must call
  /// BuildStageCosts() first.
  void StartIteration(int iteration) override;

  /// Re-evaluates the cost model for every stage of `stages_` at both
  /// micro-batch sizes.
  void BuildStageCosts();

  model::Model model_;
  model::LayerCostModel cost_;
  double micro_batch_;
  int num_micros_;
  std::vector<std::pair<int, int>> stages_;  // inclusive layer ranges

 private:
  /// A stage's costs at the two micro-batch sizes, indexed by
  /// SizeIndex(): [0] `micro_batch_`, [1] `last_micro_batch_`.
  struct StageCost {
    std::array<double, 2> range_seconds;   // full fwd+bwd pass
    std::array<double, 2> boundary_bytes;  // activations entering it
  };

  void OnRunStart() override;  // builds the initial stage-cost table
  void EnqueueForward(int stage, int micro);
  void OnForwardDone(int stage, int micro);
  void EnqueueBackward(int stage, int micro);
  void OnBackwardDone(int stage, int micro);

  /// Training pass (fwd+bwd) of `stage` over one micro-batch.
  double StageSeconds(int stage, int micro) const;
  /// Boundary activation bytes for one micro-batch entering `stage`.
  double BoundaryBytes(int stage, int micro) const;
  size_t SizeIndex(int micro) const { return micro + 1 < num_micros_ ? 0 : 1; }

  double last_micro_batch_ = 0.0;  // absorbs the remainder of the batch
  std::vector<StageCost> stage_costs_;  // built by OnRunStart()

  int backwards_pending_ = 0;
  int tail_forwards_done_ = 0;
};

}  // namespace fela::baselines

#endif  // FELA_BASELINES_MP_ENGINE_H_
