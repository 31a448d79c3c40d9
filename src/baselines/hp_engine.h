#ifndef FELA_BASELINES_HP_ENGINE_H_
#define FELA_BASELINES_HP_ENGINE_H_

#include <string>
#include <vector>

#include "model/cost_model.h"
#include "model/model.h"
#include "runtime/cluster.h"
#include "runtime/engine.h"

namespace fela::baselines {

/// The hybrid-parallel (HP) baseline after Stanza (§V-A, [6]): layer
/// separation with the paper's inherited configuration — N-1 CONV
/// workers train the convolutional front data-parallel, while a single
/// FC worker (the last node) owns all FC layers. Per iteration:
///
///   1. each CONV worker forwards its batch shard and ships the boundary
///      activations to the FC worker (in-cast);
///   2. the FC worker aggregates whatever shards have arrived into one
///      batched FC forward+backward pass (amortizing the FC latency
///      region) and returns the boundary gradients to those senders;
///   3. CONV workers run their backward pass;
///   4. CONV workers ring-all-reduce the CONV parameters (FC parameters
///      live only on the FC worker — no synchronization).
///
/// The FC worker idles at the front of each iteration and becomes an
/// in-cast bottleneck as the batch grows — the two behaviours the paper
/// uses to explain HP's crossover against DP (Fig. 8 discussion).
class HpEngine : public runtime::Engine {
 public:
  HpEngine(runtime::Cluster* cluster, const model::Model& model,
           double total_batch);

  std::string name() const override { return "HP"; }

  int fc_first_layer() const { return fc_first_layer_; }
  int conv_worker_count() const { return cluster_->num_workers() - 1; }
  sim::NodeId fc_worker() const { return cluster_->num_workers() - 1; }

 private:
  void OnRunStart() override;  // computes the pass durations below
  void StartIteration(int iteration) override;
  void OnConvForwardDone(int conv_worker);
  void OnActivationsAtFc(int conv_worker);
  void PumpFc();
  void OnFcPassDone(std::vector<int> shard_owners);
  void OnGradsAtConv(int conv_worker);
  void OnConvBackwardDone(int conv_worker);

  double BoundaryBytesPerShard() const;

  model::Model model_;
  model::LayerCostModel cost_;
  double shard_batch_;      // per CONV worker
  int fc_first_layer_;      // first FC layer index
  double conv_param_bytes_;
  // One shard's pass durations before straggler slowdown.
  double conv_forward_seconds_ = 0.0;
  double conv_backward_seconds_ = 0.0;
  double fc_pass_seconds_ = 0.0;

  int conv_pending_ = 0;
  std::vector<int> fc_waiting_;  // conv workers whose shards await FC
  bool fc_busy_ = false;
};

}  // namespace fela::baselines

#endif  // FELA_BASELINES_HP_ENGINE_H_
