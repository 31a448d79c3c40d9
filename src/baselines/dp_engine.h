#ifndef FELA_BASELINES_DP_ENGINE_H_
#define FELA_BASELINES_DP_ENGINE_H_

#include <string>
#include <vector>

#include "model/cost_model.h"
#include "model/model.h"
#include "runtime/cluster.h"
#include "runtime/engine.h"

namespace fela::baselines {

/// The data-parallel (DP) baseline: every worker holds a full model
/// replica and trains total_batch / N samples per iteration under BSP,
/// synchronizing all parameters with a ring all-reduce (the Gloo pattern
/// of the paper's prototype). When the per-worker batch exceeds device
/// memory, the worker falls back to gradient accumulation over the
/// largest micro-batch that fits (DESIGN.md §1 item 3).
///
/// Fault behavior (the honest contrast to Fela's elasticity): DP has a
/// fixed membership, so a crash-affected worker must redo its whole
/// per-worker batch once it is back up — every peer waits at the barrier
/// meanwhile — and a worker that never recovers stalls the job forever
/// (RunStats::stalled).
class DpEngine : public runtime::Engine {
 public:
  DpEngine(runtime::Cluster* cluster, const model::Model& model,
           double total_batch);

  std::string name() const override { return "DP"; }

  /// Per-worker batch after the even split.
  double per_worker_batch() const { return per_worker_batch_; }
  /// Micro-batch actually executed (== per-worker batch when it fits).
  double micro_batch() const { return micro_batch_; }
  int micro_steps() const { return micro_steps_; }

 private:
  void StartIteration(int iteration) override;
  void EnqueueCompute(int worker, double seconds);
  void OnWorkerComputeDone(int worker, double seconds);

  model::Model model_;
  model::LayerCostModel cost_;
  double per_worker_batch_;
  double micro_batch_;
  int micro_steps_;
  double param_bytes_;

  int workers_pending_ = 0;
  /// When each worker's current compute attempt started (crash overlap
  /// with [start, finish] invalidates the attempt).
  std::vector<sim::SimTime> attempt_start_;
};

}  // namespace fela::baselines

#endif  // FELA_BASELINES_DP_ENGINE_H_
