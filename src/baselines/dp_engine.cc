#include "baselines/dp_engine.h"

#include <algorithm>

#include "common/logging.h"
#include "model/memory_model.h"
#include "sim/collectives.h"
#include "sim/types.h"

namespace fela::baselines {

DpEngine::DpEngine(runtime::Cluster* cluster, const model::Model& model,
                   double total_batch)
    : Engine(cluster),
      model_(model),
      cost_(cluster->calibration(), &model::ProfileRepository::Default()) {
  FELA_CHECK(sim::IsTotalBatch(total_batch)) << total_batch;
  const int n = cluster_->num_workers();
  per_worker_batch_ = total_batch / static_cast<double>(n);
  const model::MemoryModel::Accumulation acc =
      model::MemoryModel(cluster_->calibration())
          .AccumulationForModel(model_, per_worker_batch_);
  micro_batch_ = acc.micro_batch;
  micro_steps_ = acc.micro_steps;
  param_bytes_ =
      model_.TotalParams() * cluster_->calibration().bytes_per_scalar;
  attempt_start_.assign(static_cast<size_t>(n), 0.0);
}

void DpEngine::StartIteration(int iteration) {
  BeginIteration(iteration);
  workers_pending_ = cluster_->num_workers();
  // One full training pass per micro-step; micro-steps run back-to-back
  // on the device (gradient accumulation).
  const double micro_seconds = cost_.RangeSeconds(
      model_, 0, model_.layer_count() - 1, micro_batch_);
  const double compute_seconds =
      micro_seconds * static_cast<double>(micro_steps_);
  for (int w = 0; w < cluster_->num_workers(); ++w) {
    SleepIfStraggler(w);
    const double slowdown = cluster_->stragglers().SlowdownFor(iteration, w);
    EnqueueCompute(w, compute_seconds * slowdown);
  }
}

void DpEngine::EnqueueCompute(int worker, double seconds) {
  sim::GpuDevice& gpu = cluster_->gpu(worker);
  // The attempt starts when the device actually picks it up, not at
  // enqueue time — redo attempts queue behind the recovery block.
  attempt_start_[static_cast<size_t>(worker)] =
      std::max(cluster_->simulator().now(), gpu.free_at());
  gpu.Enqueue(seconds, [this, worker, seconds] {
    OnWorkerComputeDone(worker, seconds);
  });
}

void DpEngine::OnWorkerComputeDone(int worker, double seconds) {
  const sim::FaultSchedule& faults = cluster_->faults();
  if (faults.Active() &&
      faults.AnyUnreachableDuring(attempt_start_[static_cast<size_t>(worker)],
                                  cluster_->simulator().now(), worker,
                                  /*anchor=*/0)) {
    // The replica died mid-batch — or a partition hid it from the ring's
    // anchor: its gradient is gone. No membership change is possible
    // under DP, so the whole attempt is redone once the node is back and
    // reachable — or never, stalling the barrier.
    ++stats_.faults.crashes;
    const sim::SimTime up =
        faults.NextReachableAfter(cluster_->simulator().now(), worker,
                                  /*anchor=*/0);
    if (sim::IsNever(up)) {
      stats_.stalled = true;
      return;  // peers wait at the barrier forever
    }
    ++stats_.faults.recoveries;
    if (up > cluster_->simulator().now()) {
      cluster_->gpu(worker).BlockUntil(up, obs::Phase::kCrashed);
    }
    EnqueueCompute(worker, seconds);
    return;
  }
  if (--workers_pending_ > 0) return;
  // BSP barrier reached; synchronize all parameters.
  std::vector<sim::NodeId> all;
  for (int i = 0; i < cluster_->num_workers(); ++i) all.push_back(i);
  sim::AllReduce(&cluster_->simulator(), &cluster_->fabric(), std::move(all),
                 param_bytes_, [this] { FinishIteration(); },
                 &cluster_->spans());
}

}  // namespace fela::baselines
