#include "baselines/ps_engine.h"

#include "common/logging.h"
#include "model/memory_model.h"
#include "sim/types.h"

namespace fela::baselines {

PsDpEngine::PsDpEngine(runtime::Cluster* cluster, const model::Model& model,
                       double total_batch, int num_servers)
    : Engine(cluster),
      model_(model),
      cost_(cluster->calibration(), &model::ProfileRepository::Default()),
      num_servers_(num_servers) {
  FELA_CHECK(sim::IsTotalBatch(total_batch)) << total_batch;
  FELA_CHECK_GE(num_servers, 1);
  FELA_CHECK_LE(num_servers, cluster->num_workers());
  const double per_worker =
      total_batch / static_cast<double>(cluster->num_workers());
  const model::MemoryModel::Accumulation acc =
      model::MemoryModel(cluster_->calibration())
          .AccumulationForModel(model_, per_worker);
  micro_batch_ = acc.micro_batch;
  micro_steps_ = acc.micro_steps;
  shard_bytes_ = model_.TotalParams() *
                 cluster_->calibration().bytes_per_scalar /
                 static_cast<double>(num_servers_);
}

void PsDpEngine::StartIteration(int iteration) {
  BeginIteration(iteration);
  compute_pending_ = cluster_->num_workers();
  const double compute_seconds =
      cost_.RangeSeconds(model_, 0, model_.layer_count() - 1, micro_batch_) *
      static_cast<double>(micro_steps_);
  for (int w = 0; w < cluster_->num_workers(); ++w) {
    SleepIfStraggler(w);
    const double slowdown = cluster_->stragglers().SlowdownFor(iteration, w);
    cluster_->gpu(w).Enqueue(compute_seconds * slowdown,
                             [this, w] { OnWorkerComputeDone(w); });
  }
}

void PsDpEngine::OnWorkerComputeDone(int worker) {
  // Honest fault contrast: this PS prototype checkpoints nothing and has
  // no elasticity — a worker crash during the iteration aborts the job,
  // and so does losing a worker behind a network partition (the PS at
  // node 0 cannot collect its gradient shard).
  const sim::FaultSchedule& faults = cluster_->faults();
  if (faults.Active() &&
      faults.AnyUnreachableDuring(iteration_start(),
                                  cluster_->simulator().now(), worker,
                                  /*anchor=*/0)) {
    ++stats_.faults.crashes;
    stats_.stalled = true;
    return;
  }
  if (--compute_pending_ > 0) return;
  // BSP: everyone pushes gradient shards to the servers.
  sync_begin_ = cluster_->simulator().now();
  transfers_pending_ = cluster_->num_workers() * num_servers_;
  for (int w = 0; w < cluster_->num_workers(); ++w) {
    for (int s = 0; s < num_servers_; ++s) {
      cluster_->fabric().Transfer(w, s, shard_bytes_,
                                  [this] { OnPushDone(); });
    }
  }
}

void PsDpEngine::OnPushDone() {
  if (--transfers_pending_ > 0) return;
  // Servers apply updates (negligible CPU) and every worker pulls.
  transfers_pending_ = cluster_->num_workers() * num_servers_;
  for (int w = 0; w < cluster_->num_workers(); ++w) {
    for (int s = 0; s < num_servers_; ++s) {
      cluster_->fabric().Transfer(s, w, shard_bytes_,
                                  [this] { OnPullDone(); });
    }
  }
}

void PsDpEngine::OnPullDone() {
  if (--transfers_pending_ > 0) return;
  const sim::SimTime now = cluster_->simulator().now();
  // The whole push/update/pull window is BSP synchronization from every
  // worker's perspective (it outranks the per-shard transfer spans the
  // fabric records, so attribution charges it to sync_wait).
  obs::SpanSink& spans = cluster_->spans();
  if (spans.enabled() && now > sync_begin_) {
    for (int w = 0; w < cluster_->num_workers(); ++w) {
      spans.Emit(obs::Span{w, obs::Phase::kSyncWait, sync_begin_, now,
                           current_iteration(), {}});
    }
  }
  FinishIteration();
}

}  // namespace fela::baselines
