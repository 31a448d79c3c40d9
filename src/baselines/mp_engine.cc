#include "baselines/mp_engine.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "sim/types.h"

namespace fela::baselines {

namespace {
/// Share of a full training pass spent in the forward direction (the
/// cost model charges fwd + bwd = 3x forward FLOPs).
constexpr double kForwardShare = 1.0 / 3.0;
}  // namespace

MpEngine::MpEngine(runtime::Cluster* cluster, const model::Model& model,
                   double total_batch, double micro_batch)
    : Engine(cluster),
      model_(model),
      cost_(cluster->calibration(), &model::ProfileRepository::Default()),
      micro_batch_(micro_batch) {
  // Bounded so the micro-batch count below fits an int.
  FELA_CHECK(sim::IsTotalBatch(total_batch)) << total_batch;
  FELA_CHECK_GE(micro_batch, 1.0);
  num_micros_ = std::max(
      1, static_cast<int>(std::ceil(total_batch / micro_batch)));
  last_micro_batch_ =
      total_batch - micro_batch * static_cast<double>(num_micros_ - 1);
  const int stages =
      std::min(cluster->num_workers(), model_.layer_count());
  stages_ = model::EqualLayerCountPartition(model_, stages);
}

void MpEngine::BuildStageCosts() {
  // Each entry is the expression the pipeline would otherwise evaluate
  // on every stage hop, on the same operands, so reading it back yields
  // the very same doubles.
  const std::array<double, 2> sizes = {micro_batch_, last_micro_batch_};
  stage_costs_.resize(stages_.size());
  for (size_t s = 0; s < stages_.size(); ++s) {
    const auto [lo, hi] = stages_[s];
    for (size_t k = 0; k < sizes.size(); ++k) {
      stage_costs_[s].range_seconds[k] =
          cost_.RangeSeconds(model_, lo, hi, sizes[k]);
      stage_costs_[s].boundary_bytes[k] =
          model_.BoundaryActivationElems(lo) * sizes[k] *
          cluster_->calibration().bytes_per_scalar;
    }
  }
}

double MpEngine::StageSeconds(int stage, int micro) const {
  return stage_costs_[static_cast<size_t>(stage)]
      .range_seconds[SizeIndex(micro)];
}

double MpEngine::BoundaryBytes(int stage, int micro) const {
  return stage_costs_[static_cast<size_t>(stage)]
      .boundary_bytes[SizeIndex(micro)];
}

void MpEngine::OnRunStart() { BuildStageCosts(); }

void MpEngine::StartIteration(int iteration) {
  BeginIteration(iteration);
  backwards_pending_ = num_micros_;
  tail_forwards_done_ = 0;
  for (int s = 0; s < num_stages(); ++s) SleepIfStraggler(s);
  // Stage 0 ingests every micro-batch back-to-back (samples are local).
  for (int k = 0; k < num_micros_; ++k) EnqueueForward(0, k);
}

void MpEngine::EnqueueForward(int stage, int micro) {
  const double seconds =
      StageSeconds(stage, micro) * kForwardShare *
      cluster_->stragglers().SlowdownFor(current_iteration(), stage);
  cluster_->gpu(stage).Enqueue(
      seconds, [this, stage, micro] { OnForwardDone(stage, micro); });
}

void MpEngine::OnForwardDone(int stage, int micro) {
  if (stage + 1 < num_stages()) {
    // Ship boundary activations to the next stage; its forward can only
    // start once they arrive.
    cluster_->fabric().Transfer(
        stage, stage + 1, BoundaryBytes(stage + 1, micro),
        [this, stage, micro] { EnqueueForward(stage + 1, micro); });
  } else {
    // GPipe-style BSP schedule: the backward phase only starts after the
    // tail stage has seen every micro-batch's forward; backwards then
    // drain in reverse order. This is the fill+drain bubble the paper
    // blames for MP's bad work conservation.
    ++tail_forwards_done_;
    if (tail_forwards_done_ == num_micros_) {
      for (int k = num_micros_ - 1; k >= 0; --k) EnqueueBackward(stage, k);
    }
  }
}

void MpEngine::EnqueueBackward(int stage, int micro) {
  const double seconds =
      StageSeconds(stage, micro) * (1.0 - kForwardShare) *
      cluster_->stragglers().SlowdownFor(current_iteration(), stage);
  cluster_->gpu(stage).Enqueue(
      seconds, [this, stage, micro] { OnBackwardDone(stage, micro); });
}

void MpEngine::OnBackwardDone(int stage, int micro) {
  if (stage > 0) {
    // Gradients w.r.t. the boundary activations flow upstream (same
    // size as the activations themselves).
    cluster_->fabric().Transfer(
        stage, stage - 1, BoundaryBytes(stage, micro),
        [this, stage, micro] { EnqueueBackward(stage - 1, micro); });
  } else if (--backwards_pending_ == 0) {
    // Every stage owns its parameters exclusively: no synchronization.
    FinishIteration();
  }
}

}  // namespace fela::baselines
