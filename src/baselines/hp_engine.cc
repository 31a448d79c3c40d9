#include "baselines/hp_engine.h"

#include "common/logging.h"
#include "sim/collectives.h"

namespace fela::baselines {

namespace {
constexpr double kForwardShare = 1.0 / 3.0;
}  // namespace

HpEngine::HpEngine(runtime::Cluster* cluster, const model::Model& model,
                   double total_batch)
    : Engine(cluster),
      model_(model),
      cost_(cluster->calibration(), &model::ProfileRepository::Default()) {
  FELA_CHECK_GT(total_batch, 0.0);
  FELA_CHECK_GE(cluster->num_workers(), 2);
  shard_batch_ = total_batch / static_cast<double>(conv_worker_count());
  fc_first_layer_ = -1;
  for (int i = 0; i < model_.layer_count(); ++i) {
    if (model_.layer(i).kind == model::LayerKind::kFc) {
      fc_first_layer_ = i;
      break;
    }
  }
  FELA_CHECK_GE(fc_first_layer_, 1) << "HP baseline needs CONV + FC layers";
  conv_param_bytes_ = model_.ParamsInRange(0, fc_first_layer_ - 1) *
                      cluster_->calibration().bytes_per_scalar;
}

double HpEngine::BoundaryBytesPerShard() const {
  return model_.BoundaryActivationElems(fc_first_layer_) * shard_batch_ *
         cluster_->calibration().bytes_per_scalar;
}

void HpEngine::OnRunStart() {
  // Every shard has the same size, so these are fixed for the run; the
  // products are the ones each pass would otherwise evaluate.
  const double conv_seconds =
      cost_.RangeSeconds(model_, 0, fc_first_layer_ - 1, shard_batch_);
  conv_forward_seconds_ = conv_seconds * kForwardShare;
  conv_backward_seconds_ = conv_seconds * (1.0 - kForwardShare);
  fc_pass_seconds_ = cost_.RangeSeconds(model_, fc_first_layer_,
                                        model_.layer_count() - 1, shard_batch_);
}

void HpEngine::StartIteration(int iteration) {
  BeginIteration(iteration);
  conv_pending_ = conv_worker_count();
  for (int w = 0; w < cluster_->num_workers(); ++w) SleepIfStraggler(w);
  for (int w = 0; w < conv_worker_count(); ++w) {
    const double fwd = conv_forward_seconds_ *
                       cluster_->stragglers().SlowdownFor(iteration, w);
    cluster_->gpu(w).Enqueue(fwd, [this, w] { OnConvForwardDone(w); });
  }
}

void HpEngine::OnConvForwardDone(int conv_worker) {
  cluster_->fabric().Transfer(
      conv_worker, fc_worker(), BoundaryBytesPerShard(),
      [this, conv_worker] { OnActivationsAtFc(conv_worker); });
}

void HpEngine::OnActivationsAtFc(int conv_worker) {
  fc_waiting_.push_back(conv_worker);
  PumpFc();
}

void HpEngine::PumpFc() {
  if (fc_busy_ || fc_waiting_.empty()) return;
  // Stanza keeps per-worker shards separate (each conv worker's
  // activations round-trip independently), so the FC worker runs one
  // pass per shard, FIFO. This is what turns the FC worker into the
  // bottleneck as the batch grows (§V-C1 discussion).
  std::vector<int> owners = {fc_waiting_.front()};
  fc_waiting_.erase(fc_waiting_.begin());
  const double fc_seconds =
      fc_pass_seconds_ *
      cluster_->stragglers().SlowdownFor(current_iteration(), fc_worker());
  fc_busy_ = true;
  cluster_->gpu(fc_worker())
      .Enqueue(fc_seconds, [this, owners = std::move(owners)]() mutable {
        OnFcPassDone(std::move(owners));
      });
}

void HpEngine::OnFcPassDone(std::vector<int> shard_owners) {
  fc_busy_ = false;
  for (int conv_worker : shard_owners) {
    cluster_->fabric().Transfer(
        fc_worker(), conv_worker, BoundaryBytesPerShard(),
        [this, conv_worker] { OnGradsAtConv(conv_worker); });
  }
  PumpFc();
}

void HpEngine::OnGradsAtConv(int conv_worker) {
  const double bwd = conv_backward_seconds_ *
                     cluster_->stragglers().SlowdownFor(current_iteration(),
                                                        conv_worker);
  cluster_->gpu(conv_worker)
      .Enqueue(bwd, [this, conv_worker] { OnConvBackwardDone(conv_worker); });
}

void HpEngine::OnConvBackwardDone(int) {
  if (--conv_pending_ > 0) return;
  std::vector<sim::NodeId> conv_workers;
  for (int i = 0; i < conv_worker_count(); ++i) conv_workers.push_back(i);
  sim::AllReduce(&cluster_->simulator(), &cluster_->fabric(),
                 std::move(conv_workers), conv_param_bytes_,
                 [this] { FinishIteration(); }, &cluster_->spans());
}

}  // namespace fela::baselines
