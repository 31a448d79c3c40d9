#include "model/memory_model.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "sim/types.h"

namespace fela::model {

double MemoryModel::BytesForRange(const Model& model, int lo, int hi,
                                  double batch) const {
  const double param_bytes = model.ParamsInRange(lo, hi) *
                             cal_.optimizer_parameter_replicas *
                             cal_.bytes_per_scalar;
  const double act_bytes = model.ActivationElemsInRange(lo, hi) * batch *
                           cal_.bytes_per_scalar *
                           cal_.activation_overhead_factor;
  return param_bytes + act_bytes;
}

int MemoryModel::MaxBatchForRange(const Model& model, int lo, int hi) const {
  const double param_bytes = model.ParamsInRange(lo, hi) *
                             cal_.optimizer_parameter_replicas *
                             cal_.bytes_per_scalar;
  const double per_sample_act = model.ActivationElemsInRange(lo, hi) *
                                cal_.bytes_per_scalar *
                                cal_.activation_overhead_factor;
  const double budget = cal_.gpu_memory_bytes - param_bytes;
  if (budget < per_sample_act) return 0;
  if (per_sample_act <= 0.0) return 1 << 30;
  return static_cast<int>(std::floor(budget / per_sample_act));
}

MemoryModel::Accumulation MemoryModel::AccumulationForModel(
    const Model& model, double batch) const {
  FELA_CHECK(sim::IsTotalBatch(batch)) << batch;
  const int max_fit = MaxBatchForModel(model);
  FELA_CHECK_GT(max_fit, 0) << "model does not fit on the device at batch 1";
  Accumulation acc;
  acc.micro_steps = std::max(
      1, static_cast<int>(std::ceil(batch / static_cast<double>(max_fit))));
  acc.micro_batch = batch / static_cast<double>(acc.micro_steps);
  return acc;
}

}  // namespace fela::model
