#include "core/fela_config.h"

#include <cmath>

#include "common/logging.h"
#include "common/string_util.h"
#include "sim/types.h"

namespace fela::core {

std::string FelaConfig::ToString() const {
  return common::StrFormat(
      "weights={%s} subset=%d ads=%d hf=%d",
      common::Join(weights, ",").c_str(), ctd_subset_size,
      ads_enabled ? 1 : 0, hf_enabled ? 1 : 0);
}

FelaConfig FelaConfig::Defaults(int num_sub_models, int num_workers) {
  FelaConfig cfg;
  cfg.weights.assign(static_cast<size_t>(num_sub_models), 1);
  cfg.ctd_subset_size = num_workers;
  return cfg;
}

common::Status ValidateConfig(const FelaConfig& config, int num_sub_models,
                              int num_workers) {
  if (static_cast<int>(config.weights.size()) != num_sub_models) {
    return common::Status::InvalidArgument(common::StrFormat(
        "expected %d weights, got %zu", num_sub_models,
        config.weights.size()));
  }
  if (config.weights[0] != 1) {
    return common::Status::InvalidArgument("w[0] must be 1 (the base)");
  }
  int prev = 0;
  for (int w : config.weights) {
    if (w < prev) {
      return common::Status::InvalidArgument(
          "weights must be non-decreasing (w[i+1] >= w[i], §IV-B)");
    }
    if (w < 1 || (w & (w - 1)) != 0) {
      return common::Status::InvalidArgument(
          common::StrFormat("weight %d is not a positive power of two", w));
    }
    if (w > num_workers) {
      return common::Status::InvalidArgument(common::StrFormat(
          "weight %d exceeds the candidate bound 2^floor(log2 N) for N=%d",
          w, num_workers));
    }
    prev = w;
  }
  if (config.ctd_subset_size < 1 || config.ctd_subset_size > num_workers) {
    return common::Status::InvalidArgument(common::StrFormat(
        "ctd_subset_size %d out of [1, %d]", config.ctd_subset_size,
        num_workers));
  }
  if (config.ts_shards < 0 || config.ts_shards > num_workers) {
    return common::Status::InvalidArgument(common::StrFormat(
        "ts_shards %d out of [0, %d] (0 = one shard per rack)",
        config.ts_shards, num_workers));
  }
  return common::Status::Ok();
}

common::Status ValidatePlanInputs(
    const model::Model& model, const std::vector<model::SubModel>& sub_models,
    const FelaConfig& config, double total_batch, int num_workers) {
  if (num_workers <= 0) {
    return common::Status::InvalidArgument(
        common::StrFormat("num_workers must be positive, got %d", num_workers));
  }
  if (!sim::IsTotalBatch(total_batch)) {  // also rejects NaN
    return common::Status::InvalidArgument(common::StrFormat(
        "total_batch %g outside (0, %g]", total_batch, sim::kMaxInputBatch));
  }
  if (sub_models.empty()) {
    return common::Status::InvalidArgument("partition has no sub-models");
  }
  for (size_t i = 0; i < sub_models.size(); ++i) {
    const model::SubModel& sm = sub_models[i];
    if (sm.first_layer < 0 || sm.last_layer < sm.first_layer ||
        sm.last_layer >= model.layer_count()) {
      return common::Status::InvalidArgument(common::StrFormat(
          "sub-model %zu covers layers [%d, %d] outside model range [0, %d]",
          i, sm.first_layer, sm.last_layer, model.layer_count() - 1));
    }
    if (!(sm.threshold_batch > 0.0)) {
      return common::Status::InvalidArgument(common::StrFormat(
          "sub-model %zu threshold_batch must be positive, got %g", i,
          sm.threshold_batch));
    }
  }
  return ValidateConfig(config, static_cast<int>(sub_models.size()),
                        num_workers);
}

int FelaPlan::TotalTokens() const {
  int n = 0;
  for (const auto& l : levels) n += l.token_count;
  return n;
}

std::string FelaPlan::ToString() const {
  std::string out = common::StrFormat("FelaPlan(total_batch=%g, N=%d):\n",
                                      total_batch, num_workers);
  for (const auto& l : levels) {
    out += common::StrFormat(
        "  T-%d: n=%d batch=%g ratio=%d sync=%.1fMB%s\n", l.level + 1,
        l.token_count, l.token_batch, l.generation_ratio, l.sync_bytes / 1e6,
        l.communication_intensive ? " comm" : "");
  }
  return out;
}

FelaPlan BuildPlan(const model::Model& model,
                   const std::vector<model::SubModel>& sub_models,
                   const FelaConfig& config, double total_batch,
                   int num_workers, double bytes_per_scalar) {
  FELA_CHECK_OK(ValidatePlanInputs(model, sub_models, config, total_batch,
                                   num_workers));

  FelaPlan plan;
  plan.total_batch = total_batch;
  plan.num_workers = num_workers;

  // n_0 = max(ceil(total/threshold_0), N): at least one T-1 token per
  // worker "to reduce idle time and skewed consumption of samples" (Eq 2).
  const double thr0 = sub_models[0].threshold_batch;
  FELA_CHECK_GT(thr0, 0.0);
  const int n0 = std::max(static_cast<int>(std::ceil(total_batch / thr0)),
                          num_workers);
  const double b0 = total_batch / static_cast<double>(n0);

  for (size_t i = 0; i < sub_models.size(); ++i) {
    const model::SubModel& sm = sub_models[i];
    const int w = config.weights[i];
    LevelPlan lp;
    lp.level = static_cast<int>(i);
    lp.token_batch = b0 * w;
    lp.token_count = std::max(
        1, static_cast<int>(std::ceil(static_cast<double>(n0) / w)));
    lp.generation_ratio =
        i == 0 ? 0 : config.weights[i] / config.weights[i - 1];
    lp.dep_bytes_per_sample = sm.input_boundary_elems * bytes_per_scalar;
    lp.sample_bytes_per_sample =
        i == 0 ? model.input_elems_per_sample() * bytes_per_scalar : 0.0;
    lp.sync_bytes = sm.params * bytes_per_scalar;
    lp.communication_intensive = sm.communication_intensive;
    plan.levels.push_back(lp);
  }
  return plan;
}

}  // namespace fela::core
