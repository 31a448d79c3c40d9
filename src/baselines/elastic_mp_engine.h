#ifndef FELA_BASELINES_ELASTIC_MP_ENGINE_H_
#define FELA_BASELINES_ELASTIC_MP_ENGINE_H_

#include <string>
#include <vector>

#include "baselines/mp_engine.h"
#include "model/model.h"
#include "runtime/cluster.h"

namespace fela::baselines {

/// ElasticPipe-style model parallelism ([15], the authors' own prior
/// system): the GPipe pipeline of MpEngine plus a head-node auto-tuner
/// that re-partitions the stages every `profile_period` iterations using
/// the *previous* period's measured per-worker slowdown. This is the
/// proactive/periodic scheduling the paper contrasts with Fela's reactive
/// token pulling (§I, §III-C): with a persistent straggler the profile is
/// accurate and re-balancing helps; with transient or rotating stragglers
/// the profile is stale by the time it is applied — the tuner takes work
/// away from workers that have already recovered and piles it onto
/// workers about to slow down, which can make things worse.
class ElasticMpEngine : public MpEngine {
 public:
  ElasticMpEngine(runtime::Cluster* cluster, const model::Model& model,
                  double total_batch, double micro_batch = 4.0,
                  int profile_period = 5);

  std::string name() const override { return "ElasticMP"; }

  int repartition_count() const { return repartition_count_; }

 private:
  /// Re-partitions at every period boundary after the first and starts
  /// profiling the new period, then runs the MP iteration.
  void StartIteration(int iteration) override;
  /// Head-node auto-tuning: re-balance stage layer ranges against the
  /// measured per-worker slowdown of the elapsed profiling period.
  void Repartition();

  int profile_period_;

  // Profiling state: per-worker GPU busy + injected sleep at the start
  // of the current period.
  std::vector<double> period_busy_start_;
  std::vector<double> period_sleep_start_;
  int repartition_count_ = 0;
};

}  // namespace fela::baselines

#endif  // FELA_BASELINES_ELASTIC_MP_ENGINE_H_
