#include "testing/oracle.h"

#include <cmath>

#include "baselines/dp_engine.h"
#include "baselines/ps_engine.h"
#include "common/string_util.h"
#include "core/fela_engine.h"
#include "model/memory_model.h"
#include "runtime/attribution.h"

namespace fela::testing {

void TokenConservationOracle::Probe(const FuzzSpec& spec,
                                    const runtime::Engine& engine,
                                    runtime::Cluster& cluster) {
  (void)spec;
  (void)cluster;
  const auto* fela = dynamic_cast<const core::FelaEngine*>(&engine);
  if (fela == nullptr) return;  // no token ledger to audit
  for (std::string& line : fela->token_server().CheckInvariants()) {
    Report(std::move(line));
  }
}

void CausalityOracle::Probe(const FuzzSpec& spec,
                            const runtime::Engine& engine,
                            runtime::Cluster& cluster) {
  (void)spec;
  (void)engine;
  const uint64_t n = cluster.simulator().causality_violations();
  if (n != 0) {
    Report(common::StrFormat(
        "%llu event(s) fired before the clock they were scheduled for",
        static_cast<unsigned long long>(n)));
  }
}

void MemoryBoundsOracle::Probe(const FuzzSpec& spec,
                               const runtime::Engine& engine,
                               runtime::Cluster& cluster) {
  const model::Model m = ModelFor(spec);
  const model::MemoryModel memory(cluster.calibration());
  if (const auto* dp = dynamic_cast<const baselines::DpEngine*>(&engine)) {
    const int max_fit = memory.MaxBatchForModel(m);
    if (dp->micro_batch() > static_cast<double>(max_fit)) {
      Report(common::StrFormat(
          "DP micro-batch %g exceeds device capacity %d", dp->micro_batch(),
          max_fit));
    }
    return;
  }
  if (const auto* ps = dynamic_cast<const baselines::PsDpEngine*>(&engine)) {
    const int max_fit = memory.MaxBatchForModel(m);
    if (ps->micro_batch() > static_cast<double>(max_fit)) {
      Report(common::StrFormat(
          "PS-DP micro-batch %g exceeds device capacity %d", ps->micro_batch(),
          max_fit));
    }
    return;
  }
  if (const auto* fela = dynamic_cast<const core::FelaEngine*>(&engine)) {
    const auto& subs = fela->sub_models();
    const core::FelaPlan& plan = fela->plan();
    for (int l = 0; l < plan.num_levels(); ++l) {
      const model::SubModel& sub = subs[static_cast<size_t>(l)];
      const double batch = plan.level(l).token_batch;
      if (!memory.FitsRange(m, sub.first_layer, sub.last_layer, batch)) {
        Report(common::StrFormat(
            "Fela level %d token batch %g does not fit layers [%d, %d]", l,
            batch, sub.first_layer, sub.last_layer));
      }
    }
  }
}

void AttributionOracle::Check(const FuzzSpec& spec,
                              const runtime::ExperimentResult& result) {
  (void)spec;
  if (!result.observed) return;
  constexpr double kTol = 1e-6;
  auto check_sum = [&](const obs::PhaseBreakdown& b, const char* what,
                       int index) {
    if (b.total <= 0.0) return;  // no attributed time, no fractions
    double sum = 0.0;
    for (int p = 0; p < obs::kNumPhases; ++p) {
      const obs::Phase phase = static_cast<obs::Phase>(p);
      if (phase == obs::Phase::kIteration) continue;
      sum += b.fraction(phase);
    }
    if (std::abs(sum - 1.0) > kTol) {
      Report(common::StrFormat("%s %d fractions sum to %.12f, not 1", what,
                               index, sum));
    }
  };
  for (const obs::WorkerAttribution& w : result.attribution.workers) {
    check_sum(w.run, "worker", w.worker);
  }
  check_sum(result.attribution.Cluster(), "cluster", 0);
  for (const obs::IterationCriticalPath& c : result.attribution.critical) {
    check_sum(c.path, "critical-path iteration", c.iteration);
  }
}

void StatsSanityOracle::Check(const FuzzSpec& spec,
                              const runtime::ExperimentResult& result) {
  const runtime::RunStats& stats = result.stats;
  if (!stats.stalled && stats.iteration_count() != spec.iterations) {
    Report(common::StrFormat(
        "non-stalled run finished %d of %d iterations",
        stats.iteration_count(), spec.iterations));
  }
  if (stats.stalled && result.average_throughput != 0.0) {
    Report(common::StrFormat(
        "stalled run reports nonzero throughput %g",
        result.average_throughput));
  }
  double prev_end = 0.0;
  for (size_t i = 0; i < stats.iterations.size(); ++i) {
    const runtime::IterationStats& it = stats.iterations[i];
    if (it.end < it.start) {
      Report(common::StrFormat("iteration %zu ends (%.9f) before it starts "
                               "(%.9f)",
                               i, it.end, it.start));
    }
    if (it.start + 1e-9 < prev_end) {
      Report(common::StrFormat(
          "iteration %zu starts (%.9f) before iteration %zu ended (%.9f)", i,
          it.start, i - 1, prev_end));
    }
    prev_end = it.end;
  }
  if (stats.total_time + 1e-9 < prev_end) {
    Report(common::StrFormat(
        "total_time %.9f is before the last iteration end %.9f",
        stats.total_time, prev_end));
  }
  if (result.gpu_utilization < -1e-9 || result.gpu_utilization > 1.0 + 1e-9) {
    Report(common::StrFormat("gpu utilization %.9f outside [0, 1]",
                             result.gpu_utilization));
  }
  // Regrants can only re-issue reclaimed tokens, across TS failovers
  // too: a fence books a reclaim for every lease it takes back, and a
  // restored lease is re-armed, not regranted.
  if (stats.faults.regrants > stats.faults.tokens_reclaimed) {
    Report(common::StrFormat(
        "regrants (%llu) exceed tokens reclaimed (%llu)",
        static_cast<unsigned long long>(stats.faults.regrants),
        static_cast<unsigned long long>(stats.faults.tokens_reclaimed)));
  }
  if (stats.total_data_bytes < 0.0 || stats.total_gpu_busy < 0.0) {
    Report("negative data-bytes or gpu-busy total");
  }
}

void FailoverSafetyOracle::Probe(const FuzzSpec& spec,
                                 const runtime::Engine& engine,
                                 runtime::Cluster& cluster) {
  (void)spec;
  (void)cluster;
  const auto* fela = dynamic_cast<const core::FelaEngine*>(&engine);
  if (fela == nullptr) return;  // no failover machinery to audit
  for (std::string& line : fela->CheckFailoverInvariants()) {
    Report(std::move(line));
  }
}

void ShardConservationOracle::Probe(const FuzzSpec& spec,
                                    const runtime::Engine& engine,
                                    runtime::Cluster& cluster) {
  (void)cluster;
  const auto* fela = dynamic_cast<const core::FelaEngine*>(&engine);
  if (fela == nullptr) return;  // no shard ledgers to audit
  const core::TokenServer& ts = fela->token_server();
  if (ts.num_shards() <= 1) return;  // single distributor: nothing sharded
  // The per-shard half of the full audit: conservation per ledger,
  // availability caches vs bucket recounts, double-ownership across
  // shards. (Cluster-wide identities are token-conservation's job; the
  // lines overlap on sharded runs, which is fine — two oracles naming
  // the same corpse is still one corpse.)
  for (std::string& line : ts.CheckInvariants()) {
    Report(std::move(line));
  }
  // Hierarchical steals balance: every cross-shard grant was donated by
  // exactly one donor shard. Only claimed fault-free — a fence archives
  // the donor's ledger mid-run, splitting the two sides of the identity
  // across incarnations.
  if (spec.fault == FaultKind::kNone) {
    const core::TokenServer::Stats stats = ts.stats();
    if (stats.donations != stats.cross_shard_steals) {
      Report(common::StrFormat(
          "donor/thief books disagree: donations=%llu != "
          "cross_shard_steals=%llu",
          static_cast<unsigned long long>(stats.donations),
          static_cast<unsigned long long>(stats.cross_shard_steals)));
    }
  }
}

void PartitionHealingOracle::Check(const FuzzSpec& spec,
                                   const runtime::ExperimentResult& result) {
  if (spec.fault != FaultKind::kPartition &&
      spec.fault != FaultKind::kGrayFailure) {
    return;
  }
  if (spec.engine == EngineKind::kPsDp) return;  // aborts by design
  if (result.stats.stalled) {
    Report(common::StrFormat(
        "%s stalled after %d of %d iterations under a healing %s schedule",
        EngineKindName(spec.engine), result.stats.iteration_count(),
        spec.iterations, FaultKindName(spec.fault)));
  }
}

std::vector<std::unique_ptr<InvariantOracle>> DefaultOracles() {
  std::vector<std::unique_ptr<InvariantOracle>> out;
  out.push_back(std::make_unique<TokenConservationOracle>());
  out.push_back(std::make_unique<CausalityOracle>());
  out.push_back(std::make_unique<MemoryBoundsOracle>());
  out.push_back(std::make_unique<AttributionOracle>());
  out.push_back(std::make_unique<StatsSanityOracle>());
  out.push_back(std::make_unique<FailoverSafetyOracle>());
  out.push_back(std::make_unique<ShardConservationOracle>());
  out.push_back(std::make_unique<PartitionHealingOracle>());
  return out;
}

}  // namespace fela::testing
