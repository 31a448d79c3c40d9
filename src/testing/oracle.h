#ifndef FELA_TESTING_ORACLE_H_
#define FELA_TESTING_ORACLE_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "runtime/experiment.h"
#include "testing/spec_gen.h"

namespace fela::testing {

/// One broken invariant, attributed to the oracle that caught it.
struct Violation {
  std::string oracle;  // short kebab-case oracle name
  std::string detail;  // what exactly was violated, with numbers
};

/// A runtime invariant checker. Oracles get two windows onto a run:
///  * Probe() fires inside ExperimentSpec::post_run_probe, while the
///    engine and cluster are still alive — the only chance to audit live
///    internals (token-server ledger, simulator counters, plan memory).
///  * Check() fires on the finished ExperimentResult.
/// Oracles accumulate violations; one instance audits one run.
class InvariantOracle {
 public:
  virtual ~InvariantOracle() = default;

  virtual std::string name() const = 0;

  virtual void Probe(const FuzzSpec& spec, const runtime::Engine& engine,
                     runtime::Cluster& cluster) {
    (void)spec;
    (void)engine;
    (void)cluster;
  }

  virtual void Check(const FuzzSpec& spec,
                     const runtime::ExperimentResult& result) {
    (void)spec;
    (void)result;
  }

  const std::vector<Violation>& violations() const { return violations_; }

 protected:
  void Report(std::string detail) {
    violations_.push_back(Violation{name(), std::move(detail)});
  }

 private:
  std::vector<Violation> violations_;
};

/// Token accounting must balance over the whole run, Token Server
/// failovers included: per shard, grants == completions + reclaims +
/// live leases, regrants only of reclaimed tokens, expirations a subset
/// of reclaims, and availability caches that match a recount of the
/// shard's buckets; cluster-wide, every donation matches one cross-shard
/// steal, per-level completion/generation never passes the plan, and no
/// token is schedulable or leased in two places at once. Audits
/// FelaEngine runs via TokenServer::CheckInvariants; other engines have
/// no token ledger and pass vacuously.
class TokenConservationOracle final : public InvariantOracle {
 public:
  std::string name() const override { return "token-conservation"; }
  void Probe(const FuzzSpec& spec, const runtime::Engine& engine,
             runtime::Cluster& cluster) override;
};

/// The event queue must never hand back an event from the past
/// (Simulator::causality_violations() == 0 after every run).
class CausalityOracle final : public InvariantOracle {
 public:
  std::string name() const override { return "event-causality"; }
  void Probe(const FuzzSpec& spec, const runtime::Engine& engine,
             runtime::Cluster& cluster) override;
};

/// No engine may schedule a resident batch that exceeds what the memory
/// model says fits: DP/PS-DP micro-batches against the full model, Fela
/// token batches against their sub-model's layer range.
class MemoryBoundsOracle final : public InvariantOracle {
 public:
  std::string name() const override { return "memory-bounds"; }
  void Probe(const FuzzSpec& spec, const runtime::Engine& engine,
             runtime::Cluster& cluster) override;
};

/// Attribution phase fractions must sum to 1 (per worker, per cluster,
/// and per critical path) whenever attributed time exists — the
/// sum-to-one construction DESIGN.md documents. Observed runs only.
class AttributionOracle final : public InvariantOracle {
 public:
  std::string name() const override { return "attribution-sum"; }
  void Check(const FuzzSpec& spec,
             const runtime::ExperimentResult& result) override;
};

/// Cross-field sanity of the result scalars: iteration windows are
/// well-formed and ordered, a non-stalled run completed every requested
/// iteration, a stalled run reports zero effective throughput, GPU
/// utilization lands in [0, 1], and fault counters are self-consistent
/// (regrants <= reclaims).
class StatsSanityOracle final : public InvariantOracle {
 public:
  std::string name() const override { return "stats-sanity"; }
  void Check(const FuzzSpec& spec,
             const runtime::ExperimentResult& result) override;
};

/// Partitions and gray failures are survivable for every engine except
/// the checkpoint-free PS baseline (which aborts by design): generated
/// partition windows always heal and gray workers are never down, so a
/// run that stalls under a pure kPartition / kGrayFailure schedule lost
/// liveness it should have kept.
class PartitionHealingOracle final : public InvariantOracle {
 public:
  std::string name() const override { return "partition-healing"; }
  void Check(const FuzzSpec& spec,
             const runtime::ExperimentResult& result) override;
};

/// The full oracle battery, fresh instances (one audit per run).
std::vector<std::unique_ptr<InvariantOracle>> DefaultOracles();

}  // namespace fela::testing

#endif  // FELA_TESTING_ORACLE_H_
