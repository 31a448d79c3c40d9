#ifndef FELA_CORE_FELA_ENGINE_H_
#define FELA_CORE_FELA_ENGINE_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/arena.h"
#include "core/fela_config.h"
#include "core/token_server.h"
#include "core/worker.h"
#include "model/cost_model.h"
#include "model/model.h"
#include "model/partition.h"
#include "runtime/cluster.h"
#include "runtime/engine.h"

namespace fela::core {

/// The Fela engine (§III): a Token Server co-located with node 0 plus one
/// FelaWorker per node, running BSP iterations of token-scheduled hybrid-
/// parallel training. Per-sub-model parameter synchronization (ring
/// all-reduce; subset-limited for CTD levels) overlaps with the remaining
/// training of the iteration; the iteration ends when every token is
/// trained and every sub-model synchronized.
///
/// Under an active FaultSchedule the engine degrades gracefully (elastic
/// scale-in/out): a crashed worker is excluded, its in-flight token is
/// reclaimed by the TS lease path and re-granted (helpers steal the rest
/// of its STB), parameter syncs shrink to the admitted workers, and a
/// recovered worker is re-admitted at the next iteration boundary — or
/// immediately if it is the only survivor.
///
/// The control plane itself is survivable, one shard at a time (a
/// one-shard server is the S=1 case): each shard's host is dynamic (the
/// root starts at node 0 but is not pinned there). When a shard's host
/// crashes — or a partition cuts it off from the majority of the shard's
/// up members — that shard is fenced (in-flight messages to it are
/// voided, its leases are reclaimed into its root-held buckets) and,
/// after kTsFailoverTimeoutSec, a standby on the best-connected up member
/// un-fences it under a new incarnation, which grants the reclaimed
/// tokens afresh. The TokenServer object lives for the whole run.
/// Workers keep retrying on their backoff schedule and converge on the
/// new incarnation without restarting the run.
/// Partition-cut workers park (excluded like crashed ones, but their
/// processes stay alive) and re-admit when the partition heals.
class FelaEngine : public runtime::Engine {
 public:
  /// Partitions the model with the paper's bin partitioner (§IV-A).
  FelaEngine(runtime::Cluster* cluster, const model::Model& model,
             const FelaConfig& config, double total_batch);

  /// Uses an explicit, user-defined partition (§III-B).
  FelaEngine(runtime::Cluster* cluster, const model::Model& model,
             std::vector<model::SubModel> sub_models, const FelaConfig& config,
             double total_batch);

  std::string name() const override { return "Fela"; }

  const FelaPlan& plan() const { return plan_; }
  const FelaConfig& config() const { return config_; }
  const std::vector<model::SubModel>& sub_models() const {
    return sub_models_;
  }
  /// The run's Token Server, for post-run probes (the oracles audit its
  /// ledger through ExperimentSpec::post_run_probe). Each shard keeps one
  /// ledger for the whole run, fences and failovers included.
  const TokenServer& token_server() const { return *ts_; }
  /// Arms the Token Server's mutation canaries; tests only, before Run().
  void set_canaries_for_testing(const TokenServer::Canaries& canaries) {
    ts_->set_canaries_for_testing(canaries);
  }
  const FelaWorker& worker(int i) const {
    return workers_[static_cast<size_t>(i)];
  }
  bool admitted(int i) const { return admitted_[static_cast<size_t>(i)]; }

  /// Current root/shard-0 TS host / incarnation (the host moves on
  /// failover). On a sharded server these describe the root shard; use
  /// the shard accessors for sub-distributors.
  sim::NodeId ts_node() const { return shard_host_[0]; }
  int ts_incarnation() const { return shard_inc_[0]; }
  int ts_shard_count() const { return num_ts_shards_; }
  sim::NodeId ts_shard_host(int shard) const {
    return shard_host_[static_cast<size_t>(shard)];
  }
  int ts_shard_incarnation(int shard) const {
    return shard_inc_[static_cast<size_t>(shard)];
  }
  /// token_server().stats() and token_server().CheckInvariants(), under
  /// the names the benchmark harness calls.
  TokenServer::Stats CumulativeTsStats() const { return ts_->stats(); }
  std::vector<std::string> CheckFailoverInvariants() const {
    return ts_->CheckInvariants();
  }

 private:
  void OnRunStart() override;  // starts the fault monitor
  /// Closes the crash spans still open, cross-checks the trained sample
  /// count, and folds the Token Server's ledger into the run's faults and
  /// metrics.
  void OnRunEnd() override;
  /// Only a fault scenario may leave work undone (e.g. every worker
  /// fail-stopped and none came back); a fault-free drain is a bug.
  bool MayStallOnDrain() const override { return faults_active(); }
  void StartIteration(int iteration) override;
  void DeliverGrant(sim::NodeId worker, const Grant& grant);
  void OnLevelComplete(int level);
  void OnSyncDone(int level);
  void OnAllLevelsComplete();
  void MaybeFinishIteration();
  void OnWorkerCrash(int worker);
  void OnWorkerRecover(int worker);
  void OnWorkerCut(int worker);
  void OnWorkerHeal(int worker);
  void ReAdmit(int worker);
  /// True when a worker coming back up must rejoin NOW rather than at
  /// the iteration boundary: either every worker is excluded, or the
  /// worker is in the CTD subset — the only workers eligible for
  /// communication-intensive tokens — and deferring it could wedge the
  /// iteration once only those tokens remain.
  bool NeedsImmediateReadmit(int worker) const;
  /// Makes the run's TokenServer and wires its callbacks to this engine.
  std::unique_ptr<TokenServer> MakeTokenServer();
  void CancelFailoverTimers();
  /// Fences one shard's active incarnation (its host crashed or lost
  /// quorum among the shard's members): reclaims its leases, voids
  /// in-flight messages addressed to it, and schedules its failover
  /// after kTsFailoverTimeoutSec. The other shards keep granting. With
  /// one shard this fences the whole server.
  void FenceShard(int shard);
  /// Promotes a standby for one shard: picks the shard member (any up
  /// worker when unsharded) that can reach the most other members right
  /// now (ties -> lowest id), un-fences the shard, and — for the root
  /// shard — re-anchors the partition monitor. No-op if no member is up
  /// — retried on the next member recover or heal event.
  void CompleteShardFailover(int shard);
  bool faults_active() const { return cluster_->faults().Active(); }

  model::Model model_;
  std::vector<model::SubModel> sub_models_;
  FelaConfig config_;
  model::LayerCostModel cost_;
  FelaPlan plan_;

  std::unique_ptr<TokenServer> ts_;
  /// Shared by every worker (declared before the arena so it outlives
  /// them); holds the TS callbacks, so it must not move.
  WorkerContext worker_ctx_;
  /// Workers live in one contiguous arena (SoA-ish hot state; see
  /// common/arena.h) — at 1k+ workers the per-iteration scheduling scans
  /// stay cache-resident.
  common::ObjectArena<FelaWorker> workers_;
  std::unique_ptr<sim::FaultMonitor> monitor_;  // only under active faults
  /// admitted_[w]: w participates in scheduling and syncs. Cleared on
  /// crash; set again when a recovered worker is re-admitted.
  std::vector<bool> admitted_;
  /// Recovery time of workers waiting for re-admission, or -1.
  std::vector<sim::SimTime> recover_pending_;

  // Per-shard control-plane placement. Shard 0 is the root; its host
  // starts co-located with worker 0 (§III-A). Each sub-distributor is
  // hosted on its lowest member initially and moves to an elected
  // standby member on failover, independently of the other shards.
  int num_ts_shards_ = 1;
  std::vector<sim::NodeId> shard_host_;
  /// Bumped on every failover of that shard; control messages capture
  /// the shard incarnation at send time and are voided on delivery if it
  /// no longer matches (fencing — a message addressed to a dead
  /// sub-distributor is never applied to its successor). Whether a shard
  /// is fenced right now is the Token Server's to say (shard_fenced).
  std::vector<int> shard_inc_;
  std::vector<sim::EventId> shard_failover_timer_;
  /// True while CompleteShardFailover re-anchors the monitor; suppresses
  /// the quorum re-check that the re-anchoring cut events would otherwise
  /// trigger (a standby on a minority island must not instantly re-fence
  /// itself — only a *new* schedule transition may).
  bool failing_over_ = false;

  int syncs_done_ = 0;
  bool tokens_done_ = false;

  /// Open kCrashed span per worker while it is excluded (crash -> the
  /// re-admission boundary, or run end if it never comes back).
  std::vector<std::optional<obs::ScopedSpan>> crash_spans_;
};

}  // namespace fela::core

#endif  // FELA_CORE_FELA_ENGINE_H_
