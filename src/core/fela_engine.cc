#include "core/fela_engine.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/logging.h"
#include "common/string_util.h"
#include "sim/collectives.h"

namespace fela::core {

FelaEngine::FelaEngine(runtime::Cluster* cluster, const model::Model& model,
                       const FelaConfig& config, double total_batch)
    : FelaEngine(cluster, model,
                 model::BinPartitioner().Partition(
                     model, model::ProfileRepository::Default()),
                 config, total_batch) {}

FelaEngine::FelaEngine(runtime::Cluster* cluster, const model::Model& model,
                       std::vector<model::SubModel> sub_models,
                       const FelaConfig& config, double total_batch)
    : Engine(cluster),
      model_(model),
      sub_models_(std::move(sub_models)),
      config_(config),
      cost_(cluster->calibration(), &model::ProfileRepository::Default()),
      plan_(BuildPlan(model_, sub_models_, config_, total_batch,
                      cluster->num_workers(),
                      cluster->calibration().bytes_per_scalar)) {
  ts_ = MakeTokenServer();
  // Per-shard control plane: each sub-distributor is hosted on its
  // lowest member (the root shard lands on worker 0, §III-A) and fails
  // over independently.
  num_ts_shards_ = ts_->num_shards();
  shard_host_.resize(static_cast<size_t>(num_ts_shards_));
  for (int s = 0; s < num_ts_shards_; ++s) {
    shard_host_[static_cast<size_t>(s)] = ts_->shard_member_begin(s);
  }
  shard_inc_.assign(static_cast<size_t>(num_ts_shards_), 0);
  shard_active_.assign(static_cast<size_t>(num_ts_shards_), true);
  shard_failover_timer_.assign(static_cast<size_t>(num_ts_shards_),
                               sim::kInvalidEventId);
  shard_lease_cps_.resize(static_cast<size_t>(num_ts_shards_));

  worker_ctx_.sim = &cluster_->simulator();
  worker_ctx_.fabric = &cluster_->fabric();
  worker_ctx_.model = &model_;
  worker_ctx_.sub_models = &sub_models_;
  worker_ctx_.cost = &cost_;
  worker_ctx_.trace = &cluster_->trace();
  // Control messages capture the TS incarnation at send time; if the
  // server fails over while they are in flight, delivery is voided —
  // fencing guarantees no message addressed to a dead incarnation is
  // ever applied to its successor.
  worker_ctx_.cbs.send_request = [this](sim::NodeId w) {
    const size_t s = static_cast<size_t>(ts_->ShardOfWorker(w));
    const int inc = shard_inc_[s];
    cluster_->fabric().SendControl(w, shard_host_[s], [this, w, s, inc] {
      if (inc != shard_inc_[s] || !shard_active_[s]) return;  // fenced
      ts_->HandleRequest(w);
    });
  };
  worker_ctx_.cbs.send_report = [this](sim::NodeId w, const Token& token) {
    const size_t s = static_cast<size_t>(ts_->ShardOfWorker(w));
    const int inc = shard_inc_[s];
    cluster_->fabric().SendControl(w, shard_host_[s], [this, w, token, s,
                                                      inc] {
      if (inc != shard_inc_[s] || !shard_active_[s]) return;  // fenced
      ts_->HandleReport(w, token);
    });
  };
  workers_.Reserve(static_cast<size_t>(cluster_->num_workers()));
  for (int i = 0; i < cluster_->num_workers(); ++i) {
    workers_.EmplaceBack(i, &worker_ctx_, &cluster_->gpu(i));
    workers_[static_cast<size_t>(i)].set_span_sink(&cluster_->spans());
  }
  admitted_.assign(static_cast<size_t>(cluster_->num_workers()), true);
  recover_pending_.assign(static_cast<size_t>(cluster_->num_workers()), -1.0);
  crash_spans_.resize(static_cast<size_t>(cluster_->num_workers()));

  if (faults_active()) {
    ts_->set_leases_enabled(true);
    for (auto& w : workers_) w.set_retries_enabled(true);
    sim::FaultMonitor::Callbacks m_cbs;
    m_cbs.on_crash = [this](int w) { OnWorkerCrash(w); };
    m_cbs.on_recover = [this](int w) { OnWorkerRecover(w); };
    m_cbs.on_cut = [this](int w) { OnWorkerCut(w); };
    m_cbs.on_heal = [this](int w) { OnWorkerHeal(w); };
    monitor_ = std::make_unique<sim::FaultMonitor>(
        &cluster_->simulator(), &cluster_->faults(), cluster_->num_workers(),
        std::move(m_cbs));
    monitor_->set_anchor([this] { return static_cast<int>(shard_host_[0]); });
  }
}

std::unique_ptr<TokenServer> FelaEngine::MakeTokenServer() {
  TokenServer::Callbacks ts_cbs;
  ts_cbs.deliver_grant = [this](sim::NodeId w, const Grant& g) {
    DeliverGrant(w, g);
  };
  ts_cbs.on_level_complete = [this](int level) { OnLevelComplete(level); };
  ts_cbs.on_all_levels_complete = [this] { OnAllLevelsComplete(); };
  ts_cbs.on_reclaim = [this](const Token& token, sim::NodeId from) {
    FELA_TRACE(&cluster_->trace(), cluster_->simulator().now(),
               shard_host_[static_cast<size_t>(ts_->ShardOfWorker(from))],
               sim::TraceKind::kTokenReclaim,
               FELA_TOK("Token_%lld from=%d attempt=%d"),
               static_cast<long long>(token.id), from, token.attempt);
  };
  // Hierarchical steals only cross shard boundaries their hosts can
  // currently talk over; absent a fault schedule everything is reachable.
  ts_cbs.shard_reachable = [this](int from_shard, int to_shard) {
    if (!monitor_) return true;
    return !cluster_->faults().Partitioned(
        cluster_->simulator().now(),
        shard_host_[static_cast<size_t>(from_shard)],
        shard_host_[static_cast<size_t>(to_shard)]);
  };
  auto ts = std::make_unique<TokenServer>(&cluster_->simulator(),
                                          &cluster_->calibration(), &plan_,
                                          &config_, std::move(ts_cbs));
  ts->set_span_sink(&cluster_->spans());
  return ts;
}

void FelaEngine::OnWorkerCrash(int worker) {
  if (run_complete()) return;
  ++stats_.faults.crashes;
  FELA_TRACE(&cluster_->trace(), cluster_->simulator().now(), worker,
             sim::TraceKind::kWorkerCrash, FELA_TOK("it=%d"),
             current_iteration());
  crash_spans_[static_cast<size_t>(worker)].emplace(
      &cluster_->spans(), worker, obs::Phase::kCrashed, current_iteration());
  admitted_[static_cast<size_t>(worker)] = false;
  recover_pending_[static_cast<size_t>(worker)] = -1.0;
  // Kill the worker process first (voids its in-flight work), then let
  // the TS reclaim its lease and re-route the token elsewhere.
  workers_[static_cast<size_t>(worker)].OnCrash();
  // Only the dead host's shard fences; the rest of the server keeps
  // granting. The fence silently reclaims the shard's leases first, so
  // marking the worker down afterwards never fires a reclaim callback
  // for work the successor incarnation will grant again.
  const int s = ts_->ShardOfWorker(worker);
  if (worker == shard_host_[static_cast<size_t>(s)] &&
      shard_active_[static_cast<size_t>(s)]) {
    FenceShard(s);
  }
  ts_->SetWorkerDown(worker, true);
}

void FelaEngine::OnWorkerRecover(int worker) {
  if (run_complete()) return;
  ++stats_.faults.recoveries;
  const sim::SimTime now = cluster_->simulator().now();
  FELA_TRACE(&cluster_->trace(), now, worker, sim::TraceKind::kWorkerRecover,
             FELA_TOK("it=%d"), current_iteration());
  const size_t ws = static_cast<size_t>(ts_->ShardOfWorker(worker));
  if (!shard_active_[ws] && shard_failover_timer_[ws] == sim::kInvalidEventId) {
    // The worker's fenced shard found no live standby; this recovery
    // provides one.
    CompleteShardFailover(static_cast<int>(ws));
  }
  const bool cut = monitor_ && monitor_->IsCut(worker);
  if (shard_active_[ws] && !cut) ts_->SetWorkerDown(worker, false);
  recover_pending_[static_cast<size_t>(worker)] = now;
  if (cut) return;  // still unreachable; the heal event re-admits it
  // Elastic scale-out normally waits for the iteration boundary, but a
  // recovery that liveness depends on must not wait.
  if (NeedsImmediateReadmit(worker)) {
    ReAdmit(worker);
    workers_[static_cast<size_t>(worker)].RequestWork(current_iteration());
  }
}

void FelaEngine::OnWorkerCut(int worker) {
  if (run_complete()) return;
  ++stats_.faults.partition_cuts;
  const size_t ws = static_cast<size_t>(ts_->ShardOfWorker(worker));
  FELA_TRACE(&cluster_->trace(), cluster_->simulator().now(), worker,
             sim::TraceKind::kPartitionCut, FELA_TOK("it=%d anchor=%d"),
             current_iteration(), static_cast<int>(shard_host_[ws]));
  const size_t w = static_cast<size_t>(worker);
  if (admitted_[w]) {
    admitted_[w] = false;
    crash_spans_[w].emplace(&cluster_->spans(), worker, obs::Phase::kCrashed,
                            current_iteration());
  }
  recover_pending_[w] = -1.0;
  // The process is alive (no OnCrash): it keeps computing and retrying;
  // the fabric drops its control messages until the partition heals.
  if (shard_active_[ws]) ts_->SetWorkerDown(worker, true);
  // Quorum is per shard: a sub-distributor yields only when its own host
  // can no longer reach a majority of its up members, and the majority
  // side fails over to a standby it can reach. A partition that isolates
  // a whole rack (members still with their host) fences nothing — that
  // rack simply parks until the heal — while a partition that strands a
  // host away from its members hands the shard to the majority side.
  const sim::SimTime now = cluster_->simulator().now();
  const sim::FaultSchedule& faults = cluster_->faults();
  for (int s = 0; s < num_ts_shards_; ++s) {
    if (!shard_active_[static_cast<size_t>(s)] || failing_over_) continue;
    const sim::NodeId host = shard_host_[static_cast<size_t>(s)];
    int up = 0;
    int cut_up = 0;
    for (sim::NodeId m = ts_->shard_member_begin(s);
         m < ts_->shard_member_end(s); ++m) {
      if (monitor_->IsDown(m)) continue;
      ++up;
      if (m != host && faults.Partitioned(now, m, host)) ++cut_up;
    }
    if (2 * cut_up > up) FenceShard(s);
  }
}

void FelaEngine::OnWorkerHeal(int worker) {
  if (run_complete()) return;
  ++stats_.faults.partition_heals;
  const sim::SimTime now = cluster_->simulator().now();
  const size_t ws = static_cast<size_t>(ts_->ShardOfWorker(worker));
  FELA_TRACE(&cluster_->trace(), now, worker, sim::TraceKind::kPartitionHeal,
             FELA_TOK("it=%d anchor=%d"), current_iteration(),
             static_cast<int>(shard_host_[ws]));
  if (monitor_->IsDown(worker)) return;  // still crashed; recover re-admits
  if (!shard_active_[ws] &&
      shard_failover_timer_[ws] == sim::kInvalidEventId) {
    // The worker's fenced shard found no live standby while partitioned;
    // this heal provides one.
    CompleteShardFailover(static_cast<int>(ws));
  }
  if (shard_active_[ws]) ts_->SetWorkerDown(worker, false);
  recover_pending_[static_cast<size_t>(worker)] = now;
  if (NeedsImmediateReadmit(worker)) {
    ReAdmit(worker);
    workers_[static_cast<size_t>(worker)].RequestWork(current_iteration());
  }
}

bool FelaEngine::NeedsImmediateReadmit(int worker) const {
  // If every worker is excluded the iteration can never finish; the
  // returning worker is the only path back to liveness.
  bool any_admitted = false;
  for (int w = 0; w < cluster_->num_workers(); ++w) {
    if (admitted_[static_cast<size_t>(w)]) any_admitted = true;
  }
  if (!any_admitted) return true;
  // CTD subset workers are not interchangeable: LevelPriorityFor never
  // hands communication-intensive tokens to workers outside S, so once
  // only those tokens remain, a parked subset worker wedges the
  // iteration — and the boundary that would re-admit it never comes.
  return config_.ctd_subset_size < plan_.num_workers &&
         worker < config_.ctd_subset_size;
}

void FelaEngine::ReAdmit(int worker) {
  const size_t w = static_cast<size_t>(worker);
  admitted_[w] = true;
  crash_spans_[w].reset();  // emits the crash -> re-admission interval
  ++stats_.faults.readmissions;
  if (recover_pending_[w] >= 0.0) {
    stats_.faults.recovery_latency_total +=
        cluster_->simulator().now() - recover_pending_[w];
    recover_pending_[w] = -1.0;
  }
}

void FelaEngine::TakeCheckpoint() {
  if (run_complete()) return;
  // Each active sub-distributor snapshots its lease table (its bucket
  // inventory is root-replicated and survives the host); fenced shards
  // keep their last pre-fence snapshot for the promotion.
  bool any = false;
  for (int s = 0; s < num_ts_shards_; ++s) {
    if (!shard_active_[static_cast<size_t>(s)]) continue;
    shard_lease_cps_[static_cast<size_t>(s)] = ts_->MakeShardLeaseCheckpoint(s);
    any = true;
  }
  if (any) ++stats_.faults.ts_checkpoints;
}

bool FelaEngine::AnyShardActive() const {
  for (int s = 0; s < num_ts_shards_; ++s) {
    if (shard_active_[static_cast<size_t>(s)]) return true;
  }
  return false;
}

void FelaEngine::ArmCheckpointTimer() {
  if (!faults_active() || run_complete() || !AnyShardActive()) return;
  if (checkpoint_timer_ != sim::kInvalidEventId) return;
  // Once the schedule has no transitions ahead, no future crash or cut
  // can consume a checkpoint — and an unconditionally re-arming timer
  // would keep a stalled run's event queue alive forever.
  if (sim::IsNever(cluster_->faults().NextTransitionAfter(
          cluster_->simulator().now()))) {
    return;
  }
  checkpoint_timer_ = cluster_->simulator().Schedule(
      kTsCheckpointIntervalSec, [this] {
        checkpoint_timer_ = sim::kInvalidEventId;
        if (run_complete() || !AnyShardActive()) return;
        TakeCheckpoint();
        ArmCheckpointTimer();
      });
}

void FelaEngine::CancelCheckpointTimer() {
  if (checkpoint_timer_ != sim::kInvalidEventId) {
    cluster_->simulator().Cancel(checkpoint_timer_);
    checkpoint_timer_ = sim::kInvalidEventId;
  }
}

void FelaEngine::CancelFailoverTimers() {
  for (auto& timer : shard_failover_timer_) {
    if (timer != sim::kInvalidEventId) {
      cluster_->simulator().Cancel(timer);
      timer = sim::kInvalidEventId;
    }
  }
}

void FelaEngine::FenceShard(int shard) {
  const size_t s = static_cast<size_t>(shard);
  if (!shard_active_[s] || run_complete()) return;
  shard_active_[s] = false;
  // Live handoff: the shard's leases are reclaimed into its buckets
  // (root-held inventory) and its closed ledger is archived now; the
  // rest of the server keeps granting.
  ts_stats_archive_ += ts_->FenceShard(shard);
  FELA_TRACE(&cluster_->trace(), cluster_->simulator().now(), shard_host_[s],
             sim::TraceKind::kTsFailover, FELA_TOK("fence inc=%d it=%d"),
             shard_inc_[s], current_iteration());
  shard_failover_timer_[s] = cluster_->simulator().Schedule(
      kTsFailoverTimeoutSec, [this, shard] {
        shard_failover_timer_[static_cast<size_t>(shard)] =
            sim::kInvalidEventId;
        CompleteShardFailover(shard);
      });
}

void FelaEngine::CompleteShardFailover(int shard) {
  const size_t sidx = static_cast<size_t>(shard);
  if (run_complete() || shard_active_[sidx]) return;
  const sim::SimTime now = cluster_->simulator().now();
  const int n = cluster_->num_workers();
  const sim::FaultSchedule& faults = cluster_->faults();
  // Standby election among the shard's members (the whole cluster when
  // unsharded): the up member that can reach the most other up members
  // right now (ties -> lowest id). Deterministic, and it lands the new
  // sub-distributor on the majority side of any partition.
  const sim::NodeId mb = ts_->shard_member_begin(shard);
  const sim::NodeId me = ts_->shard_member_end(shard);
  int best = -1;
  int best_score = -1;
  for (sim::NodeId c = mb; c < me; ++c) {
    if (monitor_->IsDown(c)) continue;
    int score = 0;
    for (sim::NodeId o = mb; o < me; ++o) {
      if (o == c || monitor_->IsDown(o)) continue;
      if (!faults.Partitioned(now, c, o)) ++score;
    }
    if (score > best_score) {
      best_score = score;
      best = c;
    }
  }
  if (best < 0) return;  // no member up: the next recover/heal retries

  // Promote: the retained root un-fences the shard under a new
  // incarnation, re-arming the checkpointed leases whose tokens are
  // still parked in its buckets.
  shard_host_[sidx] = best;
  ++shard_inc_[sidx];
  shard_active_[sidx] = true;
  ++stats_.faults.ts_failovers;
  FELA_TRACE(&cluster_->trace(), now, shard_host_[sidx],
             sim::TraceKind::kTsFailover,
             FELA_TOK("promote inc=%d it=%d reach=%d"), shard_inc_[sidx],
             current_iteration(), best_score);
  std::vector<bool> down_now(static_cast<size_t>(n), false);
  for (int w = 0; w < n; ++w) {
    down_now[static_cast<size_t>(w)] =
        monitor_->IsDown(w) ||
        (w != best && faults.Partitioned(now, w, best));
  }
  ts_->RestoreShard(shard, shard_lease_cps_[sidx], down_now);
  if (shard == 0) {
    // The root's host moved: re-anchor the partition monitor on it (the
    // sub-distributor shards never anchor the monitor).
    failing_over_ = true;
    monitor_->RefreshCuts();
    failing_over_ = false;
  }
  TakeCheckpoint();
  ArmCheckpointTimer();
}

void FelaEngine::DeliverGrant(sim::NodeId worker, const Grant& grant) {
  const sim::NodeId src =
      shard_host_[static_cast<size_t>(ts_->ShardOfWorker(worker))];
  // Notify the holders of the granted token's dependencies so they are
  // prepared for the incoming fetches (§III-A); fire-and-forget controls.
  for (const auto& [holder, bytes] : grant.remote_fetches) {
    (void)bytes;
    cluster_->fabric().SendControl(src, holder, [] {});
  }
  // The grant response itself, delayed by any lock/conflict penalty the
  // distributor charged. The fabric drops it if an endpoint is down at
  // send time; the delivery-side check covers a crash while in flight
  // (the TS lease reclaims the token either way).
  cluster_->simulator().Schedule(grant.extra_delay, [this, src, worker,
                                                    grant] {
    cluster_->fabric().SendControl(src, worker, [this, worker, grant] {
      if (monitor_ && monitor_->IsDown(worker)) return;
      workers_[static_cast<size_t>(worker)].OnGrant(grant);
    });
  });
}

void FelaEngine::StartIteration(int iteration) {
  BeginIteration(iteration,
                 common::TokenizedDetail(FELA_TOK("it=%d"), iteration));
  syncs_done_ = 0;
  tokens_done_ = false;
  FELA_TRACE(&cluster_->trace(), iteration_start(), shard_host_[0],
             sim::TraceKind::kIterationStart, FELA_TOK("it=%d"), iteration);
  // Elastic scale-out: workers that recovered (or healed) during the
  // previous iteration rejoin at this boundary.
  for (int w = 0; w < cluster_->num_workers(); ++w) {
    if (!admitted_[static_cast<size_t>(w)] && monitor_ &&
        !monitor_->IsDown(w) && !monitor_->IsCut(w)) {
      ReAdmit(w);
    }
  }
  // The root is never destroyed, so the iteration always starts — fenced
  // shards just hold their freshly minted tokens until their promotion.
  ts_->BeginIteration(iteration);
  // Boundary checkpoint: the iteration's first lease snapshot (RestoreShard
  // ignores snapshots of an earlier iteration).
  if (faults_active()) TakeCheckpoint();
  // Requests sent now to a fenced shard are voided; the workers' retry
  // backoff re-delivers them to the promoted incarnation.
  for (int w = 0; w < cluster_->num_workers(); ++w) {
    if (!admitted_[static_cast<size_t>(w)]) continue;  // still excluded
    const double delay = cluster_->stragglers().DelayFor(iteration, w);
    const double slowdown = cluster_->stragglers().SlowdownFor(iteration, w);
    workers_[static_cast<size_t>(w)].BeginIteration(iteration, delay,
                                                     slowdown);
  }
}

void FelaEngine::OnLevelComplete(int level) {
  const LevelPlan& lp = plan_.level(level);
  std::vector<sim::NodeId> participants;
  const bool ctd_scoped = lp.communication_intensive &&
                          config_.ctd_subset_size < plan_.num_workers;
  const int count =
      ctd_scoped ? config_.ctd_subset_size : cluster_->num_workers();
  participants.reserve(static_cast<size_t>(count));
  // Crashed workers drop out of the ring; they re-pull parameters when
  // re-admitted (elastic scale-in).
  for (int i = 0; i < count; ++i) {
    if (admitted_[static_cast<size_t>(i)]) participants.push_back(i);
  }
  if (participants.empty() && ctd_scoped) {
    // Every subset worker is excluded: the TS's CTD liveness valve let
    // the survivors train this level's tokens, so they hold the updates
    // and must sync among themselves.
    for (int i = 0; i < cluster_->num_workers(); ++i) {
      if (admitted_[static_cast<size_t>(i)]) participants.push_back(i);
    }
  }

  FELA_TRACE(&cluster_->trace(), cluster_->simulator().now(), shard_host_[0],
             sim::TraceKind::kSyncStart, FELA_TOK("SM-%d %.1fMB among %zu"),
             level + 1, lp.sync_bytes / 1e6, participants.size());
  sim::AllReduce(&cluster_->simulator(), &cluster_->fabric(),
                 std::move(participants), lp.sync_bytes,
                 [this, level] { OnSyncDone(level); }, &cluster_->spans());
}

void FelaEngine::OnSyncDone(int level) {
  ++syncs_done_;
  FELA_TRACE(&cluster_->trace(), cluster_->simulator().now(), shard_host_[0],
             sim::TraceKind::kSyncEnd, FELA_TOK("SM-%d"), level + 1);
  MaybeFinishIteration();
}

void FelaEngine::OnAllLevelsComplete() {
  tokens_done_ = true;
  MaybeFinishIteration();
}

void FelaEngine::MaybeFinishIteration() {
  if (!tokens_done_ || syncs_done_ != plan_.num_levels()) return;
  FELA_TRACE(&cluster_->trace(), cluster_->simulator().now(), shard_host_[0],
             sim::TraceKind::kIterationEnd, FELA_TOK("it=%d"),
             current_iteration());
  FinishIteration();
  if (!run_complete()) return;
  // Teardown: cancel every fault-tolerance timer so no dangling event
  // keeps the queue alive or inflates total_time.
  if (monitor_) monitor_->Stop();
  CancelCheckpointTimer();
  CancelFailoverTimers();
  ts_->CancelAllLeases();
  for (auto& w : workers_) w.Quiesce();
}

TokenServer::Stats FelaEngine::CumulativeTsStats() const {
  TokenServer::Stats s = ts_stats_archive_;
  s += ts_->stats();
  return s;
}

std::vector<std::string> FelaEngine::CheckFailoverInvariants() const {
  std::vector<std::string> out;
  const TokenServer::Stats cum = CumulativeTsStats();
  // Fenced incarnations close with zero live leases (FenceShard), so the
  // live count always belongs to the current incarnations.
  const uint64_t live = ts_->outstanding_lease_count();
  if (cum.grants + cum.leases_restored !=
      cum.completions + cum.tokens_reclaimed + live) {
    out.push_back(common::StrFormat(
        "cumulative token conservation violated across %llu failovers: "
        "grants=%llu + restored=%llu != completions=%llu + reclaimed=%llu "
        "+ live=%llu",
        static_cast<unsigned long long>(stats_.faults.ts_failovers),
        static_cast<unsigned long long>(cum.grants),
        static_cast<unsigned long long>(cum.leases_restored),
        static_cast<unsigned long long>(cum.completions),
        static_cast<unsigned long long>(cum.tokens_reclaimed),
        static_cast<unsigned long long>(live)));
  }
  for (const std::string& line : ts_->CheckInvariants()) {
    out.push_back("live incarnation: " + line);
  }
  return out;
}

void FelaEngine::OnRunStart() {
  if (monitor_) {
    monitor_->Start();
    ArmCheckpointTimer();
  }
}

void FelaEngine::OnRunEnd() {
  // Workers still excluded at run end stay "crashed" to the final clock.
  for (auto& cs : crash_spans_) cs.reset();

  // Cross-check token conservation: every worker-trained sample count
  // sums to total_batch per level per iteration. Under faults, reports
  // lost in flight (or voided by a fence) cause retraining, so workers
  // may train *more* than the plan — never less.
  if (!stats_.stalled) {
    double samples = 0.0;
    for (const auto& w : workers_) samples += w.samples_trained();
    const double expected = plan_.total_batch *
                            static_cast<double>(plan_.num_levels()) *
                            static_cast<double>(stats_.iterations.size());
    if (faults_active()) {
      FELA_CHECK_GE(samples, expected - 1e-6 * expected)
          << samples << " vs " << expected;
    } else {
      FELA_CHECK(std::abs(samples - expected) < 1e-6 * expected)
          << samples << " vs " << expected;
    }
  }

  stats_.faults.control_dropped = cluster_->fabric().control_dropped_count();
  stats_.faults.control_duplicated =
      cluster_->fabric().control_duplicated_count();
  // Fold every incarnation's ledger into the run's fault accounting.
  const TokenServer::Stats ts = CumulativeTsStats();
  stats_.faults.tokens_reclaimed = ts.tokens_reclaimed;
  stats_.faults.regrants = ts.regrants;
  stats_.faults.duplicate_reports = ts.duplicate_reports + ts.stale_reports;
  stats_.faults.leases_restored = ts.leases_restored;
  for (const auto& w : workers_) stats_.faults.request_retries += w.retries();

  if (cluster_->observability()) {
    obs::MetricsRegistry& m = cluster_->metrics();
    const std::string labels = "engine=Fela";
    m.GetCounter("ts_grants", labels).Increment(ts.grants);
    m.GetCounter("ts_steals", labels).Increment(ts.steals);
    m.GetCounter("ts_conflicts", labels).Increment(ts.conflicts);
    m.GetCounter("ts_completions", labels).Increment(ts.completions);
    m.GetCounter("ts_lease_expirations", labels)
        .Increment(ts.lease_expirations);
    m.GetCounter("ts_remote_dep_fetches", labels)
        .Increment(ts.remote_dep_fetches);
    m.GetCounter("ts_local_dep_hits", labels).Increment(ts.local_dep_hits);
    m.GetGauge("ts_conflict_delay_seconds", labels)
        .Set(ts.conflict_delay_total);
    if (num_ts_shards_ > 1) {
      // Hierarchical-distributor observability: the cross-rack steal
      // totals plus each sub-distributor's live-incarnation ledger. Only
      // emitted for sharded servers so unsharded metric dumps (and their
      // golden diffs) are unchanged.
      m.GetCounter("ts_cross_shard_steals", labels)
          .Increment(ts.cross_shard_steals);
      m.GetCounter("ts_donations", labels).Increment(ts.donations);
      for (int s = 0; s < num_ts_shards_; ++s) {
        const TokenServer::Stats& ss = ts_->shard_stats(s);
        const std::string shard_labels =
            common::StrFormat("engine=Fela,shard=%d", s);
        m.GetCounter("ts_shard_grants", shard_labels).Increment(ss.grants);
        m.GetCounter("ts_shard_steals", shard_labels).Increment(ss.steals);
        m.GetCounter("ts_shard_cross_shard_steals", shard_labels)
            .Increment(ss.cross_shard_steals);
        m.GetCounter("ts_shard_donations", shard_labels)
            .Increment(ss.donations);
      }
    }
    for (const auto& w : workers_) {
      m.GetGauge("worker_tokens_trained",
                 common::StrFormat("engine=Fela,worker=%d", w.id()))
          .Set(static_cast<double>(w.tokens_trained()));
    }
  }
}

}  // namespace fela::core
