#include "core/token_server.h"

#include <algorithm>
#include <map>

#include "common/logging.h"
#include "common/string_util.h"

namespace fela::core {

TokenServer::Stats& TokenServer::Stats::operator+=(const Stats& other) {
  grants += other.grants;
  steals += other.steals;
  conflicts += other.conflicts;
  conflict_delay_total += other.conflict_delay_total;
  remote_dep_fetches += other.remote_dep_fetches;
  local_dep_hits += other.local_dep_hits;
  completions += other.completions;
  tokens_reclaimed += other.tokens_reclaimed;
  lease_expirations += other.lease_expirations;
  regrants += other.regrants;
  duplicate_reports += other.duplicate_reports;
  stale_reports += other.stale_reports;
  redundant_requests += other.redundant_requests;
  cross_shard_steals += other.cross_shard_steals;
  donations += other.donations;
  grant_attempts += other.grant_attempts;
  return *this;
}

TokenServer::TokenServer(sim::Simulator* sim, const sim::Calibration* cal,
                         const FelaPlan* plan, const FelaConfig* config,
                         Callbacks cbs)
    : sim_(sim), cal_(cal), plan_(plan), config_(config), cbs_(std::move(cbs)) {
  FELA_CHECK(sim != nullptr && cal != nullptr && plan != nullptr &&
             config != nullptr);
  FELA_CHECK_GT(plan_->num_levels(), 0);
  const int n = num_workers();
  // Shard layout. Auto mode follows the topology exactly (shard ==
  // RackOf), so a rack size that does not divide the cluster still maps
  // every worker to its real rack; an explicit ts_shards splits the
  // cluster into ceil(N/S) blocks instead.
  if (config_->ts_shards > 0) {
    num_shards_ = std::min(config_->ts_shards, n);
    shard_block_ = (n + num_shards_ - 1) / num_shards_;
  } else if (cal_->topology.hierarchical()) {
    shard_block_ = cal_->topology.rack_size;
    num_shards_ = cal_->topology.NumRacks(n);
  } else {
    num_shards_ = 1;
    shard_block_ = n;
  }
  const size_t S = static_cast<size_t>(num_shards_);
  stbs_.resize(hf() ? static_cast<size_t>(n) : S);
  shard_waiters_.resize(S);
  shard_leases_.resize(S);
  shard_stats_.assign(S, Stats{});
  shard_lock_free_.assign(S, 0.0);
  shard_next_seq_.assign(S, 0);
  shard_fenced_.assign(S, false);
  migrated_reclaims_in_.assign(S, 0);
  shard_level_avail_.assign(
      S, std::vector<int>(static_cast<size_t>(plan_->num_levels()), 0));
  level_avail_.assign(static_cast<size_t>(plan_->num_levels()), 0);
  waiting_.assign(static_cast<size_t>(n), false);
  helping_.assign(static_cast<size_t>(n), -1);
  helper_count_.assign(static_cast<size_t>(n), 0);
  outstanding_.assign(static_cast<size_t>(n), kInvalidTokenId);
  down_.assign(static_cast<size_t>(n), false);
  // Worker 0 stands for the CTD subset S and worker ctd_subset_size for
  // everyone outside it; without CTD the worker id does not matter.
  unscoped_order_ =
      LevelPriorityFor(0, *config_, *plan_, /*ctd_relaxed=*/true);
  subset_order_ = LevelPriorityFor(0, *config_, *plan_);
  outside_order_ =
      LevelPriorityFor(config_->ctd_subset_size, *config_, *plan_);
  for (int l : unscoped_order_) {
    if (plan_->level(l).communication_intensive) comm_order_.push_back(l);
  }
}

void TokenServer::NoteBucketAdd(int shard, int level) {
  ++shard_level_avail_[static_cast<size_t>(shard)][static_cast<size_t>(level)];
  ++level_avail_[static_cast<size_t>(level)];
}

void TokenServer::NoteBucketTake(int shard, int level) {
  --shard_level_avail_[static_cast<size_t>(shard)][static_cast<size_t>(level)];
  --level_avail_[static_cast<size_t>(level)];
}

void TokenServer::BeginIteration(int iteration) {
  iteration_ = iteration;
  info_.Reset();
  for (auto& b : stbs_) b.Clear();
  for (auto& avail : shard_level_avail_) {
    std::fill(avail.begin(), avail.end(), 0);
  }
  std::fill(level_avail_.begin(), level_avail_.end(), 0);
  pending_.assign(static_cast<size_t>(plan_->num_levels()),
                  std::vector<std::deque<TokenDep>>(
                      hf() ? static_cast<size_t>(num_workers())
                           : static_cast<size_t>(num_shards_)));
  completed_count_.assign(static_cast<size_t>(plan_->num_levels()), 0);
  generated_count_.assign(static_cast<size_t>(plan_->num_levels()), 0);
  std::fill(helping_.begin(), helping_.end(), -1);
  std::fill(helper_count_.begin(), helper_count_.end(), 0);
  std::fill(shard_lock_free_.begin(), shard_lock_free_.end(), 0.0);
  all_done_announced_ = false;

  // The iteration's T-1 tokens, sharded round-robin: token i's training
  // samples live on worker (i mod N), and with HF that worker's STB owns
  // the token. Crashed workers are skipped — their sample shards are
  // re-read from the surviving replicas — unless the whole cluster is
  // down, in which case the clean layout is kept for whoever recovers.
  std::vector<sim::NodeId> homes;
  for (sim::NodeId w = 0; w < num_workers(); ++w) {
    if (!down_[static_cast<size_t>(w)]) homes.push_back(w);
  }
  if (homes.empty()) {
    for (sim::NodeId w = 0; w < num_workers(); ++w) homes.push_back(w);
  }
  const LevelPlan& l0 = plan_->level(0);
  generated_count_[0] = l0.token_count;
  for (int i = 0; i < l0.token_count; ++i) {
    Token t;
    t.level = 0;
    t.iteration = iteration;
    t.batch = l0.token_batch;
    t.sample_home = homes[static_cast<size_t>(i) % homes.size()];
    // Each shard mints from its own sequence, strided so ids never
    // collide (one shard reproduces the historical dense sequence).
    const int shard = ShardOfWorker(t.sample_home);
    t.id = shard_next_seq_[static_cast<size_t>(shard)]++ * num_shards_ + shard;
    NoteBucketAdd(shard, 0);
    stbs_[BucketIndexFor(t.sample_home)].Add(std::move(t));
  }
  // Requests that were still in flight (or queued) when the previous
  // iteration turned over are valid for this one.
  ServeWaiters();
}

bool TokenServer::AllLevelsComplete() const {
  for (int l = 0; l < plan_->num_levels(); ++l) {
    if (completed_count_[static_cast<size_t>(l)] <
        plan_->level(l).token_count) {
      return false;
    }
  }
  return true;
}

TokenServer::Stats TokenServer::stats() const {
  Stats total;
  for (const Stats& s : shard_stats_) total += s;
  return total;
}

size_t TokenServer::waiter_count() const {
  size_t n = 0;
  for (const auto& w : shard_waiters_) n += w.size();
  return n;
}

size_t TokenServer::outstanding_lease_count() const {
  size_t n = 0;
  for (const auto& l : shard_leases_) n += l.size();
  return n;
}

std::vector<std::string> TokenServer::CheckInvariants() const {
  std::vector<std::string> out;
  // Per-shard ledgers: each sub-distributor's conservation identity must
  // balance on its own (and therefore cluster-wide as their sum).
  for (int s = 0; s < num_shards_; ++s) {
    const Stats& st = shard_stats_[static_cast<size_t>(s)];
    const uint64_t live =
        static_cast<uint64_t>(shard_leases_[static_cast<size_t>(s)].size());
    const char* scope = num_shards_ == 1 ? "" : "shard ";
    if (st.grants != st.completions + st.tokens_reclaimed + live) {
      out.push_back(common::StrFormat(
          "%s%stoken conservation violated: grants=%llu != "
          "completions=%llu + reclaimed=%llu + live_leases=%llu",
          scope, num_shards_ == 1 ? "" : common::StrFormat("%d ", s).c_str(),
          static_cast<unsigned long long>(st.grants),
          static_cast<unsigned long long>(st.completions),
          static_cast<unsigned long long>(st.tokens_reclaimed),
          static_cast<unsigned long long>(live)));
    }
    // Only a reclaimed token (attempt > 0) is regranted. Reclaimed
    // tokens migrate between shards — by donation (the donor booked the
    // reclaim, the thief books the regrant) or by ReclaimLease
    // re-bucketing them on an up worker of another shard — so the bound
    // credits the shard's migrated-in count.
    if (st.regrants >
        st.tokens_reclaimed + migrated_reclaims_in_[static_cast<size_t>(s)]) {
      out.push_back(common::StrFormat(
          "shard %d regrants without reclaim: regrants=%llu > reclaimed=%llu "
          "+ migrated_in=%llu",
          s, static_cast<unsigned long long>(st.regrants),
          static_cast<unsigned long long>(st.tokens_reclaimed),
          static_cast<unsigned long long>(
              migrated_reclaims_in_[static_cast<size_t>(s)])));
    }
    if (st.lease_expirations > st.tokens_reclaimed) {
      out.push_back(common::StrFormat(
          "shard %d expirations exceed reclaims: expirations=%llu > "
          "reclaimed=%llu",
          s, static_cast<unsigned long long>(st.lease_expirations),
          static_cast<unsigned long long>(st.tokens_reclaimed)));
    }
    if (st.steals > st.grants) {
      out.push_back(common::StrFormat(
          "shard %d steals exceed grants: steals=%llu > grants=%llu", s,
          static_cast<unsigned long long>(st.steals),
          static_cast<unsigned long long>(st.grants)));
    }
    if (st.cross_shard_steals > st.steals) {
      out.push_back(common::StrFormat(
          "shard %d cross-shard steals exceed steals: %llu > %llu", s,
          static_cast<unsigned long long>(st.cross_shard_steals),
          static_cast<unsigned long long>(st.steals)));
    }
  }
  // Hierarchical steals balance: every cross-shard grant was donated by
  // exactly one donor shard.
  const Stats total = stats();
  if (total.donations != total.cross_shard_steals) {
    out.push_back(common::StrFormat(
        "donor/thief books disagree: donations=%llu != cross_shard_steals=%llu",
        static_cast<unsigned long long>(total.donations),
        static_cast<unsigned long long>(total.cross_shard_steals)));
  }
  // The availability caches the root reads for donor picks and fast
  // fails must agree with a recount of each shard's buckets — a donation
  // the root double-counts (donor cache not decremented) diverges here.
  for (int s = 0; s < num_shards_; ++s) {
    std::vector<int> recount(static_cast<size_t>(plan_->num_levels()), 0);
    if (hf()) {
      for (sim::NodeId w = shard_member_begin(s); w < shard_member_end(s);
           ++w) {
        for (const Token& t : stbs_[static_cast<size_t>(w)].Snapshot()) {
          ++recount[static_cast<size_t>(t.level)];
        }
      }
    } else {
      for (const Token& t : stbs_[static_cast<size_t>(s)].Snapshot()) {
        ++recount[static_cast<size_t>(t.level)];
      }
    }
    for (int l = 0; l < plan_->num_levels(); ++l) {
      const int cached =
          shard_level_avail_[static_cast<size_t>(s)][static_cast<size_t>(l)];
      if (cached != recount[static_cast<size_t>(l)]) {
        out.push_back(common::StrFormat(
            "shard %d level %d availability cache mismatch (conservation): "
            "cached=%d actual=%d",
            s, l, cached, recount[static_cast<size_t>(l)]));
      }
    }
  }
  for (int l = 0; l < plan_->num_levels(); ++l) {
    int sum = 0;
    for (int s = 0; s < num_shards_; ++s) {
      sum += shard_level_avail_[static_cast<size_t>(s)][static_cast<size_t>(l)];
    }
    if (sum != level_avail_[static_cast<size_t>(l)]) {
      out.push_back(common::StrFormat(
          "level %d global availability cache mismatch: cached=%d vs "
          "shard sum %d",
          l, level_avail_[static_cast<size_t>(l)], sum));
    }
  }
  for (int l = 0; l < plan_->num_levels(); ++l) {
    const int cap = plan_->level(l).token_count;
    if (completed_count_[static_cast<size_t>(l)] > cap) {
      out.push_back(common::StrFormat(
          "level %d over-completed: %d completions for %d tokens", l,
          completed_count_[static_cast<size_t>(l)], cap));
    }
    if (generated_count_[static_cast<size_t>(l)] > cap) {
      out.push_back(common::StrFormat(
          "level %d over-generated: %d generated for %d planned", l,
          generated_count_[static_cast<size_t>(l)], cap));
    }
  }
  // Outstanding grants and live leases are two views of the same set
  // (each worker's lease lives in its own shard's table).
  uint64_t outstanding_live = 0;
  for (sim::NodeId w = 0; w < num_workers(); ++w) {
    const TokenId id = outstanding_[static_cast<size_t>(w)];
    if (id == kInvalidTokenId) continue;
    ++outstanding_live;
    const auto& leases = shard_leases_[static_cast<size_t>(ShardOfWorker(w))];
    if (leases.find(id) == leases.end()) {
      out.push_back(common::StrFormat(
          "worker %d holds token %llu with no lease record", w,
          static_cast<unsigned long long>(id)));
    }
  }
  if (outstanding_live != static_cast<uint64_t>(outstanding_lease_count())) {
    out.push_back(common::StrFormat(
        "lease ledger mismatch: %llu outstanding grants vs %llu leases",
        static_cast<unsigned long long>(outstanding_live),
        static_cast<unsigned long long>(outstanding_lease_count())));
  }
  // No token is ever double-granted or double-owned: a token id lives in
  // at most one place cluster-wide — one bucket slot or one lease of one
  // shard, never both, never twice. A fence or a donation that
  // duplicated a token would trip it.
  std::map<TokenId, int> seen;
  for (const TokenBucket& b : stbs_) {
    for (const Token& t : b.Snapshot()) ++seen[t.id];
  }
  for (const auto& leases : shard_leases_) {
    for (const auto& [id, lease] : leases) ++seen[id];
  }
  for (const auto& [id, count] : seen) {
    if (count > 1) {
      out.push_back(common::StrFormat(
          "token %llu is schedulable/leased in %d places at once",
          static_cast<unsigned long long>(id), count));
    }
  }
  return out;
}

void TokenServer::FenceShard(int shard) {
  const size_t s = static_cast<size_t>(shard);
  FELA_CHECK(!shard_fenced_[s]) << "shard " << shard << " already fenced";
  // Reclaim every live lease into the holder's own bucket: the work in
  // flight dies with the shard host and is granted afresh by the next
  // incarnation (helpers cannot steal it meanwhile — the fenced shard
  // neither grants nor donates until UnfenceShard, so its inventory is
  // frozen root-held metadata). No callbacks fire.
  for (auto& [id, lease] : shard_leases_[s]) {
    if (lease.timer != sim::kInvalidEventId) sim_->Cancel(lease.timer);
    outstanding_[static_cast<size_t>(lease.worker)] = kInvalidTokenId;
    ++shard_stats_[s].tokens_reclaimed;
    Token token = std::move(lease.token);
    ++token.attempt;
    AddFreshToken(std::move(token), lease.worker);
  }
  shard_leases_[s].clear();
  shard_fenced_[s] = true;
}

void TokenServer::UnfenceShard(int shard, const std::vector<bool>& down_now) {
  const size_t s = static_cast<size_t>(shard);
  FELA_CHECK(shard_fenced_[s]) << "UnfenceShard of a live shard";
  FELA_CHECK(shard_leases_[s].empty());
  shard_fenced_[s] = false;
  shard_lock_free_[s] = 0.0;  // the successor's distributor lock starts free
  // Apply the present down/cut picture of the shard's members in BOTH
  // directions: the retained root may carry member state from before the
  // fence (a member that crashed and recovered while the shard was dark).
  for (sim::NodeId w = shard_member_begin(shard); w < shard_member_end(shard);
       ++w) {
    SetWorkerDown(w, down_now[static_cast<size_t>(w)]);
  }
  ServeWaiters();
}

size_t TokenServer::PendingTokenCount() const {
  size_t n = 0;
  for (const auto& b : stbs_) n += b.size();
  return n;
}

double TokenServer::AcquireLock(int shard) {
  const size_t s = static_cast<size_t>(shard);
  const sim::SimTime now = sim_->now();
  const sim::SimTime serve = std::max(now, shard_lock_free_[s]);
  double delay = serve - now;
  const bool conflicted = shard_lock_free_[s] > now;
  shard_lock_free_[s] = serve + cal_->ts_service_time_sec;
  if (conflicted) {
    // Fetching failure: the token this worker raced for went to another
    // worker; the distributor rolls back and re-distributes (§III-E).
    delay += cal_->fetch_conflict_penalty_sec;
    ++shard_stats_[s].conflicts;
    shard_stats_[s].conflict_delay_total += delay;
  }
  if (spans_ != nullptr && spans_->enabled() && delay > 0.0) {
    // The wait + conflict penalty shows on the shard's token-server
    // track; the requester's own track sees it inside its token-wait
    // span.
    spans_->Emit(obs::Span{
        num_workers() + shard, obs::Phase::kTokenWait, now, now + delay,
        iteration_,
        conflicted ? common::TokenizedDetail(FELA_TOK("lock conflict"))
                   : common::TokenizedDetail(FELA_TOK("lock wait"))});
  }
  return delay;
}

sim::NodeId TokenServer::ChooseVictim(sim::NodeId thief,
                                      const std::vector<int>& order,
                                      int shard) const {
  // "New helpers will be prioritized to assist the straggler with the
  // least helpers and the slowest progress" — progress proxied by tokens
  // remaining in the victim's STB (more remaining = slower). The scan is
  // scoped to one shard's members (the whole cluster when unsharded).
  sim::NodeId best = -1;
  int best_helpers = 0;
  size_t best_remaining = 0;
  for (sim::NodeId v = shard_member_begin(shard); v < shard_member_end(shard);
       ++v) {
    if (v == thief) continue;
    const TokenBucket& b = stbs_[static_cast<size_t>(v)];
    if (!b.HasTokenForOrder(order)) continue;
    const int helpers = helper_count_[static_cast<size_t>(v)];
    const size_t remaining = b.size();
    if (best < 0 || helpers < best_helpers ||
        (helpers == best_helpers && remaining > best_remaining)) {
      best = v;
      best_helpers = helpers;
      best_remaining = remaining;
    }
  }
  return best;
}

int TokenServer::PickDonorShard(int thief_shard,
                                const std::vector<int>& order) const {
  // Root-level donor election: the shard with the largest aggregate
  // surplus over the requested levels donates — O(shards * levels) via
  // the availability caches, never a worker scan. Strict > keeps the
  // lowest shard id among ties and rejects shards with nothing to give.
  int best = -1;
  int best_surplus = 0;
  for (int t = 0; t < num_shards_; ++t) {
    if (t == thief_shard || shard_fenced_[static_cast<size_t>(t)]) continue;
    if (cbs_.shard_reachable && !cbs_.shard_reachable(thief_shard, t)) {
      continue;
    }
    int surplus = 0;
    for (int l : order) {
      surplus +=
          shard_level_avail_[static_cast<size_t>(t)][static_cast<size_t>(l)];
    }
    if (surplus > best_surplus) {
      best_surplus = surplus;
      best = t;
    }
  }
  return best;
}

std::optional<Grant> TokenServer::TakeFor(sim::NodeId worker) {
  // CTD liveness valve: workers outside S never see communication-
  // intensive levels, so if every subset worker is down those tokens
  // have no eligible taker and the iteration wedges on processes that
  // may never return. While S is entirely down, relax the scoping and
  // let the survivors drain comm tokens; the scoping resumes as soon as
  // any subset worker comes back up.
  bool ctd_relaxed = CtdActive();
  for (int w = 0; ctd_relaxed && w < config_->ctd_subset_size; ++w) {
    if (!down_[static_cast<size_t>(w)]) ctd_relaxed = false;
  }
  const std::vector<int>& order = ctd_relaxed ? unscoped_order_
                                  : worker < config_->ctd_subset_size
                                      ? subset_order_
                                      : outside_order_;
  if (order.empty()) return std::nullopt;
  // O(levels) fast-fail off the global availability cache: when no
  // bucket anywhere holds a token at any requested level, the request
  // parks without touching a single bucket (the path that used to cost a
  // full worker scan). A failed attempt takes no lock and bumps no stat,
  // so this is observationally identical to the scan finding nothing.
  bool any_available = false;
  for (int l : order) {
    if (level_avail_[static_cast<size_t>(l)] > 0) {
      any_available = true;
      break;
    }
  }
  if (!any_available) return std::nullopt;
  // CTD: subset workers hunt communication-intensive tokens before
  // anything else (their priority is T-comm > rest, §III-F) along the
  // whole ladder. A hunt steal leaves the helper assignment alone.
  if (hf() && CtdActive() && worker < config_->ctd_subset_size &&
      !comm_order_.empty()) {
    std::optional<Grant> grant =
        TakeAlong(worker, comm_order_, /*repoint_helper=*/false);
    if (grant.has_value()) return grant;
  }
  return TakeAlong(worker, order, /*repoint_helper=*/true);
}

std::optional<Grant> TokenServer::TakeAlong(sim::NodeId worker,
                                            const std::vector<int>& order,
                                            bool repoint_helper) {
  // Own bucket first: under HF the worker's STB, conflict-free and
  // lock-free (§III-E target 1); without HF its shard's one bucket.
  const size_t own = BucketIndexFor(worker);
  if (stbs_[own].HasTokenForOrder(order)) {
    return TakeFrom(worker, order, own, repoint_helper);
  }
  // Helper mode: steal from the neediest straggler in the worker's own
  // shard, under the shard's lock.
  const int shard = ShardOfWorker(worker);
  if (hf()) {
    const sim::NodeId victim = ChooseVictim(worker, order, shard);
    if (victim >= 0) {
      return TakeFrom(worker, order, static_cast<size_t>(victim),
                      repoint_helper);
    }
  }
  // Hierarchical steal: the shard is dry, so the root elects the donor
  // shard with the largest surplus (none on a one-shard server) and the
  // donor runs its local victim search — still no all-worker scan.
  const int donor = PickDonorShard(shard, order);
  if (donor < 0) return std::nullopt;
  const int bucket = hf() ? ChooseVictim(worker, order, donor) : donor;
  if (bucket < 0) return std::nullopt;
  return TakeFrom(worker, order, static_cast<size_t>(bucket), repoint_helper);
}

std::optional<Grant> TokenServer::TakeFrom(sim::NodeId worker,
                                           const std::vector<int>& order,
                                           size_t bucket,
                                           bool repoint_helper) {
  const bool stolen = bucket != BucketIndexFor(worker);
  const int holder = hf() ? ShardOfWorker(static_cast<sim::NodeId>(bucket))
                          : static_cast<int>(bucket);
  const bool cross_shard = holder != ShardOfWorker(worker);
  double delay = 0.0;
  if (stolen || !hf()) {
    // The lock comes before the take, so a donor whose cached surplus
    // lied still pays it; the root-mediated transfer adds two rack hops.
    delay = AcquireLock(holder);
    if (cross_shard) delay += 2.0 * cal_->topology.rack_hop_latency_sec;
  }
  std::optional<Token> token =
      stbs_[bucket].Take(worker, info_, order, config_->ads_enabled);
  if (!token.has_value()) return std::nullopt;
  if (cross_shard) ++shard_stats_[static_cast<size_t>(holder)].donations;
  if (!cross_shard || !canaries_.skip_donor_decrement) {
    NoteBucketTake(holder, token->level);
  }
  if (repoint_helper && hf() && stolen) {
    // Helper bookkeeping is cluster-global, so cross-shard assists count
    // like local ones.
    sim::NodeId& prev = helping_[static_cast<size_t>(worker)];
    if (prev >= 0) --helper_count_[static_cast<size_t>(prev)];
    prev = static_cast<sim::NodeId>(bucket);
    ++helper_count_[bucket];
  }
  Grant grant;
  grant.token = std::move(*token);
  grant.stolen = stolen;
  grant.cross_shard = cross_shard;
  grant.extra_delay = delay;
  return grant;
}

void TokenServer::MakeGrant(sim::NodeId worker, Grant* grant) {
  Stats& st = shard_stats_[static_cast<size_t>(ShardOfWorker(worker))];
  const Token& token = grant->token;
  if (token.level == 0) {
    if (token.sample_home >= 0 && token.sample_home != worker) {
      grant->remote_fetches.emplace_back(
          token.sample_home,
          plan_->level(0).sample_bytes_per_sample * token.batch);
      ++st.remote_dep_fetches;
    } else {
      ++st.local_dep_hits;
    }
  } else {
    const double per_sample = plan_->level(token.level).dep_bytes_per_sample;
    for (const TokenDep& dep : token.deps) {
      const sim::NodeId holder = info_.HolderOf(dep.id);
      FELA_CHECK_GE(holder, 0) << "dependency " << dep.id << " not completed";
      if (holder == worker) {
        ++st.local_dep_hits;
        continue;
      }
      grant->remote_fetches.emplace_back(holder, per_sample * dep.batch);
      ++st.remote_dep_fetches;
    }
  }
}

sim::SimTime TokenServer::ArmLease(int shard, sim::NodeId worker,
                                   const Token& token) {
  // The lease record always exists (SetWorkerDown reclaims through it)
  // and lives in the worker's shard — a donated token transfers wholly
  // to the thief's shard, so exactly one shard ever owns it. The expiry
  // timer is only armed when leasing is on, so fault-free runs schedule
  // no extra events and replay bit-identically; its expiry traces as
  // kTokenReclaim when it fires, and arming it is silent.
  const TokenId id = token.id;
  Lease lease;
  lease.token = token;
  lease.worker = worker;
  sim::SimTime deadline = 0.0;
  if (leases_enabled_) {
    deadline = sim_->now() + kLeaseTimeoutSec;
    lease.timer = sim_->ScheduleAt(
        deadline, [this, shard, id] { ReclaimLease(shard, id, true); });
  }
  outstanding_[static_cast<size_t>(worker)] = id;
  shard_leases_[static_cast<size_t>(shard)][id] = std::move(lease);
  return deadline;
}

void TokenServer::Park(sim::NodeId worker) {
  const size_t w = static_cast<size_t>(worker);
  if (waiting_[w]) return;
  waiting_[w] = true;
  shard_waiters_[static_cast<size_t>(ShardOfWorker(worker))].push_back(worker);
}

bool TokenServer::TryGrant(sim::NodeId worker) {
  // No grants to crashed workers, none from a fenced shard, and at most
  // one live grant per worker — a second grant while one is outstanding
  // could only mean the first was lost, which the lease expiry path
  // recovers.
  const int shard = ShardOfWorker(worker);
  ++shard_stats_[static_cast<size_t>(shard)].grant_attempts;
  if (down_[static_cast<size_t>(worker)] ||
      shard_fenced_[static_cast<size_t>(shard)] ||
      outstanding_[static_cast<size_t>(worker)] != kInvalidTokenId) {
    return false;
  }
  std::optional<Grant> grant = TakeFor(worker);
  if (!grant.has_value()) return false;
  Stats& st = shard_stats_[static_cast<size_t>(shard)];
  ++st.grants;
  if (grant->stolen) ++st.steals;
  if (grant->cross_shard) ++st.cross_shard_steals;
  if (grant->token.attempt > 0) {
    ++st.regrants;
    // A donated token carries its attempt counter across the shard
    // boundary; the matching reclaim sits in the donor's ledger.
    if (grant->cross_shard) ++migrated_reclaims_in_[static_cast<size_t>(shard)];
  }
  MakeGrant(worker, &*grant);
  grant->lease_deadline = ArmLease(shard, worker, grant->token);
  cbs_.deliver_grant(worker, *grant);
  return true;
}

void TokenServer::HandleRequest(sim::NodeId worker) {
  if (down_[static_cast<size_t>(worker)]) return;
  const int shard = ShardOfWorker(worker);
  // A fenced shard's incarnation is dead: the engine voids sends to it,
  // so a request landing here is a straggler — drop it (the worker's
  // retry reaches the successor incarnation).
  if (shard_fenced_[static_cast<size_t>(shard)]) return;
  if (outstanding_[static_cast<size_t>(worker)] != kInvalidTokenId) {
    // A retransmitted request racing a grant already in flight (or whose
    // grant was lost). Park the worker; it is served as soon as its
    // lease resolves — granting a second token now would double-book it.
    ++shard_stats_[static_cast<size_t>(shard)].redundant_requests;
    Park(worker);
    return;
  }
  if (!TryGrant(worker)) Park(worker);
}

void TokenServer::ServeWaiters() {
  // One pass suffices: nothing enters a bucket during it and a failed
  // TryGrant has no side effects, so a waiter that fails here could not
  // be granted later in the pass or on a second one. For the same reason
  // the pass stops as soon as no level holds a token anywhere.
  if (!AnyTokenAvailable()) return;
  for (int s = 0; s < num_shards_; ++s) {
    if (shard_fenced_[static_cast<size_t>(s)]) continue;
    auto& waiters = shard_waiters_[static_cast<size_t>(s)];
    for (auto it = waiters.begin(); it != waiters.end();) {
      if (!TryGrant(*it)) {
        ++it;
        continue;
      }
      waiting_[static_cast<size_t>(*it)] = false;
      it = waiters.erase(it);
      if (!AnyTokenAvailable()) return;
    }
  }
}

Token TokenServer::MakeGeneratedToken(int level, std::vector<TokenDep> deps,
                                      int shard) {
  Token t;
  t.id = shard_next_seq_[static_cast<size_t>(shard)]++ * num_shards_ + shard;
  t.level = level;
  t.iteration = iteration_;
  double batch = 0.0;
  for (const auto& d : deps) batch += d.batch;
  t.batch = batch;
  t.deps = std::move(deps);
  ++generated_count_[static_cast<size_t>(level)];
  return t;
}

void TokenServer::AddFreshToken(Token token, sim::NodeId source) {
  NoteBucketAdd(ShardOfWorker(source), token.level);
  stbs_[BucketIndexFor(source)].Add(std::move(token));
}

void TokenServer::GenerateAfterCompletion(const Token& completed,
                                          sim::NodeId reporter) {
  const int level = completed.level;
  const int next = level + 1;
  if (next >= plan_->num_levels()) return;
  auto& pending =
      pending_[static_cast<size_t>(level)][BucketIndexFor(reporter)];
  pending.push_back(TokenDep{completed.id, completed.batch});

  const int ratio = plan_->level(next).generation_ratio;
  FELA_CHECK_GT(ratio, 0);
  while (static_cast<int>(pending.size()) >= ratio) {
    std::vector<TokenDep> deps;
    deps.reserve(static_cast<size_t>(ratio));
    for (int k = 0; k < ratio; ++k) {
      deps.push_back(pending.front());
      pending.pop_front();
    }
    AddFreshToken(
        MakeGeneratedToken(next, std::move(deps), ShardOfWorker(reporter)),
        reporter);
  }
}

void TokenServer::FlushResidualPools(int level) {
  // The level is fully completed; any residual completions (pools that
  // never reached the generation ratio) are merged — cross-worker deps
  // are unavoidable for this remainder — and emitted as final tokens.
  const int next = level + 1;
  if (next >= plan_->num_levels()) return;
  std::deque<TokenDep> merged;
  for (auto& pool : pending_[static_cast<size_t>(level)]) {
    while (!pool.empty()) {
      merged.push_back(pool.front());
      pool.pop_front();
    }
  }
  const int ratio = plan_->level(next).generation_ratio;
  while (!merged.empty()) {
    std::vector<TokenDep> deps;
    while (!merged.empty() && static_cast<int>(deps.size()) < ratio) {
      deps.push_back(merged.front());
      merged.pop_front();
    }
    // Route the remainder token to the holder of its first dependency —
    // the best locality available for a cross-worker remainder.
    const sim::NodeId source = info_.HolderOf(deps.front().id);
    const sim::NodeId home = source >= 0 ? source : 0;
    AddFreshToken(MakeGeneratedToken(next, std::move(deps),
                                     ShardOfWorker(home)),
                  home);
  }
  FELA_CHECK_EQ(generated_count_[static_cast<size_t>(next)],
                plan_->level(next).token_count)
      << "level " << next << " token count mismatch";
}

void TokenServer::SetWorkerDown(sim::NodeId worker, bool down) {
  const size_t w = static_cast<size_t>(worker);
  if (down_[w] == down) return;
  down_[w] = down;
  if (!down) return;  // recovered workers re-enter by requesting work
  const int shard = ShardOfWorker(worker);
  // Drop the crashed worker from its shard's wait queue.
  if (waiting_[w]) {
    waiting_[w] = false;
    auto& waiters = shard_waiters_[static_cast<size_t>(shard)];
    waiters.erase(std::remove(waiters.begin(), waiters.end(), worker),
                  waiters.end());
  }
  // Its helper assignment is void.
  const sim::NodeId victim = helping_[w];
  if (victim >= 0) {
    --helper_count_[static_cast<size_t>(victim)];
    helping_[w] = -1;
  }
  // Whatever it was training is lost; pull the token back now rather
  // than waiting out the lease (the lease lives in the worker's shard).
  if (outstanding_[w] != kInvalidTokenId) {
    ReclaimLease(shard, outstanding_[w], false);
  }
}

sim::NodeId TokenServer::ReclaimDestination(const Token& token) const {
  auto up = [&](sim::NodeId w) {
    return w >= 0 && w < num_workers() && !down_[static_cast<size_t>(w)];
  };
  if (token.level == 0 && up(token.sample_home)) return token.sample_home;
  for (const TokenDep& dep : token.deps) {
    const sim::NodeId holder = info_.HolderOf(dep.id);
    if (up(holder)) return holder;
  }
  for (sim::NodeId w = 0; w < num_workers(); ++w) {
    if (!down_[static_cast<size_t>(w)]) return w;
  }
  return 0;
}

void TokenServer::ReclaimLease(int shard, TokenId id, bool expired) {
  auto& leases = shard_leases_[static_cast<size_t>(shard)];
  auto it = leases.find(id);
  if (it == leases.end()) return;
  Lease lease = std::move(it->second);
  leases.erase(it);
  if (!expired && lease.timer != sim::kInvalidEventId) {
    sim_->Cancel(lease.timer);
  }
  FELA_CHECK_EQ(outstanding_[static_cast<size_t>(lease.worker)], id);
  outstanding_[static_cast<size_t>(lease.worker)] = kInvalidTokenId;
  ++shard_stats_[static_cast<size_t>(shard)].tokens_reclaimed;
  if (expired) ++shard_stats_[static_cast<size_t>(shard)].lease_expirations;
  Token token = std::move(lease.token);
  ++token.attempt;
  if (cbs_.on_reclaim) cbs_.on_reclaim(token, lease.worker);
  // The reclaimed token migrates to the most local up worker's bucket —
  // possibly in another shard, which then owns it outright and is
  // credited with the reclaim this shard booked.
  const sim::NodeId home = ReclaimDestination(token);
  const int dest = ShardOfWorker(home);
  if (dest != shard) ++migrated_reclaims_in_[static_cast<size_t>(dest)];
  AddFreshToken(std::move(token), home);
  ServeWaiters();
}

void TokenServer::CancelAllLeases() {
  for (auto& leases : shard_leases_) {
    for (auto& [id, lease] : leases) {
      if (lease.timer != sim::kInvalidEventId) sim_->Cancel(lease.timer);
      outstanding_[static_cast<size_t>(lease.worker)] = kInvalidTokenId;
    }
    leases.clear();
  }
}

void TokenServer::HandleReport(sim::NodeId worker, const Token& token) {
  const size_t w = static_cast<size_t>(worker);
  const int shard = ShardOfWorker(worker);
  // Straggler report into a fenced incarnation: drop (see HandleRequest).
  if (shard_fenced_[static_cast<size_t>(shard)]) return;
  Stats& st = shard_stats_[static_cast<size_t>(shard)];
  if (token.iteration != iteration_) {
    // A delayed/duplicated report straddled an iteration turnover.
    ++st.stale_reports;
    return;
  }
  // Accept a completion only from the worker we believe holds the token:
  // anything else is a duplicated report, or a report for a grant that
  // was already reclaimed (the work will be redone elsewhere).
  if (outstanding_[w] != token.id) {
    ++st.duplicate_reports;
    // The combined message still carries an implicit request: honor it
    // if the worker is idle from our point of view.
    if (!down_[w] && outstanding_[w] == kInvalidTokenId) HandleRequest(worker);
    return;
  }
  outstanding_[w] = kInvalidTokenId;
  auto& leases = shard_leases_[static_cast<size_t>(shard)];
  auto lease = leases.find(token.id);
  if (lease != leases.end()) {
    if (lease->second.timer != sim::kInvalidEventId) {
      sim_->Cancel(lease->second.timer);
    }
    leases.erase(lease);
  }
  // Mutation canary: while armed, every 7th accepted completion is
  // leaked from the ledger — behavior is untouched, the accounting lies.
  if (!canaries_.leak_completions || ++canary_completions_ % 7 != 0) {
    ++st.completions;
  }
  info_.RecordCompleted(token.id, worker);
  const size_t level = static_cast<size_t>(token.level);
  ++completed_count_[level];
  FELA_CHECK_LE(completed_count_[level], plan_->level(token.level).token_count);

  GenerateAfterCompletion(token, worker);
  const bool level_done =
      completed_count_[level] == plan_->level(token.level).token_count;
  if (level_done) {
    FlushResidualPools(token.level);
  }

  // Combined report + request (§III-D). Under ADS Principle 1 the
  // reporter's implicit request is served first — it holds the freshest
  // dependencies, so granting it the just-generated token avoids the
  // remote fetches another worker would pay. Without ADS the distributor
  // is a plain FIFO: queued waiters go first.
  if (!config_->ads_enabled || !TryGrant(worker)) Park(worker);
  ServeWaiters();

  if (level_done) {
    cbs_.on_level_complete(token.level);
    if (!all_done_announced_ && AllLevelsComplete()) {
      all_done_announced_ = true;
      cbs_.on_all_levels_complete();
    }
  }
}

}  // namespace fela::core
