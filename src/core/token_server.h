#ifndef FELA_CORE_TOKEN_SERVER_H_
#define FELA_CORE_TOKEN_SERVER_H_

#include <algorithm>
#include <deque>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/annotations.h"
#include "common/flat_map.h"
#include "core/fela_config.h"
#include "core/info_mapping.h"
#include "core/token.h"
#include "core/token_bucket.h"
#include "sim/calibration.h"
#include "sim/simulator.h"
#include "sim/span.h"

namespace fela::core {

/// What the Token Distributor hands a worker: the token plus the remote
/// dependency fetches the worker's Coordinator must perform before its
/// Trainer can start, and any scheduling penalty (lock wait / fetching
/// conflict) incurred before the grant could be issued.
struct Grant {
  Token token;
  /// (holder node, bytes) pairs for dependencies not in the worker's
  /// local Parameter Chunks (or remote training-sample reads for T-1).
  std::vector<std::pair<sim::NodeId, double>> remote_fetches;
  double extra_delay = 0.0;
  bool stolen = false;  // taken from another worker's STB (helper mode)
  /// The steal crossed a shard boundary (hierarchical donor path). Always
  /// false on a single-shard server.
  bool cross_shard = false;
  /// Absolute sim time by which the worker must report completion before
  /// the TS reclaims the token (0 when leasing is disabled).
  sim::SimTime lease_deadline = 0.0;
};

/// The Token Server (§III-A): Token Generator + Token Distributor + Token
/// Bucket(s) + Info Mapping. Runs at node 0 (co-located with worker 0;
/// the paper notes TS is not compute-intensive). The engine delivers
/// worker control messages to HandleRequest/HandleReport after simulating
/// network latency, and routes the callbacks back out.
///
/// Policies implemented here:
///  * Reactive scheduling (§III-C): TS never pushes work; workers pull.
///  * ADS (§III-D): level priority + Eq. 1 locality (via TokenBucket),
///    and combined report+request — the reporter's implicit request is
///    served before queued waiters, which is what keeps freshly generated
///    tokens on the worker already holding their dependencies.
///  * HF (§III-E): the bucket is partitioned into per-worker STBs; own
///    STB first, lock-free; helpers steal from the straggler with the
///    fewest helpers and the slowest progress, serializing on a lock;
///    simultaneous contention costs a fetching-conflict penalty. With HF
///    disabled every grant serializes on the lock and fresh tokens are
///    generated from a global (cross-worker interleaved) completion pool,
///    destroying dependency locality under contention.
///  * CTD (§III-F): communication-intensive levels are only distributed
///    inside the subset S = {0..subset-1}, and prioritized there.
///
/// Sharding: the distributor is split into per-rack sub-distributors
/// coordinated by a thin root (this object). Each shard owns the STBs,
/// lease table, wait queue, completion pools, ledger, and distributor
/// lock of a contiguous block of workers (= one topology rack by
/// default; `config.ts_shards` overrides), so grants, completions, and
/// intra-rack steals are served in O(rack_size). When a shard has no
/// local token, the root picks a donor shard by aggregate surplus over
/// the requested levels (O(shards), via incrementally maintained
/// per-shard level counts) and the donor runs its local victim search —
/// no code path scans all P workers. With one shard (any flat topology)
/// every grant path degenerates to the original single server and
/// fault-free transcripts are byte-identical to it; its failover is the
/// S=1 case of the per-shard FenceShard/UnfenceShard handoff.
class FELA_THREAD_HOSTILE TokenServer {
 public:
  struct Callbacks {
    /// Deliver a grant to a worker (engine adds control latency and the
    /// grant's extra_delay, and sends the §III-A "notify" messages to
    /// dependency holders).
    std::function<void(sim::NodeId, const Grant&)> deliver_grant;
    /// All tokens of a level completed: parameter synchronization for
    /// that sub-model can start.
    std::function<void(int level)> on_level_complete;
    /// Every level of the iteration completed.
    std::function<void()> on_all_levels_complete;
    /// Optional: a lease was reclaimed (crash or timeout) — the token is
    /// back in a bucket and `from` no longer owns it. For tracing.
    std::function<void(const Token&, sim::NodeId from)> on_reclaim;
    /// Optional: can shard `from` currently reach shard `to` (their hosts
    /// are not partitioned)? Consulted by the hierarchical donor pick;
    /// absent means always reachable. Never called on a one-shard server.
    std::function<bool(int from_shard, int to_shard)> shard_reachable;
  };

  struct Stats {
    uint64_t grants = 0;
    uint64_t steals = 0;
    uint64_t conflicts = 0;
    double conflict_delay_total = 0.0;
    uint64_t remote_dep_fetches = 0;
    uint64_t local_dep_hits = 0;
    // Fault-tolerance accounting. Every grant terminates in exactly one
    // of {accepted completion, reclaim}, so over the whole run, fences
    // included, grants == completions + tokens_reclaimed + live.
    uint64_t completions = 0;        // reports accepted
    uint64_t tokens_reclaimed = 0;   // leases reclaimed (crash + expiry)
    uint64_t lease_expirations = 0;  // reclaims caused by a silent worker
    uint64_t regrants = 0;           // grants of a previously reclaimed token
    uint64_t duplicate_reports = 0;  // reports not matching the live grant
    uint64_t stale_reports = 0;      // reports from a finished iteration
    uint64_t redundant_requests = 0; // requests while a grant is live
    uint64_t leases_restored = 0;    // always 0; the benchmark reads it
    // Hierarchical-steal accounting (always 0 on a one-shard server).
    // A donated token moves wholly to the thief's shard: the thief's
    // ledger carries its grant and completion; the donor only counts the
    // donation, so no token is owned by two shards. Summed over shards,
    // donations == cross_shard_steals.
    uint64_t cross_shard_steals = 0; // grants filled by another shard
    uint64_t donations = 0;          // tokens this shard gave away
    // Simulator work counter, not a simulated quantity: TryGrant calls
    // made for this shard's workers, successful or not. The
    // bench_scale_workers gate reads it (attempts per grant); it is
    // deliberately kept out of MetricsRegistry, RunStats and every
    // transcript, so metric dumps and goldens do not depend on it.
    uint64_t grant_attempts = 0;

    /// Element-wise sum; stats() folds the shard ledgers with it.
    Stats& operator+=(const Stats& other);
  };

  TokenServer(sim::Simulator* sim, const sim::Calibration* cal,
              const FelaPlan* plan, const FelaConfig* config, Callbacks cbs);

  TokenServer(const TokenServer&) = delete;
  TokenServer& operator=(const TokenServer&) = delete;

  /// Resets per-iteration state, creates the iteration's T-1 tokens
  /// (round-robin across STBs / sample shards), and serves any waiters
  /// whose requests arrived before the iteration turned over.
  void BeginIteration(int iteration);

  /// A token request from `worker` has arrived at the TS.
  void HandleRequest(sim::NodeId worker);

  /// A completion report (with the §III-D combined implicit request).
  void HandleReport(sim::NodeId worker, const Token& token);

  /// Arms grant leases: each grant gets a deadline
  /// (now + kLeaseTimeoutSec) and an expiry timer that reclaims
  /// the token from a silent worker. Off by default so fault-free runs
  /// schedule no extra events and stay bit-identical to older traces.
  void set_leases_enabled(bool enabled) { leases_enabled_ = enabled; }

  /// Test-only mutation canaries: each makes the server's books lie while
  /// its behavior stays untouched, so a test can prove an oracle bites.
  struct Canaries {
    /// Leak every 7th completion this server accepts from the ledger (the
    /// conservation oracle must bite).
    bool leak_completions = false;
    /// Keep counting a donated token in the donor's availability cache
    /// (the per-shard availability audit must bite).
    bool skip_donor_decrement = false;
  };
  void set_canaries_for_testing(const Canaries& canaries) {
    canaries_ = canaries;
  }

  /// Marks a worker crashed (down=true) or recovered (down=false). A
  /// crashed worker is dropped from the wait queue, its live lease (if
  /// any) is reclaimed immediately, and it receives no grants until it
  /// recovers. Its STB stays schedulable — helpers steal from it.
  void SetWorkerDown(sim::NodeId worker, bool down);

  /// Cancels any armed lease timers without reclaiming (run teardown —
  /// leaves no dangling events in the simulator queue).
  void CancelAllLeases();

  // -- Per-shard topology and survivability -------------------------------

  int num_shards() const { return num_shards_; }
  int ShardOfWorker(sim::NodeId worker) const {
    return static_cast<int>(worker) / shard_block_;
  }
  /// Contiguous member range [begin, end) of a shard.
  sim::NodeId shard_member_begin(int shard) const {
    return static_cast<sim::NodeId>(shard * shard_block_);
  }
  sim::NodeId shard_member_end(int shard) const {
    return std::min(static_cast<sim::NodeId>((shard + 1) * shard_block_),
                    static_cast<sim::NodeId>(num_workers()));
  }

  /// Fences one shard (the whole server when it has one shard): every
  /// live lease is reclaimed into the shard's own buckets (attempt
  /// bumped — the work in flight dies with the shard host) and booked
  /// in the shard's ledger, and the shard stops granting, donating and
  /// accepting messages.
  void FenceShard(int shard);

  /// Un-fences a shard under a new incarnation: the present down/cut
  /// picture of the shard's members is applied and waiters are served,
  /// so the tokens the fence reclaimed are granted afresh.
  void UnfenceShard(int shard, const std::vector<bool>& down_now);

  /// True between FenceShard(shard) and UnfenceShard(shard).
  bool shard_fenced(int shard) const {
    return shard_fenced_[static_cast<size_t>(shard)];
  }

  /// Enables distributor-lock observability: every serialized pass
  /// through a shard's lock (including its fetching-conflict penalty)
  /// becomes a span on that shard's token-server track
  /// (= num_workers + shard, past the last worker's).
  void set_span_sink(obs::SpanSink* spans) { spans_ = spans; }

  bool AllLevelsComplete() const;
  const InfoMapping& info() const { return info_; }
  /// Cluster-wide ledger: the element-wise sum of every shard's ledger.
  Stats stats() const;
  /// One shard's ledger over the whole run (the per-shard conservation
  /// identity holds for each of these independently).
  const Stats& shard_stats(int shard) const {
    return shard_stats_[static_cast<size_t>(shard)];
  }
  size_t waiter_count() const;
  size_t PendingTokenCount() const;
  int tokens_completed(int level) const {
    return completed_count_[static_cast<size_t>(level)];
  }

  /// Audits the token-accounting ledger; returns one line per violated
  /// invariant, empty when healthy. Safe to call at any point in a run,
  /// fences included: the conservation identity (every grant terminates
  /// in exactly one of completion or reclaim) counts still-live leases
  /// as in flight. The audit runs per shard (each shard's ledger must
  /// balance on its own, and the cached per-level availability counts
  /// must match a recount of its buckets) plus cluster-wide (every
  /// donation matches one cross-shard steal, level caps, and global
  /// token uniqueness across every shard's buckets and leases — a
  /// double-counted donation trips it). The fuzzer's
  /// TokenConservationOracle calls this through the
  /// ExperimentSpec::post_run_probe hook.
  std::vector<std::string> CheckInvariants() const;

 private:
  bool hf() const { return config_->hf_enabled; }
  bool CtdActive() const {
    return config_->ctd_subset_size < plan_->num_workers;
  }
  int num_workers() const { return plan_->num_workers; }
  /// Bucket index a worker's tokens live in: its STB under HF, else its
  /// shard's single bucket (the unsharded server's global bucket is the
  /// one-shard case). Completion pools are indexed the same way.
  size_t BucketIndexFor(sim::NodeId worker) const {
    return hf() ? static_cast<size_t>(worker)
                : static_cast<size_t>(ShardOfWorker(worker));
  }

  /// Tries to grant a token to `worker`; delivers via callback on
  /// success.
  bool TryGrant(sim::NodeId worker);
  /// Selection across buckets per HF/CTD: the grant's token, steal flags
  /// and lock/hop delay, or nothing when no bucket can serve `worker`.
  std::optional<Grant> TakeFor(sim::NodeId worker);
  /// The take ladder over `order`: the worker's own bucket, then (HF) a
  /// victim in its shard, then the donor shard the root elects (a victim
  /// there under HF, its single bucket otherwise). Nothing when no rung
  /// holds a token.
  std::optional<Grant> TakeAlong(sim::NodeId worker,
                                 const std::vector<int>& order,
                                 bool repoint_helper);
  /// The one take step: takes from `bucket` for `worker` and pays what
  /// the take costs. Every take but one from the worker's own HF STB
  /// serializes on the holding shard's lock; a cross-shard take adds two
  /// rack hops and books a donation on the holding shard. A steal
  /// re-points the helper at its victim when `repoint_helper` (HF only).
  std::optional<Grant> TakeFrom(sim::NodeId worker,
                                const std::vector<int>& order, size_t bucket,
                                bool repoint_helper);
  /// Victim for a helper steal restricted to `order` levels, scanning
  /// only the members of `shard`; -1 if none.
  sim::NodeId ChooseVictim(sim::NodeId thief, const std::vector<int>& order,
                           int shard) const;
  /// Root donor pick for a hierarchical steal: the active, reachable
  /// shard (≠ thief's) with the largest aggregate surplus over `order`
  /// (ties -> lowest shard id); -1 when no shard has a matching token.
  int PickDonorShard(int thief_shard, const std::vector<int>& order) const;
  /// Accounts one pass through a shard's distributor lock; returns the
  /// delay (wait + conflict penalty) the request suffers.
  double AcquireLock(int shard);

  /// Availability-count cache maintenance: every token entering or
  /// leaving a bucket of `shard` at `level` passes through these. The
  /// caches give O(1) donor surpluses and an O(levels) fast-fail for
  /// requests no bucket can serve (the failed-attempt path that used to
  /// scan every worker).
  void NoteBucketAdd(int shard, int level);
  void NoteBucketTake(int shard, int level);

  void AddFreshToken(Token token, sim::NodeId source);
  void GenerateAfterCompletion(const Token& completed, sim::NodeId reporter);
  void FlushResidualPools(int level);
  /// Mints a token owned by `shard`: ids are per-shard sequences spread
  /// by stride (seq * num_shards + shard), so each shard mints
  /// monotonically without coordination and a one-shard server produces
  /// exactly the historical dense sequence.
  Token MakeGeneratedToken(int level, std::vector<TokenDep> deps, int shard);
  /// Fills a taken grant's remote dependency fetches and books its
  /// locality stats on the worker's shard.
  void MakeGrant(sim::NodeId worker, Grant* grant);
  /// Writes `worker`'s lease on `token` into `shard`'s table and arms its
  /// expiry timer when leasing is on; returns the deadline (0 when off).
  sim::SimTime ArmLease(int shard, sim::NodeId worker, const Token& token);
  /// Queues `worker` on its shard's wait queue unless it already waits.
  void Park(sim::NodeId worker);
  /// One pass over every live shard's wait queue (shards by index, FIFO
  /// within a shard), stopping once no bucket holds a token.
  void ServeWaiters();
  bool AnyTokenAvailable() const {
    return std::any_of(level_avail_.begin(), level_avail_.end(),
                       [](int n) { return n > 0; });
  }
  /// Live leases across every shard's table.
  size_t outstanding_lease_count() const;

  /// Pulls a live lease back: cancels its timer (unless it just fired),
  /// bumps the token's attempt count, returns it to the most local up
  /// worker's bucket, and serves waiters with the freed token.
  void ReclaimLease(int shard, TokenId id, bool expired);
  /// Best STB for a reclaimed token: its sample home / a dependency
  /// holder when that worker is up, else the first up worker.
  sim::NodeId ReclaimDestination(const Token& token) const;

  sim::Simulator* sim_;
  const sim::Calibration* cal_;
  const FelaPlan* plan_;
  const FelaConfig* config_;
  obs::SpanSink* spans_ = nullptr;
  Callbacks cbs_;

  /// Shard layout, fixed at construction: config.ts_shards when set,
  /// else one shard per topology rack (1 on a flat cluster). Members are
  /// the contiguous block [s * shard_block_, (s+1) * shard_block_).
  int num_shards_ = 1;
  int shard_block_ = 0;

  InfoMapping info_;
  std::vector<TokenBucket> stbs_;  // size N when HF; one per shard otherwise
  // Per-level completion pools feeding token generation. With HF each
  // worker has its own pool (index = reporter), keeping generated deps
  // single-sourced; without HF one pool per shard interleaves its
  // members.
  std::vector<std::vector<std::deque<TokenDep>>> pending_;
  std::vector<int> completed_count_;
  std::vector<int> generated_count_;
  /// Per-shard wait queue (the root serves shards in index order).
  std::vector<std::deque<sim::NodeId>> shard_waiters_;
  std::vector<bool> waiting_;
  /// A granted-but-unreported token and its expiry timer.
  struct Lease {
    Token token;
    sim::NodeId worker = -1;
    sim::EventId timer = sim::kInvalidEventId;
  };
  /// Per-shard flat sorted-vector lease map (common/flat_map.h): each
  /// shard's token ids are granted in increasing order, so inserts are
  /// amortized appends instead of rebalancing tree allocations, lookups
  /// are a binary search over one contiguous slab, and iteration is
  /// deterministically sorted — the order FenceShard reclaims in, and the
  /// same observable order the old std::map gave (transcripts stay
  /// byte-identical).
  std::vector<common::FlatMap<TokenId, Lease>> shard_leases_;
  std::vector<TokenId> outstanding_;  // live grant per worker, or invalid
  std::vector<bool> down_;
  bool leases_enabled_ = false;
  Canaries canaries_;
  uint64_t canary_completions_ = 0;  // accepted while leak_completions
  /// Reclaimed tokens (attempt > 0) that migrated into this shard after
  /// another shard booked their reclaim: won in a cross-shard steal and
  /// re-granted here, or re-bucketed here by ReclaimLease. The per-shard
  /// regrants <= reclaimed bound must credit these to stay sound.
  std::vector<uint64_t> migrated_reclaims_in_;
  /// Fenced shards neither grant nor donate; their buckets keep
  /// accumulating (root-held inventory) until UnfenceShard.
  std::vector<bool> shard_fenced_;
  std::vector<sim::NodeId> helping_;     // helping_[w] = victim or -1
  std::vector<int> helper_count_;        // helpers currently aiding worker v
  std::vector<sim::SimTime> shard_lock_free_;  // per-shard distributor lock
  /// Per-shard mint sequence; global id = seq * num_shards + shard.
  std::vector<TokenId> shard_next_seq_;
  /// shard_level_avail_[s][l]: schedulable tokens at level l across shard
  /// s's buckets; level_avail_[l] is the cluster-wide sum. Incrementally
  /// maintained (NoteBucketAdd/Take), cross-checked by CheckInvariants.
  std::vector<std::vector<int>> shard_level_avail_;
  std::vector<int> level_avail_;
  /// The level orders LevelPriorityFor can return, fixed with config and
  /// plan at construction: unscoped (no CTD, or CTD relaxed), inside the
  /// CTD subset S, and outside it. comm_order_ holds the
  /// communication-intensive levels a subset worker hunts first.
  std::vector<int> unscoped_order_;
  std::vector<int> subset_order_;
  std::vector<int> outside_order_;
  std::vector<int> comm_order_;
  int iteration_ = -1;
  bool all_done_announced_ = false;
  std::vector<Stats> shard_stats_;
};

}  // namespace fela::core

#endif  // FELA_CORE_TOKEN_SERVER_H_
