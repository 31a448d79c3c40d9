#ifndef FELA_CORE_FELA_CONFIG_H_
#define FELA_CORE_FELA_CONFIG_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "model/partition.h"

namespace fela::core {

/// Fault-tolerance timeouts, fixed for every run and armed only when the
/// run's fault schedule can fire. Every grant carries a lease: if the
/// worker has not reported completion within kLeaseTimeoutSec the token
/// server reclaims the token and re-grants it elsewhere. A worker resends
/// an unanswered token request after kRetryTimeoutSec, the first step of
/// the backoff below (covers grants or requests lost on a lossy control
/// plane).
inline constexpr double kLeaseTimeoutSec = 15.0;
inline constexpr double kRetryTimeoutSec = 5.0;

/// Control-plane survivability. When a Token Server shard's hosting node
/// crashes (or lands on a minority partition side) the shard is fenced
/// and its live leases are reclaimed; a standby takes it over and grants
/// the reclaimed tokens afresh kTsFailoverTimeoutSec later — the
/// simulated detection + election delay.
inline constexpr double kTsFailoverTimeoutSec = 10.0;

/// Request retry backoff: the k-th consecutive retry of one request
/// waits min(kRetryTimeoutSec * kRetryBackoffMult^k, kRetryTimeoutMaxSec),
/// stretched by a deterministic jitter factor in [1.0, 1.5) seeded from
/// kRetryJitterSeed and the worker id (see common::JitteredBackoffSec).
/// Jitter never shortens a wait. Keeps a partitioned minority from
/// hammering the control plane in lockstep while it waits for a heal.
inline constexpr double kRetryBackoffMult = 2.0;
inline constexpr double kRetryTimeoutMaxSec = 60.0;
inline constexpr uint64_t kRetryJitterSeed = 0x5eedbacc0ffULL;

/// User/tuner-facing knobs of the Fela engine.
struct FelaConfig {
  /// Parallelism-degree weights, one per sub-model; w[0] must be 1 and
  /// the sequence must be non-decreasing (§IV-B). Weight w[i] multiplies
  /// the base token batch for sub-model i; the token count shrinks by the
  /// same factor (DESIGN.md §1 item 1 documents this reading of the
  /// paper's n_i formula).
  std::vector<int> weights;

  /// Conditional Token Distribution subset size |S| (§III-F). Workers
  /// 0..subset-1 form S. Equal to the worker count = CTD disabled.
  int ctd_subset_size = 8;

  /// Policy toggles for the ablation study (Fig. 7).
  bool ads_enabled = true;  // Aggressive Depth-First Scheduling (§III-D)
  bool hf_enabled = true;   // Hierarchical Fetching / STBs (§III-E)

  /// Token Server shard count. 0 = auto: one sub-distributor per
  /// topology rack (a flat cluster gets exactly one shard, which is
  /// byte-identical to the unsharded server). An explicit value forces
  /// that many shards over contiguous worker blocks regardless of the
  /// topology; 1 pins the single-server behaviour.
  int ts_shards = 0;

  std::string ToString() const;

  /// Uniform weights {1,1,...}; the untuned default.
  static FelaConfig Defaults(int num_sub_models, int num_workers);
};

/// Per-level schedule derived from (model partition, config, total batch,
/// worker count): how many tokens exist per level, their batch sizes, and
/// the generation ratio from the level below.
struct LevelPlan {
  int level = 0;
  double token_batch = 0.0;  // samples per token
  int token_count = 0;       // n_i tokens per iteration
  /// Completed level-(i-1) tokens consumed per generated level-i token
  /// (w[i]/w[i-1]); 0 for level 0.
  int generation_ratio = 0;
  /// Bytes of boundary activations a level-i token must gather per
  /// *dependency token* (input boundary elems * dep batch * 4B).
  double dep_bytes_per_sample = 0.0;
  /// Bytes of raw training samples per sample (level 0 only).
  double sample_bytes_per_sample = 0.0;
  /// Parameter bytes synchronized for this sub-model each iteration.
  double sync_bytes = 0.0;
  bool communication_intensive = false;
};

/// Validated execution plan for one Fela run.
struct FelaPlan {
  std::vector<LevelPlan> levels;
  double total_batch = 0.0;
  int num_workers = 0;

  int num_levels() const { return static_cast<int>(levels.size()); }
  const LevelPlan& level(int i) const {
    return levels[static_cast<size_t>(i)];
  }
  int TotalTokens() const;
  std::string ToString() const;
};

/// Validates the config against the partition (weight count, w[0]==1,
/// non-decreasing, power-of-two weights <= num_workers, subset in
/// [1, num_workers]).
common::Status ValidateConfig(const FelaConfig& config, int num_sub_models,
                              int num_workers);

/// Validates everything BuildPlan consumes: worker count and total batch
/// positive, a non-empty partition whose sub-models cover sane layer
/// ranges of `model` with positive threshold batches, and (via
/// ValidateConfig) a config consistent with that partition. Returns the
/// first problem found; BuildPlan CHECK-fails on a non-OK status.
common::Status ValidatePlanInputs(const model::Model& model,
                                  const std::vector<model::SubModel>& sub_models,
                                  const FelaConfig& config, double total_batch,
                                  int num_workers);

/// Builds the plan per §III-B / §IV-B:
///   n_0   = max(ceil(total_batch / threshold_0), N)
///   b_0   = total_batch / n_0
///   b_i   = w_i * b_0,   n_i = ceil(n_0 / w_i)
/// Requires a valid config.
FelaPlan BuildPlan(const model::Model& model,
                   const std::vector<model::SubModel>& sub_models,
                   const FelaConfig& config, double total_batch,
                   int num_workers, double bytes_per_scalar = 4.0);

}  // namespace fela::core

#endif  // FELA_CORE_FELA_CONFIG_H_
