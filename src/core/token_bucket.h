#ifndef FELA_CORE_TOKEN_BUCKET_H_
#define FELA_CORE_TOKEN_BUCKET_H_

#include <deque>
#include <map>
#include <optional>
#include <vector>

#include "core/fela_config.h"
#include "core/info_mapping.h"
#include "core/token.h"

namespace fela::core {

/// Builds the level scan order the Token Distributor uses for `worker`:
///  * ADS on (§III-D Principle 1): highest level first.
///  * ADS off: lowest level first (breadth-first / FIFO baseline).
///  * CTD (§III-F), when the subset S = {0..subset-1} is smaller than the
///    cluster: workers in S scan communication-intensive levels first
///    (T-2 > T-3 > T-1 in the paper's example); workers outside S never
///    see communication-intensive levels.
/// `ctd_relaxed` suppresses the CTD scoping: the Token Server sets it
/// while every subset worker is down, so the survivors can still drain
/// communication-intensive tokens instead of wedging the iteration on
/// workers that may never return (liveness valve).
std::vector<int> LevelPriorityFor(sim::NodeId worker, const FelaConfig& config,
                                  const FelaPlan& plan,
                                  bool ctd_relaxed = false);

/// A bucket of schedulable tokens (the global Token Bucket, or one
/// sub-Token Bucket when HF partitions it, §III-E). Selection follows the
/// provided level order; within a level, ADS Principle 2 picks the token
/// with the highest Eq. 1 locality score for the requesting worker
/// (ties: smallest token id). With locality scoring disabled the bucket
/// degrades to sequential (smallest-id) selection.
class TokenBucket {
 public:
  TokenBucket() = default;

  void Add(Token token);

  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }
  size_t CountAtLevel(int level) const;

  /// True if any stored token belongs to a level in `order`.
  bool HasTokenForOrder(const std::vector<int>& order) const;

  /// Removes and returns the best token for `worker` following `order`,
  /// or nullopt if no token matches. For level-0 tokens the locality
  /// score is 1 when the worker holds the token's training samples
  /// (sample_home), 0 otherwise — the sample-storage analogue of Eq. 1.
  std::optional<Token> Take(sim::NodeId worker, const InfoMapping& info,
                            const std::vector<int>& order, bool use_locality);

  /// Locality score used by Take (exposed for tests).
  static double ScoreFor(sim::NodeId worker, const InfoMapping& info,
                         const Token& token);

  /// Every stored token, level-ascending then FIFO within a level — the
  /// same order a sequence of Add calls would rebuild. The Token Server's
  /// invariant audit recounts its buckets through this.
  std::vector<Token> Snapshot() const;

  void Clear();

 private:
  std::map<int, std::deque<Token>> by_level_;
  size_t size_ = 0;
};

}  // namespace fela::core

#endif  // FELA_CORE_TOKEN_BUCKET_H_
