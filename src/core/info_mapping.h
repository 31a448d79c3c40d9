#ifndef FELA_CORE_INFO_MAPPING_H_
#define FELA_CORE_INFO_MAPPING_H_

#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/token.h"
#include "sim/types.h"

namespace fela::core {

/// The token server's (worker, token) bookkeeping (§III-A): which worker
/// completed each token (and therefore holds its output parameters in its
/// Parameter Chunks), and the per-worker completed sets H_wid used by the
/// Eq. 1 locality score. Which worker is training a token lives in the
/// token server's lease table.
class InfoMapping {
 public:
  InfoMapping() = default;

  /// Registers a completion report: `worker` now holds the token's
  /// output parameters.
  void RecordCompleted(TokenId token, sim::NodeId worker);

  /// Holder of a completed token's output, or -1 if not completed.
  sim::NodeId HolderOf(TokenId token) const;

  /// H_wid: tokens completed by `worker` this iteration. Safe for
  /// membership tests and counting only — NEVER range-for this set into
  /// anything observable (events, trace lines, tie-breaks): iteration
  /// order is hash order, which varies across platforms and runs.
  const std::unordered_set<TokenId>& CompletedBy(sim::NodeId worker) const;

  /// Eq. 1: |H_wid ∩ D_tid| / |D_tid|. Returns 1.0 for empty deps (a
  /// token with no dependencies is fully "local" anywhere).
  double LocalityScore(sim::NodeId worker,
                       const std::vector<TokenId>& deps) const;
  double LocalityScore(sim::NodeId worker,
                       const std::vector<TokenDep>& deps) const;

  size_t completed_count() const { return holder_.size(); }

  /// Clears all per-iteration state (tokens are iteration-scoped).
  void Reset();

 private:
  std::unordered_map<TokenId, sim::NodeId> holder_;
  std::unordered_map<sim::NodeId, std::unordered_set<TokenId>> completed_by_;
};

}  // namespace fela::core

#endif  // FELA_CORE_INFO_MAPPING_H_
