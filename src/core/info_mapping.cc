#include "core/info_mapping.h"

#include "common/logging.h"

namespace fela::core {

void InfoMapping::RecordCompleted(TokenId token, sim::NodeId worker) {
  FELA_CHECK(holder_.find(token) == holder_.end())
      << "token " << token << " completed twice";
  holder_[token] = worker;
  completed_by_[worker].insert(token);
}

sim::NodeId InfoMapping::HolderOf(TokenId token) const {
  auto it = holder_.find(token);
  return it == holder_.end() ? -1 : it->second;
}

const std::unordered_set<TokenId>& InfoMapping::CompletedBy(
    sim::NodeId worker) const {
  static const std::unordered_set<TokenId> kEmpty;
  auto it = completed_by_.find(worker);
  return it == completed_by_.end() ? kEmpty : it->second;
}

double InfoMapping::LocalityScore(sim::NodeId worker,
                                  const std::vector<TokenId>& deps) const {
  if (deps.empty()) return 1.0;
  const auto& held = CompletedBy(worker);
  size_t hits = 0;
  for (TokenId d : deps) {
    if (held.count(d) > 0) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(deps.size());
}

double InfoMapping::LocalityScore(sim::NodeId worker,
                                  const std::vector<TokenDep>& deps) const {
  if (deps.empty()) return 1.0;
  const auto& held = CompletedBy(worker);
  size_t hits = 0;
  for (const auto& d : deps) {
    if (held.count(d.id) > 0) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(deps.size());
}

void InfoMapping::Reset() {
  holder_.clear();
  completed_by_.clear();
}

}  // namespace fela::core
