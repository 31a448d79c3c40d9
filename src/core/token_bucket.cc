#include "core/token_bucket.h"

#include <algorithm>

#include "common/logging.h"

namespace fela::core {

std::vector<int> LevelPriorityFor(sim::NodeId worker, const FelaConfig& config,
                                  const FelaPlan& plan, bool ctd_relaxed) {
  const int m = plan.num_levels();
  std::vector<int> base;
  base.reserve(static_cast<size_t>(m));
  if (config.ads_enabled) {
    for (int l = m - 1; l >= 0; --l) base.push_back(l);
  } else {
    for (int l = 0; l < m; ++l) base.push_back(l);
  }

  const bool ctd_active =
      !ctd_relaxed && config.ctd_subset_size < plan.num_workers;
  if (!ctd_active) return base;

  std::vector<int> comm;
  std::vector<int> rest;
  for (int l : base) {
    if (plan.level(l).communication_intensive) {
      comm.push_back(l);
    } else {
      rest.push_back(l);
    }
  }
  if (comm.empty()) return base;

  const bool in_subset = worker < config.ctd_subset_size;
  if (!in_subset) return rest;  // never distribute comm tokens outside S
  std::vector<int> order = comm;  // S workers: comm levels first
  order.insert(order.end(), rest.begin(), rest.end());
  return order;
}

void TokenBucket::Add(Token token) {
  by_level_[token.level].push_back(std::move(token));
  ++size_;
}

size_t TokenBucket::CountAtLevel(int level) const {
  auto it = by_level_.find(level);
  return it == by_level_.end() ? 0 : it->second.size();
}

bool TokenBucket::HasTokenForOrder(const std::vector<int>& order) const {
  for (int level : order) {
    if (CountAtLevel(level) > 0) return true;
  }
  return false;
}

double TokenBucket::ScoreFor(sim::NodeId worker, const InfoMapping& info,
                             const Token& token) {
  if (token.level == 0) {
    if (token.sample_home < 0) return 1.0;
    return token.sample_home == worker ? 1.0 : 0.0;
  }
  return info.LocalityScore(worker, token.deps);
}

std::optional<Token> TokenBucket::Take(sim::NodeId worker,
                                       const InfoMapping& info,
                                       const std::vector<int>& order,
                                       bool use_locality) {
  for (int level : order) {
    auto it = by_level_.find(level);
    if (it == by_level_.end() || it->second.empty()) continue;
    auto& queue = it->second;
    size_t best = 0;
    if (use_locality) {
      double best_score = -1.0;
      for (size_t i = 0; i < queue.size(); ++i) {
        const double score = ScoreFor(worker, info, queue[i]);
        // Strict > keeps the smallest token id among ties (the queue is
        // in id order; ids are assigned monotonically).
        if (score > best_score) {
          best_score = score;
          best = i;
        }
      }
    }
    Token token = std::move(queue[best]);
    queue.erase(queue.begin() + static_cast<std::ptrdiff_t>(best));
    --size_;
    return token;
  }
  return std::nullopt;
}

std::vector<Token> TokenBucket::Snapshot() const {
  std::vector<Token> out;
  out.reserve(size_);
  for (const auto& [level, queue] : by_level_) {
    out.insert(out.end(), queue.begin(), queue.end());
  }
  return out;
}

void TokenBucket::Clear() {
  by_level_.clear();
  size_ = 0;
}

}  // namespace fela::core
