#include "core/token_server.h"

#include <gtest/gtest.h>

#include <map>

#include "model/zoo.h"

namespace fela::core {
namespace {

/// Harness driving a TokenServer directly (no workers): grants are
/// captured; reports are injected manually.
class TokenServerHarness {
 public:
  TokenServerHarness(FelaConfig config, double total_batch = 128,
                     int num_workers = 8)
      : config_(std::move(config)),
        sub_models_(model::BinPartitioner().Partition(
            model::zoo::Vgg19(), model::ProfileRepository::Default())),
        plan_(BuildPlan(model::zoo::Vgg19(), sub_models_, config_,
                        total_batch, num_workers)) {
    TokenServer::Callbacks cbs;
    cbs.deliver_grant = [this](sim::NodeId w, const Grant& g) {
      grants.emplace_back(w, g);
    };
    cbs.on_level_complete = [this](int level) {
      completed_levels.push_back(level);
    };
    cbs.on_all_levels_complete = [this] { all_done = true; };
    ts_ = std::make_unique<TokenServer>(&sim_, &cal_, &plan_, &config_,
                                        std::move(cbs));
  }

  TokenServer& ts() { return *ts_; }
  const FelaPlan& plan() const { return plan_; }

  /// Pops the oldest undelivered grant for any worker.
  std::pair<sim::NodeId, Grant> PopGrant() {
    EXPECT_FALSE(grants.empty());
    auto g = grants.front();
    grants.erase(grants.begin());
    return g;
  }

  /// Completes a granted token on behalf of its worker.
  void Complete(sim::NodeId worker, const Token& token) {
    ts_->HandleReport(worker, token);
  }

  /// Runs request/complete loops until the iteration finishes; returns
  /// tokens trained per worker.
  std::map<sim::NodeId, int> DrainIteration() {
    std::map<sim::NodeId, int> trained;
    int guard = 0;
    while (!all_done && guard++ < 10000) {
      if (grants.empty()) break;
      auto [w, g] = PopGrant();
      ++trained[w];
      Complete(w, g.token);
    }
    return trained;
  }

  sim::Simulator sim_;
  sim::Calibration cal_;
  FelaConfig config_;
  std::vector<model::SubModel> sub_models_;
  FelaPlan plan_;
  std::unique_ptr<TokenServer> ts_;

  std::vector<std::pair<sim::NodeId, Grant>> grants;
  std::vector<int> completed_levels;
  bool all_done = false;
};

FelaConfig PaperConfig() {
  FelaConfig cfg = FelaConfig::Defaults(3, 8);
  cfg.weights = {1, 2, 4};
  return cfg;
}

TEST(TokenServerTest, InitialTokensFillStbsRoundRobin) {
  TokenServerHarness h(PaperConfig());
  h.ts().BeginIteration(0);
  EXPECT_EQ(h.ts().PendingTokenCount(), 8u);  // n_1 = 8 at batch 128
  // Every worker's request is served from its own STB with its own
  // sample shard (no remote fetches).
  for (int w = 0; w < 8; ++w) h.ts().HandleRequest(w);
  EXPECT_EQ(h.grants.size(), 8u);
  for (auto& [w, g] : h.grants) {
    EXPECT_EQ(g.token.sample_home, w);
    EXPECT_TRUE(g.remote_fetches.empty());
    EXPECT_FALSE(g.stolen);
  }
}

TEST(TokenServerTest, GenerationFollowsPaperRatios) {
  // §III-B: 2 completed T-1 tokens generate 1 T-2; 2 T-2 generate 1 T-3.
  TokenServerHarness h(PaperConfig());
  h.ts().BeginIteration(0);
  h.ts().HandleRequest(0);
  auto [w0, g0] = h.PopGrant();
  h.Complete(w0, g0.token);
  // One completion: no T-2 yet; the implicit request got another T-1.
  EXPECT_EQ(h.ts().tokens_completed(0), 1);
  auto [w1, g1] = h.PopGrant();
  EXPECT_EQ(g1.token.level, 0);
  h.Complete(w1, g1.token);
  // Two completions by worker 0: a T-2 exists and is granted to the
  // reporter (combined report+request, ADS highest level first).
  auto [w2, g2] = h.PopGrant();
  EXPECT_EQ(w2, 0);
  EXPECT_EQ(g2.token.level, 1);
  ASSERT_EQ(g2.token.deps.size(), 2u);
  EXPECT_DOUBLE_EQ(g2.token.batch, 32.0);
  // Both deps completed by worker 0 itself -> fully local.
  EXPECT_TRUE(g2.remote_fetches.empty());
}

TEST(TokenServerTest, FullIterationCompletesAllLevels) {
  TokenServerHarness h(PaperConfig());
  h.ts().BeginIteration(0);
  for (int w = 0; w < 8; ++w) h.ts().HandleRequest(w);
  auto trained = h.DrainIteration();
  EXPECT_TRUE(h.all_done);
  EXPECT_EQ(h.completed_levels, (std::vector<int>{0, 1, 2}));
  int total = 0;
  for (auto& [w, n] : trained) total += n;
  EXPECT_EQ(total, h.plan().TotalTokens());
}

TEST(TokenServerTest, TokenCountsMatchPlanPerLevel) {
  TokenServerHarness h(PaperConfig());
  h.ts().BeginIteration(0);
  for (int w = 0; w < 8; ++w) h.ts().HandleRequest(w);
  (void)h.DrainIteration();
  for (int l = 0; l < 3; ++l) {
    EXPECT_EQ(h.ts().tokens_completed(l), h.plan().level(l).token_count);
  }
}

TEST(TokenServerTest, WaiterQueuedWhenNoTokens) {
  // Batch 128 -> 8 T-1 tokens; a 9th request must wait (the "locking
  // problem" of §III-D).
  TokenServerHarness h(PaperConfig());
  h.ts().BeginIteration(0);
  for (int w = 0; w < 8; ++w) h.ts().HandleRequest(w);
  h.grants.clear();
  h.ts().HandleRequest(3);  // worker 3 asks again; everything is granted
  EXPECT_EQ(h.ts().waiter_count(), 1u);
  EXPECT_TRUE(h.grants.empty());
}

TEST(TokenServerTest, WaitersServedWhenLevelFlushGeneratesTokens) {
  // At batch 128 every worker holds exactly one T-1 token, so no
  // per-worker completion pool ever reaches the generation ratio; the
  // T-2 tokens appear in the level-0 completion flush, which must then
  // serve the queued (reporter) waiters.
  TokenServerHarness h(PaperConfig());
  h.ts().BeginIteration(0);
  for (int w = 0; w < 8; ++w) h.ts().HandleRequest(w);
  std::vector<std::pair<sim::NodeId, Grant>> first = h.grants;
  h.grants.clear();
  // Complete the first 7: their implicit requests all queue (no tokens
  // remain anywhere).
  for (int i = 0; i < 7; ++i) h.Complete(first[i].first, first[i].second.token);
  EXPECT_TRUE(h.grants.empty());
  EXPECT_EQ(h.ts().waiter_count(), 7u);
  // The 8th completion finishes level 0: 4 T-2 tokens are flushed out
  // and granted to the reporter + three waiters.
  h.Complete(first[7].first, first[7].second.token);
  EXPECT_EQ(h.grants.size(), 4u);
  for (auto& [w, g] : h.grants) EXPECT_EQ(g.token.level, 1);
  EXPECT_EQ(h.ts().waiter_count(), 4u);
}

TEST(TokenServerTest, HelperStealsFromStragglersBucket) {
  TokenServerHarness h(PaperConfig(), /*total_batch=*/256);  // 16 T-1s
  h.ts().BeginIteration(0);
  // Worker 5 churns through its own two STB tokens (each completion's
  // implicit request grants the next) and the T-2 they generate; its
  // next grant must be a steal from some straggler's untouched bucket.
  h.ts().HandleRequest(5);
  auto [w0, g0] = h.PopGrant();
  EXPECT_FALSE(g0.stolen);
  h.Complete(5, g0.token);
  auto [w1, g1] = h.PopGrant();
  EXPECT_EQ(g1.token.level, 0);
  EXPECT_FALSE(g1.stolen);
  h.Complete(5, g1.token);
  auto [w2, g2] = h.PopGrant();
  EXPECT_EQ(g2.token.level, 1);  // ADS grants the generated T-2 first
  h.Complete(5, g2.token);
  auto [w3, g3] = h.PopGrant();
  EXPECT_EQ(g3.token.level, 0);
  EXPECT_TRUE(g3.stolen);
  EXPECT_EQ(h.ts().stats().steals, 1u);
  // The stolen T-1 token's samples live on its home worker -> remote.
  EXPECT_EQ(g3.remote_fetches.size(), 1u);
}

TEST(TokenServerTest, RedundantRequestParksInsteadOfDoubleGranting) {
  // The lease protocol allows one live grant per worker: a request while
  // a grant is outstanding (a retry whose grant was not lost) parks the
  // worker in the wait queue instead of double-booking it.
  TokenServerHarness h(PaperConfig(), /*total_batch=*/256);
  h.ts().BeginIteration(0);
  h.ts().HandleRequest(5);
  EXPECT_EQ(h.grants.size(), 1u);
  h.ts().HandleRequest(5);
  h.ts().HandleRequest(5);
  EXPECT_EQ(h.grants.size(), 1u);
  EXPECT_EQ(h.ts().stats().redundant_requests, 2u);
  EXPECT_EQ(h.ts().waiter_count(), 1u);  // parked once, not twice
}

TEST(TokenServerTest, NoHfUsesGlobalBucketAndLock) {
  FelaConfig cfg = PaperConfig();
  cfg.hf_enabled = false;
  TokenServerHarness h(cfg);
  h.ts().BeginIteration(0);
  // Two simultaneous requests: the second conflicts on the lock.
  h.ts().HandleRequest(0);
  h.ts().HandleRequest(1);
  ASSERT_EQ(h.grants.size(), 2u);
  EXPECT_DOUBLE_EQ(h.grants[0].second.extra_delay, 0.0);
  EXPECT_GT(h.grants[1].second.extra_delay, 0.0);
  EXPECT_EQ(h.ts().stats().conflicts, 1u);
}

TEST(TokenServerTest, HfOwnBucketGrantsAreConflictFree) {
  TokenServerHarness h(PaperConfig());
  h.ts().BeginIteration(0);
  for (int w = 0; w < 8; ++w) h.ts().HandleRequest(w);
  EXPECT_EQ(h.ts().stats().conflicts, 0u);
  for (auto& [w, g] : h.grants) EXPECT_DOUBLE_EQ(g.extra_delay, 0.0);
}

TEST(TokenServerTest, CtdRestrictsCommTokensToSubset) {
  FelaConfig cfg = PaperConfig();
  cfg.ctd_subset_size = 2;  // S = {0, 1}; level 2 (FC) is comm-intensive
  TokenServerHarness h(cfg);
  h.ts().BeginIteration(0);
  for (int w = 0; w < 8; ++w) h.ts().HandleRequest(w);
  auto trained_by = [&] {
    std::map<int, std::vector<int>> by_level;
    int guard = 0;
    while (!h.all_done && guard++ < 10000 && !h.grants.empty()) {
      auto [w, g] = h.PopGrant();
      by_level[g.token.level].push_back(w);
      h.Complete(w, g.token);
    }
    return by_level;
  }();
  EXPECT_TRUE(h.all_done);
  for (int w : trained_by[2]) {
    EXPECT_LT(w, 2) << "comm token trained outside the CTD subset";
  }
}

TEST(TokenServerTest, RemainderTokensFlushedAtLevelCompletion) {
  // Batch 96 -> n_1 = 8 (min one per worker), batch 12 each; weights
  // {1,2,4} -> n_2 = 4, n_3 = 2; completions spread across 8 workers
  // leave residual single-completion pools that must be flushed.
  TokenServerHarness h(PaperConfig(), /*total_batch=*/96);
  h.ts().BeginIteration(0);
  for (int w = 0; w < 8; ++w) h.ts().HandleRequest(w);
  (void)h.DrainIteration();
  EXPECT_TRUE(h.all_done);
  for (int l = 0; l < 3; ++l) {
    EXPECT_EQ(h.ts().tokens_completed(l), h.plan().level(l).token_count);
  }
}

TEST(TokenServerTest, SamplesConservedAcrossLevels) {
  TokenServerHarness h(PaperConfig(), 128);
  h.ts().BeginIteration(0);
  std::map<int, double> samples_per_level;
  for (int w = 0; w < 8; ++w) h.ts().HandleRequest(w);
  int guard = 0;
  while (!h.all_done && guard++ < 10000 && !h.grants.empty()) {
    auto [w, g] = h.PopGrant();
    samples_per_level[g.token.level] += g.token.batch;
    h.Complete(w, g.token);
  }
  for (int l = 0; l < 3; ++l) {
    EXPECT_NEAR(samples_per_level[l], 128.0, 1e-9) << "level " << l;
  }
}

TEST(TokenServerTest, SecondIterationReusesServer) {
  TokenServerHarness h(PaperConfig());
  for (int it = 0; it < 3; ++it) {
    h.all_done = false;
    h.completed_levels.clear();
    h.ts().BeginIteration(it);
    for (int w = 0; w < 8; ++w) h.ts().HandleRequest(w);
    (void)h.DrainIteration();
    EXPECT_TRUE(h.all_done) << "iteration " << it;
  }
}

TEST(TokenServerTest, GrantIsLeasedToItsWorker) {
  TokenServerHarness h(PaperConfig());
  h.ts().BeginIteration(0);
  h.ts().HandleRequest(2);
  auto [w, g] = h.PopGrant();
  const auto cp = h.ts().MakeShardLeaseCheckpoint(h.ts().ShardOfWorker(2));
  ASSERT_EQ(cp.leases.size(), 1u);
  EXPECT_EQ(cp.leases[0].first.id, g.token.id);
  EXPECT_EQ(cp.leases[0].second, 2);
}

TEST(TokenServerTest, ReportForWrongIterationCountedAndDropped) {
  // Under a lossy control plane a duplicated report can straddle the
  // iteration turnover, so a wrong-iteration report is not a protocol
  // violation anymore: it is counted and ignored.
  TokenServerHarness h(PaperConfig());
  h.ts().BeginIteration(0);
  Token stale;
  stale.id = 999;
  stale.iteration = 5;
  h.ts().HandleReport(0, stale);
  EXPECT_EQ(h.ts().stats().stale_reports, 1u);
  EXPECT_EQ(h.ts().stats().completions, 0u);
  EXPECT_TRUE(h.grants.empty());  // no implicit request honored
}

}  // namespace
}  // namespace fela::core
