// The fuzz loop end to end: cases are deterministic, the mutation canary
// proves the oracles can bite, and the shrinker turns a failing spec
// into a small replayable repro.

#include "testing/fuzzer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.h"
#include "runtime/cluster.h"
#include "runtime/experiment.h"
#include "runtime/sweep.h"
#include "testing/spec_gen.h"

namespace fela::testing {
namespace {

TEST(FuzzerTest, CaseIsDeterministic) {
  const FuzzSpec spec = GenerateSpec(5);
  const FuzzCaseResult a = RunFuzzCase(spec);
  const FuzzCaseResult b = RunFuzzCase(spec);
  EXPECT_EQ(CaseSummaryLine(0, a), CaseSummaryLine(0, b));
  EXPECT_EQ(a.violations.size(), b.violations.size());
}

TEST(FuzzerTest, CaseSummaryLineIsStable) {
  FuzzSpec spec = GenerateSpec(3);
  FuzzCaseResult r;
  r.spec = spec;
  r.result.stats.total_time = 2.5;
  r.result.average_throughput = 100.0;
  const std::string line = CaseSummaryLine(3, r);
  EXPECT_NE(line.find("case 0003"), std::string::npos);
  EXPECT_NE(line.find("-> ok"), std::string::npos);
  EXPECT_NE(line.find(SpecLabel(spec)), std::string::npos);

  r.violations.push_back(Violation{"stats-sanity", "synthetic"});
  const std::string bad = CaseSummaryLine(4, r);
  EXPECT_NE(bad.find("VIOLATION x1 [stats-sanity] synthetic"),
            std::string::npos);
}

TEST(FuzzerTest, ShrinkOfPassingSpecIsANoOp) {
  const FuzzSpec spec = GenerateSpec(1);
  const ShrinkResult shrunk = Shrink(spec);
  EXPECT_EQ(shrunk.reductions, 0);
  EXPECT_EQ(shrunk.attempts, 1);  // just the re-run that found no target
  EXPECT_TRUE(shrunk.violations.empty());
}

/// The mutation canary: a test-only hook in the token server silently
/// swallows every 7th completion report. With it armed the oracles MUST
/// catch real Fela runs — if they stay quiet, the whole battery is
/// decorative.
class MutationCanaryTest : public ::testing::Test {
 protected:
  MutationCanaryTest() { armed_.canaries.leak_completions = true; }

  FuzzOptions armed_;
};

TEST_F(MutationCanaryTest, OracleTripsAndShrinkerMinimizes) {
  // Find a Fela case the canary breaks (needs >= 7 completion reports).
  FuzzSpec failing;
  bool found = false;
  for (uint64_t seed = 1; seed <= 60 && !found; ++seed) {
    const FuzzSpec spec = GenerateSpec(seed);
    if (spec.engine != EngineKind::kFela) continue;
    const FuzzCaseResult r = RunFuzzCase(spec, armed_);
    for (const Violation& v : r.violations) {
      if (v.oracle == "token-conservation") {
        failing = spec;
        found = true;
        break;
      }
    }
  }
  ASSERT_TRUE(found) << "mutation canary never tripped token-conservation";

  // The shrinker must bring the repro down to a debuggable size while
  // still tripping the same oracle.
  const ShrinkResult shrunk = Shrink(failing, armed_);
  EXPECT_LE(shrunk.spec.num_workers, 4);
  EXPECT_LE(shrunk.spec.iterations, 10);
  bool still_trips = false;
  for (const Violation& v : shrunk.violations) {
    if (v.oracle == "token-conservation") still_trips = true;
  }
  EXPECT_TRUE(still_trips);

  // The repro must survive the JSON round-trip and still fail on replay
  // (this is exactly what `fela-fuzz --replay` does).
  common::Json parsed;
  std::string error;
  ASSERT_TRUE(common::Json::Parse(SpecToJson(shrunk.spec).Dump(1), &parsed,
                                  &error))
      << error;
  FuzzSpec replayed;
  ASSERT_TRUE(SpecFromJson(parsed, &replayed, &error)) << error;
  const FuzzCaseResult again = RunFuzzCase(replayed, armed_);
  bool replay_trips = false;
  for (const Violation& v : again.violations) {
    if (v.oracle == "token-conservation") replay_trips = true;
  }
  EXPECT_TRUE(replay_trips);
}

/// A sharded spec with one rack of degraded devices: the fast rack
/// drains its own sub-distributor and must steal cross-shard, so every
/// run executes at least one donation — the operation the shard
/// mutation canary poisons.
FuzzSpec DonatingShardSpec() {
  FuzzSpec spec;  // seed 0: hand-built
  spec.engine = EngineKind::kFela;
  spec.model = ModelKind::kVgg19;
  spec.num_workers = 8;
  spec.total_batch = 256.0;
  spec.iterations = 3;
  spec.rack_size = 4;       // two racks -> two sub-distributors
  spec.fela_ts_shards = 0;  // auto: shard per rack
  spec.straggler = StragglerKind::kHeterogeneous;
  spec.straggler_victim = 0;
  spec.straggler_slowdown = 4.0;
  return spec;
}

/// The sharding mutation canary: the root skips the donor-side
/// availability decrement when a token migrates between shards, so the
/// donor's books double-count it. If the token-conservation oracle stays
/// quiet under this, its per-shard audit is decorative.
class ShardMutationCanaryTest : public ::testing::Test {
 protected:
  ShardMutationCanaryTest() { armed_.canaries.skip_donor_decrement = true; }

  FuzzOptions armed_;
};

TEST_F(ShardMutationCanaryTest, ShardConservationOracleBites) {
  const FuzzCaseResult r = RunFuzzCase(DonatingShardSpec(), armed_);
  bool tripped = false;
  for (const Violation& v : r.violations) {
    if (v.oracle == "token-conservation") tripped = true;
  }
  EXPECT_TRUE(tripped)
      << "donor double-count never tripped token-conservation ("
      << r.violations.size() << " violation(s) total)";
}

TEST(ShardFuzzTest, DonatingShardSpecIsCleanWithoutTheCanary) {
  // The same spec with honest books passes the whole battery — proving
  // the canary test above fails because of the mutation, not the spec.
  const FuzzCaseResult r = RunFuzzCase(DonatingShardSpec());
  EXPECT_TRUE(r.ok()) << r.violations.front().oracle << ": "
                      << r.violations.front().detail;
}

// Regression: a reclaim may re-bucket its token (attempt > 0) on an up
// worker of another shard, which later regrants it. The destination
// shard must be credited with the reclaim the source shard booked, or
// its regrants <= reclaimed + migrated_in bound trips on a healthy run.
// Seed 98 shrinks to 2 flat workers, ts_shards=2, one partition and one
// iteration.
TEST(ShardFuzzTest, ReclaimMigratedToAnotherShardIsCredited) {
  for (const uint64_t seed : {98ULL, 785ULL, 940ULL}) {
    const FuzzCaseResult r = RunFuzzCase(GenerateSpec(seed));
    EXPECT_TRUE(r.ok()) << "seed " << seed << ": "
                        << r.violations.front().oracle << ": "
                        << r.violations.front().detail;
  }
}

/// Reads a checked-in repro from tests/testing/repros.
FuzzSpec LoadRepro(const std::string& name) {
  std::ifstream in(std::string(FELA_REPRO_DIR) + "/" + name);
  EXPECT_TRUE(in.good()) << name;
  std::stringstream text;
  text << in.rdbuf();
  common::Json json;
  std::string error;
  EXPECT_TRUE(common::Json::Parse(text.str(), &json, &error)) << error;
  FuzzSpec spec;
  EXPECT_TRUE(SpecFromJson(json, &spec, &error)) << error;
  return spec;
}

// Regression: in fuzz seed 778 (the checked-in retry_after_run_end
// repro) a partition-cut worker finishes a reclaimed token at 2.056 s,
// after the 5th and last iteration ended. That late report is not run
// time: a completed run lasts until its last iteration's end.
TEST(FuzzerTest, CompletedRunEndsWithItsLastIteration) {
  const runtime::RunStats stats =
      RunFuzzCase(LoadRepro("retry_after_run_end.json")).result.stats;
  ASSERT_FALSE(stats.stalled);
  ASSERT_EQ(stats.iteration_count(), 5);
  EXPECT_EQ(stats.total_time, stats.iterations.back().end);
  EXPECT_NEAR(stats.total_time, 1.54716, 1e-5);
}

// The same late worker computes its reclaimed token from 2.048 to
// 2.056 s. That compute is not the run's either: the GPU busy total is
// the one at the last iteration's end, 8.2 ms short of the drained one.
TEST(FuzzerTest, CompletedRunCountsNoComputeAfterItsLastIteration) {
  const FuzzSpec spec = LoadRepro("retry_after_run_end.json");
  runtime::ExperimentSpec espec = ToExperimentSpec(spec);
  double drained_busy = 0.0;
  espec.post_run_probe = [&drained_busy](const runtime::Engine&,
                                         runtime::Cluster& cluster) {
    drained_busy = cluster.TotalGpuBusy();
  };
  const runtime::RunStats stats =
      runtime::RunExperiment(espec, MakeEngineFactory(spec),
                             MakeStragglerFactory(spec),
                             MakeFaultFactory(spec))
          .stats;
  ASSERT_FALSE(stats.stalled);
  EXPECT_NEAR(drained_busy - stats.total_gpu_busy, 2.056257 - 2.048025, 1e-6);
}

TEST_F(MutationCanaryTest, CanaryOnlyAffectsFelaRuns) {
  FuzzSpec spec = GenerateSpec(2);
  spec.engine = EngineKind::kDp;
  spec.fault = FaultKind::kNone;
  spec.straggler = StragglerKind::kNone;
  const FuzzCaseResult r = RunFuzzCase(spec, armed_);
  EXPECT_TRUE(r.ok()) << r.violations.front().detail;
}

TEST_F(MutationCanaryTest, SweepPrintsTheSerialLines) {
  // The canary is per run, so armed cases on a 4-job sweep print what a
  // serial run prints: the Fela cases the search above walks, plus the
  // DP case.
  std::vector<FuzzSpec> specs;
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    const FuzzSpec spec = GenerateSpec(seed);
    if (spec.engine == EngineKind::kFela) specs.push_back(spec);
  }
  FuzzSpec dp = GenerateSpec(2);
  dp.engine = EngineKind::kDp;
  specs.push_back(dp);
  std::vector<std::string> serial;
  for (size_t i = 0; i < specs.size(); ++i) {
    serial.push_back(CaseSummaryLine(i, RunFuzzCase(specs[i], armed_)));
  }
  std::vector<std::string> swept(specs.size());
  runtime::SweepRunner runner(4);
  for (size_t i = 0; i < specs.size(); ++i) {
    runner.Add([this, &specs, &swept, i] {
      swept[i] = CaseSummaryLine(i, RunFuzzCase(specs[i], armed_));
    });
  }
  runner.RunAll();
  EXPECT_EQ(swept, serial);
  EXPECT_TRUE(std::any_of(serial.begin(), serial.end(), [](const auto& l) {
    return l.find("VIOLATION") != std::string::npos;
  })) << "the canary never tripped";
}

}  // namespace
}  // namespace fela::testing
